"""Trace records: the replayable execution record of a run.

One record per line, canonical key order, so that two runs of the same
scenario with the same seed produce byte-identical files and a trace can
be diffed as a stream.  A line is byte for byte ``canonical_json`` over the
record's five keys, joined by hand in the fixed layout
``{"kind":K,"payload":P,"pool":O,"seq":N,"tick":T}``.

A payload is emitted as a dict or as a row: a tuple ``(layout, v0, v1, ...)``
whose ``layout`` is a tuple of the payload's keys, in the order the writer
writes them (as the encoder sorts them), shared by every row of its emit
site.  Every tuple payload is a row.  A row holds less memory than the dict
it stands for, so the two kinds of record a run makes most of are emitted
as rows: ``value_updated`` (layout ``context_engine.VALUE_UPDATED``) and
message deliveries (``choreography.DELIVERY``).  A row is written as that
dict, and ``records``, iteration and ``find`` give that dict, a new one on
each read.

A writer lays each (kind, pool) out once, as a line function compiled from
a source that depends on the key count alone: keys, kind and pool are
passed in as values, so no document text is compiled.  A dict's layout is
its keys as the encoder sorts them, a row's is its own.  A line function
writes a dict that has the laid-out keys and no other, or a row whose
layout is the laid-out one (told apart by identity), and returns ``None``
for any other payload; the writer then lays the (kind, pool) out again or,
for a payload that is not a dict, has more than ``_MAX_FIELDS`` keys or has
a key that is not a string, encodes it whole.  A dict value that several
records share (the context engine shares each value's payload between
models) is encoded once per write, through a memo keyed by identity whose
entries hold their dicts, so no id is reused while its entry exists.
Records do not change once emitted: an emitted payload, dict or row, and
every value it holds must not be mutated.  A line function holds the memo
and nothing that leads back to its writer, so reference counting frees a
write whole.
"""

from __future__ import annotations

import functools
import itertools
import json
import json.encoder
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass

# Built once: json.dumps builds a new encoder on every call.  No circular
# check (markers None); unserializable values still raise TypeError.
if json.encoder.c_make_encoder is not None:
    _encode = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ":", ",", True, False, True)
else:
    _encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).iterencode


_escape = json.encoder.encode_basestring_ascii

# The memo is cleared when it holds this many values.  Every payload is
# alive while its trace is written, so what the memo keeps adds to the
# peak memory of the write, and sharing is between nearby records anyway.
_MEMO_BOUND = 64
# A payload with more keys than this is encoded whole: a line function's
# source grows with its key count, and compiling one for thousands of keys
# would take seconds.  Every payload the engines write has fewer than ten.
_MAX_FIELDS = 32
# Lines written to a file in one call: each call costs about as much as
# building a short line, and a block this long is a few tens of kilobytes.
_BLOCK = 256


def canonical_json(obj) -> str:
    """Serialize with sorted keys, fixed separators and ASCII escapes; byte-stable."""
    return "".join(_encode(obj, 0))


def _line_source(count: int) -> str:
    """The source of ``make``, which returns the line function of one
    (kind, pool) whose payloads are dicts of ``count`` keys.

    The source depends on ``count`` alone: the keys, their ``"key":`` texts
    (``,"key":`` after the first), the text before the payload's first key
    and the text from its closing brace to ``seq`` are ``make``'s arguments.
    A line function takes a record's seq, tick and payload; it returns
    ``None`` for a payload other than a dict of exactly those keys.
    """
    fields = range(count)
    source = [
        f"def make(head, tail, memo, {''.join(f'k{i}, ' for i in fields)}{_params(count)}):",
        "    def line(seq, tick, payload):",
        f"        if payload.__class__ is not dict or len(payload) != {count}:",
        "            return None",
    ]
    if count:
        source += ["        try:",
                   *(f"            v{i} = payload[k{i}]" for i in fields),
                   "        except KeyError:",
                   "            return None"]
    return "\n".join(source + _writing(count)) + "\n"


def _row_line_source(count: int) -> str:
    """The source of ``make`` for rows of ``count`` values, as
    ``_line_source``'s but for the keys: ``make`` takes the layout, and a
    line function returns ``None`` for a payload other than a row of that
    very layout."""
    source = [
        f"def make(head, tail, memo, layout, {_params(count)}):",
        "    def line(seq, tick, payload):",
        "        if payload.__class__ is not tuple or payload[0] is not layout:",
        "            return None",
        f"        _, {''.join(f'v{i}, ' for i in range(count))}= payload",
    ]
    return "\n".join(source + _writing(count)) + "\n"


def _params(count: int) -> str:
    """``make``'s parameters for the ``"key":`` texts: ``p0, p1, ...``."""
    return ", ".join(f"p{i}" for i in range(count))


def _writing(count: int) -> list[str]:
    """The source lines that encode the values ``v0``, ``v1``, ... and
    return the line, ending ``make``."""
    source = []
    for i in range(count):  # an exact int is left for the f-string, which formats it as repr does
        source += [f"        c = v{i}.__class__",
                   "        if c is str:",
                   f"            v{i} = escape(v{i})",
                   "        elif c is dict:",
                   f"            t = memo.get(id(v{i}))",
                   f"            v{i} = remember(memo, v{i}) if t is None else t[1]",
                   "        elif c is not int:",
                   f"            v{i} = encode(v{i})"]
    return source + [
        "        return f'{head}" + "".join(f"{{p{i}}}{{v{i}}}" for i in range(count))
        + """{tail}{seq},"tick":{tick}}}'""",
        "    return line",
    ]


def _remember(memo: dict, value: dict) -> str:
    """``value``'s text, kept in ``memo`` under its id with the value itself."""
    if len(memo) >= _MEMO_BOUND:
        memo.clear()
    text = canonical_json(value)
    memo[id(value)] = (value, text)
    return text


@functools.cache
def _line_maker(count: int, row: bool = False):
    """``make`` for dicts (or rows) of ``count`` keys, compiled once per count."""
    namespace = {"escape": _escape, "encode": canonical_json, "remember": _remember}
    source = _row_line_source(count) if row else _line_source(count)
    name = f"<trace {'row' if row else 'line'} of {count} keys>"
    exec(compile(source, name, "exec"), namespace)
    return namespace["make"]


def _as_dict(row: tuple) -> dict:
    """The payload a row stands for."""
    return dict(zip(row[0], row[1:], strict=True))


def _read(payload):
    """A stored payload as it is read: a row's dict, a new one on each call."""
    return _as_dict(payload) if payload.__class__ is tuple else payload


def _follows(layout) -> bool:
    """Whether a row line function can write this layout: at most
    ``_MAX_FIELDS`` string keys, in the encoder's order."""
    return (len(layout) <= _MAX_FIELDS and all(key.__class__ is str for key in layout)
            and list(layout) == sorted(set(layout)))


class _LineWriter:
    """Writes records as lines for one pass over a trace: a line function per (kind, pool)."""

    __slots__ = ("_memo", "_lines")

    def __init__(self):
        self._memo: dict[int, tuple[dict, str]] = {}
        self._lines: dict[tuple[str, str], Callable] = {}

    def block(self, seqs, ticks, pools, kinds, payloads) -> list[str]:
        """The lines of the records whose fields are these columns."""
        lines, lay_out = self._lines, self._lay_out
        # no line is empty: ``or`` lays out what no line function wrote
        return [(line := lines.get((kind, pool))) is not None and line(seq, tick, payload)
                or lay_out(pool, kind, seq, tick, payload)
                for seq, tick, pool, kind, payload in zip(seqs, ticks, pools, kinds, payloads)]

    def _lay_out(self, pool: str, kind: str, seq: int, tick: int, payload) -> str:
        """The record's line, after laying its (kind, pool) out from its
        payload: a row's layout, or a dict's keys sorted as the encoder sorts them."""
        head = f'{{"kind":{_escape(kind)},"payload":'
        tail = f',"pool":{_escape(pool)},"seq":'
        if payload.__class__ is tuple and _follows(payload[0]):
            keys = payload[0]
            make, named = _line_maker(len(keys), True), (keys,)
        else:
            if payload.__class__ is tuple:  # a layout out of the encoder's order
                payload = _as_dict(payload)
            if (payload.__class__ is not dict or len(payload) > _MAX_FIELDS
                    or not all(key.__class__ is str for key in payload)):
                return f'{head}{canonical_json(payload)}{tail}{seq},"tick":{tick}}}'
            keys = sorted(payload)
            make, named = _line_maker(len(keys)), keys
        prefixes = [f'{"," if i else ""}{_escape(key)}:' for i, key in enumerate(keys)]
        line = self._lines[kind, pool] = make(head + "{", "}" + tail, self._memo,
                                              *named, *prefixes)
        return line(seq, tick, payload)


@dataclass(slots=True)
class TraceRecord:
    seq: int
    tick: int
    pool: str
    kind: str
    payload: dict

    def to_line(self) -> str:
        return _LineWriter().block((self.seq,), (self.tick,), (self.pool,), (self.kind,),
                                   (self.payload,))[0]

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        data = json.loads(line)
        return cls(
            seq=data["seq"],
            tick=data["tick"],
            pool=data["pool"],
            kind=data["kind"],
            payload=data["payload"],
        )


class _Records(Sequence):
    """A trace's records, read-only and live: its length grows as the trace
    is emitted to.  A record, and a row's payload dict, is built when it is
    read, so two reads of one record give equal records, not the same
    object.  The view holds the trace's columns, not the trace."""

    __slots__ = ("_ticks", "_pools", "_kinds", "_payloads")

    def __init__(self, ticks: list, pools: list, kinds: list, payloads: list):
        self._ticks, self._pools, self._kinds, self._payloads = ticks, pools, kinds, payloads

    def __len__(self) -> int:
        return len(self._ticks)

    def __getitem__(self, index):
        seqs = range(len(self._ticks))[index]  # an index's or a slice's seqs, checked
        return list(map(self._record, seqs)) if seqs.__class__ is range else self._record(seqs)

    def _record(self, seq: int) -> TraceRecord:
        return TraceRecord(seq, self._ticks[seq], self._pools[seq], self._kinds[seq],
                           _read(self._payloads[seq]))

    def __iter__(self):
        return map(TraceRecord, itertools.count(), self._ticks, self._pools, self._kinds,
                   map(_read, self._payloads))


class Trace:
    """Ordered record sink, kept as one list per field: a record's ``seq`` is
    its index, and ``records`` builds a ``TraceRecord`` only when it is read.
    A payload is kept as emitted, a dict or a row."""

    def __init__(self):
        self._ticks: list[int] = []
        self._pools: list[str] = []
        self._kinds: list[str] = []
        self._payloads: list = []
        self.records = _Records(self._ticks, self._pools, self._kinds, self._payloads)

    def emit(self, tick: int, pool: str, kind: str, payload: dict | tuple) -> None:
        self._ticks.append(tick)
        self._pools.append(pool)
        self._kinds.append(kind)
        self._payloads.append(payload)

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self._ticks)

    def _line_blocks(self):
        """The records' lines, without newlines, in lists of ``_BLOCK``."""
        block = _LineWriter().block
        ticks, pools, kinds, payloads = self._ticks, self._pools, self._kinds, self._payloads
        for start in range(0, len(ticks), _BLOCK):
            stop = start + _BLOCK
            yield block(range(start, stop), ticks[start:stop], pools[start:stop],
                        kinds[start:stop], payloads[start:stop])

    def lines(self):
        """Each record's line with its newline, one at a time."""
        for block in self._line_blocks():
            for line in block:
                yield line + "\n"

    def _blocks(self):
        """The trace text in blocks of ``_BLOCK`` lines, each line with its newline."""
        for block in self._line_blocks():
            yield "\n".join(block) + "\n"

    def to_text(self) -> str:
        return "".join(self._blocks())

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            self.write_to(handle)

    def write_to(self, handle):
        """Write the trace to an open text file, one block at a time."""
        for block in self._blocks():
            handle.write(block)

    @classmethod
    def read(cls, path) -> "Trace":
        """The trace in a file.  Its records' ``seq`` must count 0, 1, 2, ...
        in file order, as the writer writes them; a record whose ``seq`` is
        not its index raises ``ValueError`` naming its line."""
        trace = cls()
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if line:
                    record = TraceRecord.from_line(line)
                    if record.seq.__class__ is not int or record.seq != len(trace):
                        raise ValueError(f"{path}: line {number}: seq {record.seq!r} "
                                         f"is not the record's index {len(trace)}")
                    trace.emit(record.tick, record.pool, record.kind, record.payload)
        return trace

    def find(self, kind: str | None = None, **payload_filters) -> list[TraceRecord]:
        """Records matching a kind and exact payload key/value pairs.  A
        payload that is not a dict matches no pair."""
        kinds = self._kinds
        if kind is None:
            seqs = range(len(kinds))
        else:
            seqs = itertools.compress(itertools.count(),
                                      map(operator.eq, kinds, itertools.repeat(kind)))
        records = map(self.records._record, seqs)
        if not payload_filters:
            return list(records)
        pairs = payload_filters.items()
        return [record for record in records if isinstance(record.payload, dict)
                and all(record.payload.get(k) == v for k, v in pairs)]


def replay_verify(path_a, path_b) -> tuple[bool, str]:
    """Byte-compare two trace files line by line; report the first divergence."""
    with open(path_a, "rb") as handle_a, open(path_b, "rb") as handle_b:
        pairs = itertools.zip_longest(handle_a, handle_b)
        for i, (line_a, line_b) in enumerate(pairs):
            if line_a is None or line_b is None:
                seq = _seq_of(line_a if line_b is None else line_b)
                return False, f"length mismatch; first extra record has seq {seq}"
            line_a, line_b = line_a.rstrip(b"\r\n"), line_b.rstrip(b"\r\n")
            if line_a != line_b:
                seq = _seq_of(line_a, _seq_of(line_b, i))
                return False, f"divergence at seq {seq}: {line_a[:120]!r} != {line_b[:120]!r}"
    return True, "identical"


def _seq_of(line: bytes, missing=None):
    """The ``seq`` of a record line, ``missing`` for a line that holds none."""
    try:
        return json.loads(line.decode("utf-8"))["seq"]
    except (ValueError, KeyError, TypeError, RecursionError):
        return missing
