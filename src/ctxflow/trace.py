"""Trace records: the replayable execution record of a run.

One record per line, canonical key order, so that two runs of the same
scenario with the same seed produce byte-identical files and a trace can
be diffed as a stream.  A line is byte for byte ``canonical_json`` over the
record's five keys, joined by hand in the fixed layout
``{"kind":K,"payload":P,"pool":O,"seq":N,"tick":T}``.

A writer lays each (kind, pool) out once, from a payload's keys as the
encoder sorts them, as a line function compiled from a source that depends
on the key count alone: keys, kind and pool are passed in as values, so no
document text is compiled.  A line function writes a payload that has the
laid-out keys and no other, and returns ``None`` for any other; the writer
then lays the (kind, pool) out again or, for a payload that is not a dict,
has more than ``_MAX_FIELDS`` keys or has a key that is not a string,
encodes it whole.  A dict value that several records share (the context
engine shares each value's payload between models) is encoded once per
write, through a memo keyed by identity whose entries hold their dicts, so
no id is reused while its entry exists; records do not change once
emitted.  A line function holds the memo and nothing that leads back to
its writer, so reference counting frees a write whole.
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
    (kind, pool) whose payloads have ``count`` keys.

    The source depends on ``count`` alone: the keys, their ``"key":`` texts
    (``,"key":`` after the first), the text before the payload's first key
    and the text from its closing brace to ``seq`` are ``make``'s arguments.
    A line function takes a record's seq, tick and payload; it returns
    ``None`` for a payload other than a dict of exactly those keys.
    """
    fields = range(count)
    params = ["head", "tail", "memo", *(f"k{i}" for i in fields), *(f"p{i}" for i in fields)]
    source = [
        f"def make({', '.join(params)}):",
        "    def line(seq, tick, payload):",
        f"        if payload.__class__ is not dict or len(payload) != {count}:",
        "            return None",
    ]
    if count:
        source += ["        try:",
                   *(f"            v{i} = payload[k{i}]" for i in fields),
                   "        except KeyError:",
                   "            return None"]
    for i in fields:  # an exact int is left for the f-string, which formats it as repr does
        source += [f"        c = v{i}.__class__",
                   "        if c is str:",
                   f"            v{i} = escape(v{i})",
                   "        elif c is dict:",
                   f"            t = memo.get(id(v{i}))",
                   f"            v{i} = remember(memo, v{i}) if t is None else t[1]",
                   "        elif c is not int:",
                   f"            v{i} = encode(v{i})"]
    source += [
        "        return f'{head}" + "".join(f"{{p{i}}}{{v{i}}}" for i in fields)
        + """{tail}{seq},"tick":{tick}}}'""",
        "    return line",
    ]
    return "\n".join(source) + "\n"


def _remember(memo: dict, value: dict) -> str:
    """``value``'s text, kept in ``memo`` under its id with the value itself."""
    if len(memo) >= _MEMO_BOUND:
        memo.clear()
    text = canonical_json(value)
    memo[id(value)] = (value, text)
    return text


@functools.cache
def _line_maker(count: int):
    """``make`` for payloads of ``count`` keys, compiled once per count."""
    namespace = {"escape": _escape, "encode": canonical_json, "remember": _remember}
    exec(compile(_line_source(count), f"<trace line of {count} keys>", "exec"), namespace)
    return namespace["make"]


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
        payload's keys, sorted as the encoder sorts them."""
        head = f'{{"kind":{_escape(kind)},"payload":'
        tail = f',"pool":{_escape(pool)},"seq":'
        if (payload.__class__ is not dict or len(payload) > _MAX_FIELDS
                or not all(key.__class__ is str for key in payload)):
            return f'{head}{canonical_json(payload)}{tail}{seq},"tick":{tick}}}'
        keys = sorted(payload)
        prefixes = [f'{"," if i else ""}{_escape(key)}:' for i, key in enumerate(keys)]
        line = self._lines[kind, pool] = _line_maker(len(keys))(
            head + "{", "}" + tail, self._memo, *keys, *prefixes)
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
    is emitted to.  A record is built when it is read, so two reads of one
    record give equal records, not the same object.  The view holds the
    trace's columns, not the trace."""

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
                           self._payloads[seq])

    def __iter__(self):
        return map(TraceRecord, itertools.count(), self._ticks, self._pools, self._kinds,
                   self._payloads)


class Trace:
    """Ordered record sink, kept as one list per field: a record's ``seq`` is
    its index, and ``records`` builds a ``TraceRecord`` only when it is read."""

    def __init__(self):
        self._ticks: list[int] = []
        self._pools: list[str] = []
        self._kinds: list[str] = []
        self._payloads: list = []
        self.records = _Records(self._ticks, self._pools, self._kinds, self._payloads)

    def emit(self, tick: int, pool: str, kind: str, payload: dict) -> None:
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
        """Records matching a kind and exact payload key/value pairs."""
        kinds, payloads = self._kinds, self._payloads
        if kind is None:
            seqs = range(len(kinds))
        else:
            seqs = itertools.compress(itertools.count(),
                                      map(operator.eq, kinds, itertools.repeat(kind)))
        record = self.records._record
        return [record(seq) for seq in seqs
                if all(payloads[seq].get(k) == v for k, v in payload_filters.items())]


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
