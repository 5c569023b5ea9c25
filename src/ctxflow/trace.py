"""Trace records: the replayable execution record of a run.

One record per line, canonical key order, so that two runs of the same
scenario with the same seed produce byte-identical files and a trace can
be diffed as a stream.  A line is written in a fixed layout, by one
function per record kind and pool compiled from a source that depends on
the payload's key count alone; its bytes are those of ``canonical_json``
over the record's five keys.
"""

from __future__ import annotations

import functools
import itertools
import json
import json.encoder
from collections.abc import Callable
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

# The memo is cleared when it holds this many values.  Every record is
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
    A line function hands a record whose payload is not a dict of ``count``
    keys, or lacks one of them, to ``relay``.
    """
    fields = range(count)
    params = ["head", "tail", "memo", "remember", "relay",
              *(f"k{i}" for i in fields), *(f"p{i}" for i in fields)]
    source = [
        f"def make({', '.join(params)}):",
        "    def line(record):",
        "        payload = record.payload",
        f"        if payload.__class__ is not dict or len(payload) != {count}:",
        "            return relay(record)",
    ]
    if count:
        source += ["        try:",
                   *(f"            v{i} = payload[k{i}]" for i in fields),
                   "        except KeyError:",
                   "            return relay(record)"]
    for i in fields:  # an exact int is left for the f-string, which formats it as repr does
        source += [f"        c = v{i}.__class__",
                   "        if c is str:",
                   f"            v{i} = escape(v{i})",
                   "        elif c is dict:",
                   f"            t = memo.get(id(v{i}))",
                   f"            v{i} = remember(v{i}) if t is None else t[1]",
                   "        elif c is not int:",
                   f"            v{i} = encode(v{i})"]
    source += [
        "        return f'{head}" + "".join(f"{{p{i}}}{{v{i}}}" for i in fields)
        + """{tail}{record.seq},"tick":{record.tick}}}'""",
        "    return line",
    ]
    return "\n".join(source) + "\n"


@functools.cache
def _line_maker(count: int):
    """``make`` for payloads of ``count`` keys, compiled once per count."""
    namespace = {"escape": _escape, "encode": canonical_json}
    exec(compile(_line_source(count), f"<trace line of {count} keys>", "exec"), namespace)
    return namespace["make"]


class _LineWriter:
    """Writes records as lines for one pass over a trace.

    The line is joined in the fixed layout
    ``{"kind":K,"payload":P,"pool":O,"seq":N,"tick":T}`` by one function per
    (kind, pool), laid out from a payload's keys in the order the encoder
    sorts them (``_line_source``).  It writes the payload key by key while
    a payload has the laid-out keys and no other; another key set lays the
    (kind, pool) out again, and a payload that is not a dict, has more than
    ``_MAX_FIELDS`` keys or has a key that is not a string is encoded whole,
    laying nothing out.  A dict value shared by several records (the context
    engine shares each value's payload between the models it is written to)
    is encoded once and its text reused.  The memo is keyed by identity and
    each entry holds its dict, so an id is not reused while its entry
    exists.  Records do not change once emitted, so the reused text is the
    text the dict would encode to again.
    """

    __slots__ = ("_memo", "_lines")

    def __init__(self):
        self._memo: dict[int, tuple[dict, str]] = {}
        self._lines: dict[tuple[str, str], Callable] = {}

    def line(self, record: "TraceRecord") -> str:
        line = self._lines.get((record.kind, record.pool))
        return self._lay_out(record) if line is None else line(record)

    def _lay_out(self, record: "TraceRecord") -> str:
        """The record's line, after laying its (kind, pool) out from its
        payload's keys, sorted as the encoder sorts them."""
        kind, pool, payload = record.kind, record.pool, record.payload
        head = f'{{"kind":{_escape(kind)},"payload":'
        tail = f',"pool":{_escape(pool)},"seq":'
        if (payload.__class__ is not dict or len(payload) > _MAX_FIELDS
                or not all(key.__class__ is str for key in payload)):
            return f'{head}{canonical_json(payload)}{tail}{record.seq},"tick":{record.tick}}}'
        keys = sorted(payload)
        prefixes = [f'{"," if i else ""}{_escape(key)}:' for i, key in enumerate(keys)]
        line = self._lines[kind, pool] = _line_maker(len(keys))(
            head + "{", "}" + tail, self._memo, self._remember, self._lay_out, *keys, *prefixes)
        return line(record)

    def _remember(self, value: dict) -> str:
        memo = self._memo
        if len(memo) >= _MEMO_BOUND:
            memo.clear()
        text = canonical_json(value)
        memo[id(value)] = (value, text)
        return text


@dataclass(slots=True)
class TraceRecord:
    seq: int
    tick: int
    pool: str
    kind: str
    payload: dict

    def to_line(self) -> str:
        return _LineWriter().line(self)

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


class Trace:
    """Ordered record sink; sequence numbers are assigned at emission."""

    def __init__(self):
        self.records: list[TraceRecord] = []
        self._next_seq = 0

    def emit(self, tick: int, pool: str, kind: str, payload: dict) -> TraceRecord:
        record = TraceRecord(self._next_seq, tick, pool, kind, payload)
        self._next_seq += 1
        self.records.append(record)
        return record

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def lines(self):
        """Each record's line with its newline, one at a time."""
        line = _LineWriter().line
        for record in self.records:
            yield line(record) + "\n"

    def _blocks(self):
        """The trace text in blocks of ``_BLOCK`` lines, each line with its newline."""
        line = _LineWriter().line
        records = self.records
        for start in range(0, len(records), _BLOCK):
            yield "\n".join(map(line, records[start:start + _BLOCK])) + "\n"

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
        trace = cls()
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    trace.records.append(TraceRecord.from_line(line))
        if trace.records:
            trace._next_seq = trace.records[-1].seq + 1
        return trace

    def find(self, kind: str | None = None, **payload_filters) -> list[TraceRecord]:
        """Records matching a kind and exact payload key/value pairs."""
        out = []
        for record in self.records:
            if kind is not None and record.kind != kind:
                continue
            if all(record.payload.get(k) == v for k, v in payload_filters.items()):
                out.append(record)
        return out


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
