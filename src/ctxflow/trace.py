"""Trace records: the replayable execution record of a run.

One record per line, canonical key order, so that two runs of the same
scenario with the same seed produce byte-identical files and a trace can
be diffed as a stream.  A line is written in a fixed layout; its bytes
are those of ``canonical_json`` over the record's five keys.
"""

from __future__ import annotations

import itertools
import json
import json.encoder
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

# Walking a payload key by key costs more than encoding it whole, and pays
# only where a value's text is reused.  So a kind's payloads are walked for
# this many lines after one of its lines reused a text; otherwise they are
# encoded whole, except two neighbouring lines in every this many, which are
# walked to find sharing.
_PROBE = 64
# The memo is cleared when it holds this many values.  Every record is
# alive while its trace is written, so what the memo keeps adds to the
# peak memory of the write, and sharing is between nearby records anyway.
_MEMO_BOUND = 64


def canonical_json(obj) -> str:
    """Serialize with sorted keys, fixed separators and ASCII escapes; byte-stable."""
    return "".join(_encode(obj, 0))


class _LineWriter:
    """Writes records as lines for one pass over a trace.

    The line is joined by hand in the fixed layout
    ``{"kind":K,"payload":P,"pool":O,"seq":N,"tick":T}``.  The payload is
    walked key by key so that a dict value shared by several records (the
    context engine shares each value's payload between the models it is
    written to) is encoded once and its text reused; a kind whose records
    share nothing is encoded whole (``_PROBE``).  The memo is keyed
    by identity and each entry holds its dict, so an id is not reused
    while its entry exists.  Records do not change once emitted, so the
    reused text is the text the dict would encode to again.
    """

    __slots__ = ("_memo", "_since_reuse")

    def __init__(self):
        self._memo: dict[int, tuple[dict, str]] = {}
        self._since_reuse: dict[str, int] = {}  # kind -> lines since a value was reused

    def line(self, record: "TraceRecord") -> str:
        kind, payload = record.kind, record.payload
        lines = self._since_reuse.get(kind, _PROBE)
        if payload.__class__ is dict and (lines < _PROBE or lines % _PROBE < 2):
            text = self._walk(payload, kind, lines)
        else:
            self._since_reuse[kind] = lines + 1
            text = canonical_json(payload)
        return (f'{{"kind":{_escape(kind)},"payload":{text},'
                f'"pool":{_escape(record.pool)},"seq":{record.seq},"tick":{record.tick}}}')

    def _walk(self, payload: dict, kind: str, lines: int) -> str:
        memo = self._memo
        reused = False
        parts = []
        try:
            # the order the C encoder sorts in: (key, value) pairs
            for key, value in sorted(payload.items()):
                cls = value.__class__
                if cls is str:
                    text = _escape(value)
                elif cls is dict:
                    entry = memo.get(id(value))
                    if entry is None:
                        if len(memo) >= _MEMO_BOUND:
                            memo.clear()
                        text = canonical_json(value)
                        memo[id(value)] = (value, text)
                    else:
                        text = entry[1]
                        reused = True
                else:
                    text = canonical_json(value)
                parts.append(f"{_escape(key)}:{text}")
        except TypeError:  # a key that is not a string: the encoder decides
            return canonical_json(payload)
        self._since_reuse[kind] = 0 if reused else lines + 1
        return "{" + ",".join(parts) + "}"


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

    def to_text(self) -> str:
        return "".join(self.lines())

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(self.lines())

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
                seq = _seq_of(line_a) or _seq_of(line_b) or i
                return False, f"divergence at seq {seq}: {line_a[:120]!r} != {line_b[:120]!r}"
    return True, "identical"


def _seq_of(line: bytes):
    try:
        return json.loads(line.decode("utf-8"))["seq"]
    except (ValueError, KeyError):
        return None
