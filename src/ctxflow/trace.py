"""Trace records: the replayable execution record of a run.

One record per line, canonical key order, so that two runs of the same
scenario with the same seed produce byte-identical files and a trace can
be diffed as a stream.
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


def canonical_json(obj) -> str:
    """Serialize with sorted keys, fixed separators and ASCII escapes; byte-stable."""
    return "".join(_encode(obj, 0))


@dataclass(slots=True)
class TraceRecord:
    seq: int
    tick: int
    pool: str
    kind: str
    payload: dict

    def to_line(self) -> str:
        return "".join(_encode({
            "kind": self.kind,
            "payload": self.payload,
            "pool": self.pool,
            "seq": self.seq,
            "tick": self.tick,
        }, 0))

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
        for record in self.records:
            yield record.to_line() + "\n"

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
