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
# Lines written to a file in one call: each call costs about as much as
# building a short line, and a block this long is a few tens of kilobytes.
_BLOCK = 256


def canonical_json(obj) -> str:
    """Serialize with sorted keys, fixed separators and ASCII escapes; byte-stable."""
    return "".join(_encode(obj, 0))


class _Layout:
    """What a kind's lines share: the text around the payload, and the
    payload keys in the order the encoder sorts them, each with its
    ``"key":`` text (``,"key":`` after the first)."""

    __slots__ = ("head", "pool", "tail", "fields", "since_reuse")

    def __init__(self, kind: str):
        self.head = f'{{"kind":{_escape(kind)},"payload":'
        self.pool = self.tail = None
        self.fields: tuple[tuple[str, str], ...] | None = None  # None: not laid out
        self.since_reuse = _PROBE  # lines since one of the kind's lines reused a text

    def lay_out(self, payload: dict):
        """Lay the kind out from this payload's keys, sorted as the encoder
        sorts them; None, and no layout, if a key is not a string."""
        if not all(key.__class__ is str for key in payload):
            return None
        self.fields = tuple((key, f'{"," if i else ""}{_escape(key)}:')
                            for i, key in enumerate(sorted(payload)))
        return self.fields


class _LineWriter:
    """Writes records as lines for one pass over a trace.

    The line is joined by hand in the fixed layout
    ``{"kind":K,"payload":P,"pool":O,"seq":N,"tick":T}`` from a
    :class:`_Layout` learned per kind.  The payload is walked key by key,
    in the key order the kind's layout holds while a payload has as many
    keys and every laid-out key, so that a dict value shared by several
    records (the context engine shares each value's payload between the
    models it is written to) is encoded once and its text reused; a kind
    whose records share nothing is encoded whole (``_PROBE``).  The memo is
    keyed by identity and each entry holds its dict, so an id is not reused
    while its entry exists.  Records do not change once emitted, so the
    reused text is the text the dict would encode to again.
    """

    __slots__ = ("_memo", "_layouts")

    def __init__(self):
        self._memo: dict[int, tuple[dict, str]] = {}
        self._layouts: dict[str, _Layout] = {}

    def line(self, record: "TraceRecord") -> str:
        kind, payload = record.kind, record.payload
        layout = self._layouts.get(kind)
        if layout is None:
            layout = self._layouts[kind] = _Layout(kind)
        if record.pool != layout.pool:
            layout.pool = record.pool
            layout.tail = f',"pool":{_escape(record.pool)},"seq":'
        lines = layout.since_reuse
        if payload.__class__ is dict and (lines < _PROBE or lines % _PROBE < 2):
            text = self._walk(payload, layout)
        else:
            layout.since_reuse = lines + 1
            text = canonical_json(payload)
        return f'{layout.head}{text}{layout.tail}{record.seq},"tick":{record.tick}}}'

    def _walk(self, payload: dict, layout: _Layout) -> str:
        fields = layout.fields
        if fields is None or len(payload) != len(fields):
            fields = layout.lay_out(payload)
            if fields is None:  # a key that is not a string: the encoder decides
                return canonical_json(payload)
        memo = self._memo
        reused = False
        parts = []
        append = parts.append
        try:
            for key, prefix in fields:
                value = payload[key]
                cls = value.__class__
                if cls is str:
                    append(prefix + _escape(value))
                elif cls is int:  # an exact int formats as int.__repr__ does
                    append(f"{prefix}{value}")
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
                    append(prefix + text)
                else:
                    append(prefix + canonical_json(value))
        except KeyError:  # as many keys, but not the laid-out ones
            layout.fields = None
            return self._walk(payload, layout)
        layout.since_reuse = 0 if reused else layout.since_reuse + 1
        return "{" + "".join(parts) + "}"


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
