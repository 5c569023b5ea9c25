"""The external systems pool and its scripted sources (weather, traffic, ERP, BPM).

A source either pushes timeline entries at fixed ticks or answers polls
from a piecewise-constant schedule.  Responses are pure functions of
(script, tick).  The one exception is the BPM mirror source, whose
answers reflect decisions the process engine has taken so far; the
process engine feeds those in deterministically through ``emit_mirror``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field


SOURCE_MODES = ("push", "poll")


@dataclass(frozen=True)
class SourceDescriptor:
    source_id: str
    mode: str
    reliability: float
    cost_per_value: float = 0.0
    poll_interval: int = 1
    provided_categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.mode not in SOURCE_MODES:
            raise ValueError(f"unknown source mode {self.mode!r}")
        if self.mode == "poll" and self.poll_interval < 1:
            raise ValueError("poll interval must be at least one tick")
        if not 0.0 <= self.reliability <= 1.0:
            raise ValueError("reliability must lie in [0, 1]")
        if self.cost_per_value < 0:
            raise ValueError("cost must be non-negative")


@dataclass(frozen=True)
class TimelineEntry:
    tick: int
    category_id: str
    payload: object


@dataclass(frozen=True)
class MirrorSpec:
    """Process fact mirrored into a context category.

    ``trigger`` is either ``decision`` (emit when the gate decision is
    applied) or ``task:<name>`` (emit when that task completes, i.e. when
    the fact becomes observable world state, such as a loaded truck
    leaving the warehouse).
    """

    model_id: str
    gate_id: str
    category_id: str
    trigger: str = "decision"


@dataclass
class ScriptedSource:
    descriptor: SourceDescriptor
    timeline: InitVar[list[TimelineEntry]] = ()
    # category -> [(tick, payload), ...] sorted by tick; value at t is the
    # last entry with tick <= t
    poll_table: dict[str, list[tuple[int, object]]] = field(default_factory=dict)
    mirrors: list[MirrorSpec] = field(default_factory=list)
    due: dict[int, list[TimelineEntry]] = field(init=False)  # tick -> timeline entries

    def __post_init__(self, timeline):
        ticks = [entry.tick for entry in timeline]
        if ticks != sorted(ticks):
            raise ValueError("timeline ticks must be non-decreasing")
        provided = set(self.descriptor.provided_categories)
        self.due = {}
        for entry in timeline:
            if entry.category_id not in provided:
                raise ValueError(
                    f"timeline entry for {entry.category_id!r} outside the "
                    f"provided set of source {self.descriptor.source_id!r}"
                )
            self.due.setdefault(entry.tick, []).append(entry)
        for category in self.poll_table:
            if category not in provided:
                raise ValueError(
                    f"poll schedule for {category!r} outside the provided set "
                    f"of source {self.descriptor.source_id!r}"
                )

    @property
    def source_id(self) -> str:
        return self.descriptor.source_id


def advance(source: ScriptedSource, now: int) -> list[dict]:
    """Timeline entries due exactly at ``now``, as source-event payloads."""
    return [{"source_id": source.source_id, "category_id": entry.category_id,
             "payload": entry.payload, "ts": now} for entry in source.due.get(now, ())]


def respond_poll(source: ScriptedSource, categories, now: int,
                 mirrored: dict | None = None) -> dict:
    """Current schedule values at ``now``; a category without one is absent.

    ``mirrored`` is this run's mirror state of the source (category ->
    last mirrored payload).  The schedule holds only provided categories,
    and so does the mirror state, which answers where the schedule has no
    entry at or before ``now``.
    """
    mirrored = mirrored or {}
    values = []
    absent = []
    for category in categories:
        payload = mirrored.get(category, _MISSING)
        for tick, scheduled in source.poll_table.get(category, ()):
            if tick > now:
                break
            payload = scheduled
        if payload is _MISSING:
            absent.append(category)
            continue
        values.append({
            "category_id": category,
            "payload": payload,
            "ts": now,
            "reliability": source.descriptor.reliability,
            "cost": source.descriptor.cost_per_value,
        })
    return {"source": source.source_id, "values": values, "absent": absent}


_MISSING = object()


class ExternalSystems:
    """Pool of scripted sources answering polls and pushing events."""

    POOL = "external"

    def __init__(self, bus, sources: dict[str, ScriptedSource]):
        self.bus = bus
        self.sources = sources
        # source -> category -> last mirrored payload; per run, so a parsed
        # scenario built twice starts each run with nothing mirrored
        self.mirror_state: dict[str, dict[str, object]] = {
            source.source_id: {} for source in sources.values()}

    def schedule_timeline(self):
        for source in self.sources.values():
            for tick in source.due:  # ascending: the timeline is sorted
                self.bus.timer(self.POOL, {"source": source.source_id, "at": tick}, tick)

    def handle_timer(self, payload: dict):
        source = self.sources[payload["source"]]
        for event in advance(source, payload["at"]):
            self.bus.send(self.POOL, "context", "SourceEvent", event)

    def handle_message(self, kind: str, payload: dict):
        """Answer a PollRequest, the one kind CHANNELS delivers here; the
        context pool polls only the sources this pool holds."""
        source = self.sources[payload["source"]]
        reply = respond_poll(source, payload["categories"], self.bus.now,
                             self.mirror_state[source.source_id])
        reply["purpose"] = payload["purpose"]
        for key in ("instance", "model"):
            if key in payload:
                reply[key] = payload[key]
        self.bus.send(self.POOL, "context", "PollResponse", reply)

    def emit_mirror(self, source_id: str, category_id: str, payload):
        """The BPM system acting as an external context source: ``source_id``
        is the source that declares the mirror."""
        self.mirror_state[source_id][category_id] = payload
        self.bus.send(self.POOL, "context", "SourceEvent", {
            "source_id": source_id,
            "category_id": category_id,
            "payload": payload,
            "ts": self.bus.now,
        })
