"""Scripted stand-ins for external systems (weather, traffic, ERP, BPM).

A source either pushes timeline entries at fixed ticks or answers polls
from a piecewise-constant schedule.  Responses are pure functions of
(script, tick).  The one exception is the BPM mirror source, whose
answers reflect decisions the process engine has taken so far; the
choreography feeds those in deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
    timeline: list[TimelineEntry] = field(default_factory=list)
    # category -> [(tick, payload), ...] sorted by tick; value at t is the
    # last entry with tick <= t
    poll_table: dict[str, list[tuple[int, object]]] = field(default_factory=dict)
    mirrors: list[MirrorSpec] = field(default_factory=list)
    mirror_state: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        ticks = [entry.tick for entry in self.timeline]
        if ticks != sorted(ticks):
            raise ValueError("timeline ticks must be non-decreasing")
        provided = set(self.descriptor.provided_categories)
        for entry in self.timeline:
            if entry.category_id not in provided:
                raise ValueError(
                    f"timeline entry for {entry.category_id!r} outside the "
                    f"provided set of source {self.descriptor.source_id!r}"
                )
        for category in self.poll_table:
            if category not in provided:
                raise ValueError(
                    f"poll schedule for {category!r} outside the provided set "
                    f"of source {self.descriptor.source_id!r}"
                )

    @property
    def source_id(self) -> str:
        return self.descriptor.source_id

    def record_mirror(self, category_id: str, payload):
        self.mirror_state[category_id] = payload


def advance(source: ScriptedSource, now: int) -> list[dict]:
    """Timeline entries due exactly at ``now``, as source-event payloads."""
    events = []
    for entry in source.timeline:
        if entry.tick == now:
            events.append({
                "source_id": source.source_id,
                "category_id": entry.category_id,
                "payload": entry.payload,
                "ts": now,
            })
    return events


def respond_poll(source: ScriptedSource, categories, now: int) -> dict:
    """Current schedule values at ``now``; unknown categories are flagged."""
    values = []
    absent = []
    provided = set(source.descriptor.provided_categories)
    for category in categories:
        if category not in provided:
            absent.append(category)
            continue
        payload = _scheduled_value(source, category, now)
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
    return {"source_id": source.source_id, "values": values, "absent": absent}


_MISSING = object()


def _scheduled_value(source: ScriptedSource, category: str, now: int):
    schedule = source.poll_table.get(category)
    if schedule:
        current = _MISSING
        for tick, payload in schedule:
            if tick <= now:
                current = payload
            else:
                break
        if current is not _MISSING:
            return current
    if category in source.mirror_state:
        return source.mirror_state[category]
    return _MISSING
