"""Deterministic discrete-event message bus and lifecycle orchestrator.

Four pools (process engine, rules engine, context engine, external
systems) exchange typed messages over FIFO channels.  The loop is a
single-threaded queue ordered by (tick, seq); identical scenario and
seed give byte-identical traces.  The process engine and the context
engine never talk directly: only the rules engine bridges them.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from .errors import ForbiddenRoute
from .sources import ScriptedSource, advance, respond_poll
from .trace import Trace

# the architecture's conversation table: (sender, receiver) -> the kinds
# that channel carries; anything else is rejected.  The process engine and
# the context engine share no channel.
CHANNELS = {
    ("process", "rules"): frozenset({
        "Register", "RuleEvalRequest", "ProcessCompleted", "ProcessCancelled"}),
    ("rules", "process"): frozenset({"Decision", "BreakRollback", "StartCompensation"}),
    ("rules", "context"): frozenset({"Register", "ContextRequest", "ShutdownModel"}),
    ("context", "rules"): frozenset({"ContextSnapshot", "ContextNotification"}),
    ("context", "external"): frozenset({"PollRequest"}),
    ("external", "context"): frozenset({"SourceEvent", "PollResponse"}),
}

DEFAULT_MAX_STEPS = 100_000


@dataclass
class LatencyConfig:
    default: int = 1
    channels: dict = field(default_factory=dict)
    jitter: int = 0

    def for_channel(self, sender: str, receiver: str, rng: random.Random) -> int:
        base = self.channels.get(f"{sender}->{receiver}", self.default)
        if self.jitter > 0:
            base += rng.randint(0, self.jitter)
        return max(1, base)


class SimClock:
    """Logical tick counter; never decreases."""

    def __init__(self):
        self.tick = 0

    def advance_to(self, tick: int):
        if tick < self.tick:
            raise AssertionError(f"clock moved backwards: {self.tick} -> {tick}")
        self.tick = tick


class Simulation:
    """Owns the event queue, the clock, the seeded RNG and the trace."""

    def __init__(self, seed: int = 0, latency: LatencyConfig | None = None,
                 max_steps: int = DEFAULT_MAX_STEPS):
        self.clock = SimClock()
        self.rng = random.Random(seed)
        self.latency = latency or LatencyConfig()
        self.max_steps = max_steps
        self.trace_log = Trace()
        self.handlers = {}   # pool -> handle_message(kind, payload)
        self.timer_handlers = {}  # pool -> handle_timer(payload)
        # entries (tick, seq, pool, kind, payload, sender, sent tick); a timer
        # has no kind, sender or sent tick.  seq is unique, so the heap orders
        # entries by (tick, seq) and never compares past it.
        self._queue: list[tuple] = []
        self._next_seq = 0
        self._messages_in_flight = 0
        self.truncated = False
        self.is_quiescent = lambda: False

    @property
    def now(self) -> int:
        return self.clock.tick

    def register_pool(self, pool: str, handler, timer_handler=None):
        self.handlers[pool] = handler
        if timer_handler is not None:
            self.timer_handlers[pool] = timer_handler

    def route(self, sender: str, receiver: str, kind: str):
        """Reject any kind the channel sender -> receiver does not carry."""
        if kind not in CHANNELS.get((sender, receiver), ()):
            raise ForbiddenRoute(f"{sender} -> {receiver} does not carry {kind!r}")

    def send(self, sender: str, receiver: str, kind: str, payload: dict):
        self.route(sender, receiver, kind)
        seq = self._next_seq
        self._next_seq += 1
        now = self.clock.tick
        deliver = now + self.latency.for_channel(sender, receiver, self.rng)
        heapq.heappush(self._queue, (deliver, seq, receiver, kind, payload, sender, now))
        self._messages_in_flight += 1

    def timer(self, pool: str, payload: dict, at_tick: int):
        seq = self._next_seq
        self._next_seq += 1
        heapq.heappush(self._queue, (max(at_tick, self.clock.tick), seq, pool, None,
                                     payload, None, None))

    def trace(self, pool: str, kind: str, payload: dict):
        self.trace_log.emit(self.clock.tick, pool, kind, payload)

    def run(self) -> Trace:
        steps = 0
        while self._queue:
            if self._messages_in_flight == 0 and self.is_quiescent():
                break  # only idle timers remain; the run is over
            steps += 1
            if steps > self.max_steps:
                self.truncated = True
                self.trace("context", "run_truncated", {"max_steps": self.max_steps})
                break
            tick, seq, pool, kind, payload, sender, sent = heapq.heappop(self._queue)
            self.clock.advance_to(tick)
            if kind is not None:
                self._messages_in_flight -= 1
                self.trace(sender, kind, {
                    "to": pool,
                    "msg_seq": seq,
                    "sent": sent,
                    "data": payload,
                })
                handler = self.handlers.get(pool)
                if handler is not None:
                    handler(kind, payload)
            else:
                handler = self.timer_handlers.get(pool)
                if handler is not None:
                    handler(payload)
        return self.trace_log


class ExternalSystems:
    """Pool of scripted sources answering polls and pushing events."""

    POOL = "external"

    def __init__(self, sim: Simulation, sources: dict[str, ScriptedSource]):
        self.sim = sim
        self.sources = sources

    def schedule_timeline(self):
        for source in self.sources.values():
            ticks = sorted({entry.tick for entry in source.timeline})
            for tick in ticks:
                self.sim.timer(self.POOL, {"source": source.source_id, "at": tick}, tick)

    def handle_timer(self, payload: dict):
        source = self.sources[payload["source"]]
        for event in advance(source, payload["at"]):
            self.sim.send(self.POOL, "context", "SourceEvent", event)

    def handle_message(self, kind: str, payload: dict):
        """Answer a PollRequest, the one kind CHANNELS delivers here."""
        source = self.sources.get(payload["source"])
        if source is None:
            self.sim.trace(self.POOL, "engine_error", {
                "error": "UnknownSource", "detail": payload["source"],
            })
            return
        response = respond_poll(source, payload["categories"], self.sim.now)
        reply = {
            "source": response["source_id"],
            "values": response["values"],
            "absent": response["absent"],
            "purpose": payload.get("purpose", "refresh"),
        }
        for key in ("instance", "model"):
            if key in payload:
                reply[key] = payload[key]
        self.sim.send(self.POOL, "context", "PollResponse", reply)

    def emit_mirror(self, category_id: str, payload):
        """The BPM system acting as an external context source."""
        for source in self.sources.values():
            if category_id in source.descriptor.provided_categories and source.mirrors:
                source.record_mirror(category_id, payload)
                self.sim.send(self.POOL, "context", "SourceEvent", {
                    "source_id": source.source_id,
                    "category_id": category_id,
                    "payload": payload,
                    "ts": self.sim.now,
                })
                return
