"""Deterministic discrete-event message bus and lifecycle orchestrator.

Four pools (process engine, rules engine, context engine, external
systems) exchange typed messages over FIFO channels.  The loop is a
single-threaded queue ordered by (tick, seq); identical scenario and
seed give byte-identical traces.  The process engine and the context
engine never talk directly: only the rules engine bridges them.
"""

from __future__ import annotations

import gc
import heapq
import random
from dataclasses import dataclass, field

from .errors import ForbiddenRoute
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

# the young-generation collection threshold while a run lasts: a run keeps
# every trace record alive and makes no cyclic garbage, so the collector's
# full passes over those records would find nothing
YOUNG_GC_THRESHOLD = 10_000


@dataclass
class LatencyConfig:
    """A scenario's latency: ``channels`` maps ``"sender->receiver"`` to ticks."""

    default: int = 1
    channels: dict = field(default_factory=dict)
    jitter: int = 0


class Simulation:
    """Owns the event queue, the clock, the channel table, the seeded RNG and the trace."""

    def __init__(self, seed: int = 0, latency: LatencyConfig | None = None,
                 max_steps: int = DEFAULT_MAX_STEPS):
        latency = latency or LatencyConfig()
        self.now = 0  # the tick of the entry being handled; never decreases
        self.rng = random.Random(seed)
        self.jitter = latency.jitter
        # (sender, receiver) -> (the kinds that channel carries, its base latency)
        self.channels = {
            pair: (kinds, latency.channels.get("->".join(pair), latency.default))
            for pair, kinds in CHANNELS.items()}
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

    def register_pool(self, pool: str, handler, timer_handler=None):
        self.handlers[pool] = handler
        if timer_handler is not None:
            self.timer_handlers[pool] = timer_handler

    def route(self, sender: str, receiver: str, kind: str) -> int:
        """The base latency of channel sender -> receiver; reject a kind it does not carry."""
        kinds, base = self.channels.get((sender, receiver), ((), 0))
        if kind not in kinds:
            raise ForbiddenRoute(f"{sender} -> {receiver} does not carry {kind!r}")
        return base

    def send(self, sender: str, receiver: str, kind: str, payload: dict):
        latency = self.route(sender, receiver, kind)
        if self.jitter > 0:
            latency += self.rng.randint(0, self.jitter)
        seq = self._next_seq
        self._next_seq += 1
        now = self.now
        heapq.heappush(self._queue, (now + max(1, latency), seq, receiver, kind, payload,
                                     sender, now))
        self._messages_in_flight += 1

    def timer(self, pool: str, payload: dict, at_tick: int):
        seq = self._next_seq
        self._next_seq += 1
        heapq.heappush(self._queue, (max(at_tick, self.now), seq, pool, None,
                                     payload, None, None))

    def trace(self, pool: str, kind: str, payload: dict):
        self.trace_log.emit(self.now, pool, kind, payload)

    def run(self) -> Trace:
        """Deliver queued entries in (tick, seq) order until the run is over;
        returns the trace.

        While it runs, the interpreter's young-generation collection
        threshold is raised to at least ``YOUNG_GC_THRESHOLD`` (unless the
        host set it to 0, turning automatic collection off), and the saved
        thresholds are restored when it returns or raises.  The thresholds
        are process-wide, so two simulations must not run at once in
        threads of one process.  Collecting less often is safe because a
        run leaves no cyclic garbage, which
        ``tests/test_trace_digests.py::test_run_leaves_no_cyclic_garbage``
        checks on every pinned scenario.
        """
        thresholds = gc.get_threshold()
        if thresholds[0]:
            gc.set_threshold(max(thresholds[0], YOUNG_GC_THRESHOLD), *thresholds[1:])
        try:
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
                if tick < self.now:
                    raise AssertionError(f"clock moved backwards: {self.now} -> {tick}")
                self.now = tick
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
        finally:
            gc.set_threshold(*thresholds)
