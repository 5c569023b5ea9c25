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
# the keys of a delivery record, which is emitted as a row (see trace.py)
DELIVERY = ("data", "msg_seq", "sent", "to")


@dataclass
class LatencyConfig:
    """A scenario's latency: ``channels`` maps ``"sender->receiver"`` to ticks."""

    default: int = 1
    channels: dict = field(default_factory=dict)
    jitter: int = 0


class Bus:
    """What the pools use of a run: the clock, the event queue, the channel table,
    the seeded RNG and the trace.  The pools never hold the ``Simulation`` that
    holds their handlers, so reference counting frees a dropped assembly whole."""

    def __init__(self, seed: int = 0, latency: LatencyConfig | None = None):
        latency = latency or LatencyConfig()
        self.now = 0  # the tick of the entry being handled; never decreases
        self.rng = random.Random(seed)
        self.jitter = latency.jitter
        # (sender, receiver) -> (the kinds that channel carries, its base latency)
        self.channels = {
            pair: (kinds, latency.channels.get("->".join(pair), latency.default))
            for pair, kinds in CHANNELS.items()}
        # (sender, receiver) -> tick of the channel's last delivery, under jitter
        self._last_delivery: dict[tuple[str, str], int] = {}
        self.trace_log = Trace()
        # entries (tick, seq, pool, kind, payload, sender, sent tick); a timer
        # has no kind, sender or sent tick.  seq is unique, so the heap orders
        # entries by (tick, seq) and never compares past it.
        self.queue: list[tuple] = []
        self._next_seq = 0
        self.messages_in_flight = 0

    def route(self, sender: str, receiver: str, kind: str) -> int:
        """The base latency of channel sender -> receiver; reject a kind it does not carry."""
        kinds, base = self.channels.get((sender, receiver), ((), 0))
        if kind not in kinds:
            raise ForbiddenRoute(f"{sender} -> {receiver} does not carry {kind!r}")
        return base

    def send(self, sender: str, receiver: str, kind: str, payload: dict):
        latency = self.route(sender, receiver, kind)
        now = self.now
        if self.jitter > 0:
            # jitter must not reorder a channel: a message goes no earlier
            # than the last one sent on it (same tick: seq keeps send order)
            channel = (sender, receiver)
            at = max(now + max(1, latency + self.rng.randint(0, self.jitter)),
                     self._last_delivery.get(channel, 0))
            self._last_delivery[channel] = at
        else:
            at = now + max(1, latency)
        seq = self._next_seq
        self._next_seq += 1
        heapq.heappush(self.queue, (at, seq, receiver, kind, payload, sender, now))
        self.messages_in_flight += 1

    def timer(self, pool: str, payload: dict, at_tick: int):
        seq = self._next_seq
        self._next_seq += 1
        heapq.heappush(self.queue, (max(at_tick, self.now), seq, pool, None,
                                    payload, None, None))

    def trace(self, pool: str, kind: str, payload: dict | tuple):
        self.trace_log.emit(self.now, pool, kind, payload)


class Simulation:
    """A bus, the handlers of the pools on it, and the loop that delivers its entries."""

    def __init__(self, bus: Bus | None = None, pools=(), max_steps: int = DEFAULT_MAX_STEPS,
                 is_quiescent=lambda: False):
        self.bus = bus = bus or Bus()
        self.trace_log = bus.trace_log
        # pool -> handle_message(kind, payload), and pool -> handle_timer(payload)
        self.handlers = {pool.POOL: pool.handle_message for pool in pools}
        self.timer_handlers = {pool.POOL: pool.handle_timer for pool in pools
                               if hasattr(pool, "handle_timer")}
        self.max_steps = max_steps
        self.is_quiescent = is_quiescent  # true once only idle timers can remain
        self.truncated = False

    @property
    def now(self) -> int:
        return self.bus.now

    def run(self) -> Trace:
        """Deliver queued entries in (tick, seq) order until the run is over;
        returns the trace.

        The collector is off while the run lasts.  When it returns or raises,
        the run's survivors and the host's young objects go straight to the
        oldest generation (``gc.freeze()``, ``gc.unfreeze()``) unless the host
        has frozen objects, and the host's enabled or disabled state is put
        back.  So cyclic garbage the host makes during a run waits for a full
        collection, and only one simulation may run at a time per process.
        A run and its dropped assembly make no cyclic garbage
        (``tests/test_trace_digests.py``), so the collector would find none.
        """
        bus = self.bus
        enabled = gc.isenabled()
        gc.disable()
        try:
            steps = 0
            while bus.queue:
                if bus.messages_in_flight == 0 and self.is_quiescent():
                    break  # only idle timers remain; the run is over
                steps += 1
                if steps > self.max_steps:
                    self.truncated = True
                    bus.trace("context", "run_truncated", {"max_steps": self.max_steps})
                    break
                tick, seq, pool, kind, payload, sender, sent = heapq.heappop(bus.queue)
                if tick < bus.now:
                    raise AssertionError(f"clock moved backwards: {bus.now} -> {tick}")
                bus.now = tick
                if kind is not None:
                    bus.messages_in_flight -= 1
                    bus.trace(sender, kind, (DELIVERY, payload, seq, sent, pool))
                    handler = self.handlers.get(pool)
                    if handler is not None:
                        handler(kind, payload)
                else:
                    handler = self.timer_handlers.get(pool)
                    if handler is not None:
                        handler(payload)
            return bus.trace_log
        finally:
            if not gc.get_freeze_count():  # unfreeze would release the host's
                gc.freeze()
                gc.unfreeze()
            if enabled:
                gc.enable()
