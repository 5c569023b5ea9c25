"""Spans for the traced run, recorded from outside the program.

A span has a name, a start, an end, a parent span and, for pool-handler
spans, the ``seq`` of the trace record that delivered the message.  Spans
are kept in memory in flat arrays and written out when the run ends.
Times come from the clock the store is given, in nanoseconds.
``install`` wraps the program's public seams for one simulation: the pool
handlers in ``Simulation.handlers``/``timer_handlers``, the trace's
``emit``, and the module-level functions the engines call.  Pauses of
the interpreter's cyclic garbage collector are spans too.  Nothing is
written into the program's trace.

A span name is ``<layer>.<what>``; the layer is the module that does the
work, so a layer's self time is the sum over its spans of their duration
minus the part covered by their direct children.
"""

from __future__ import annotations

import contextlib
import gc
from array import array
from collections import Counter

# pool -> module that handles it
POOL_LAYER = {
    "context": "context_engine",
    "rules": "rules_engine",
    "process": "process_engine",
    "external": "sources",
}

# (module, function, span name): timed calls the engines make
TIMED_FUNCTIONS = (
    ("context_engine", "update_value", "model.update_value"),
    ("context_engine", "relevant_subgraph", "model.relevant_subgraph"),
    ("rules_engine", "evaluate_gate", "rules_engine.evaluate_gate"),
)

# (module, function, counter name): calls only counted; there are too many
# and they are too short to time without distorting their callers
COUNTED_FUNCTIONS = (
    ("context_engine", "check_threshold", "context_engine.check_threshold"),
    ("context_engine", "resolve_conflict", "context_engine.resolve_conflict"),
    ("rules_engine", "evaluate_condition", "rule_dsl.evaluate_condition"),
)

NO_SEQ = -1


class Spans:
    """In-memory span store; span ids are indexes into the arrays."""

    def __init__(self, clock_ns):
        self.clock_ns = clock_ns
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.seq = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self.handler_names: set[str] = set()
        self._open = [-1]

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def open(self, name_id: int, seq: int = NO_SEQ) -> int:
        span = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._open[-1])
        self.seq.append(seq)
        self.end.append(0)
        self._open.append(span)
        self.start.append(self.clock_ns())
        return span

    def close(self, span: int):
        self.end[span] = self.clock_ns()
        self._open.pop()

    def add(self, name: str, start_s: float, end_s: float):
        """A top-level span for a phase timed by the caller."""
        self.name.append(self.name_id(name))
        self.parent.append(-1)
        self.seq.append(NO_SEQ)
        self.start.append(int(start_s * 1e9))
        self.end.append(int(end_s * 1e9))

    def wrap(self, name: str, fn):
        name_id = self.name_id(name)

        def timed(*args, **kwargs):
            span = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return timed

    def counted(self, name: str, fn):
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counting

    # -- derived figures ---------------------------------------------------

    def __len__(self):
        return len(self.name)

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: summed duration (s), call count; per layer: self time (s)."""
        duration = [e - s for s, e in zip(self.start, self.end)]
        covered = [0] * len(duration)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += duration[span]
        busy, calls, self_time = Counter(), Counter(), Counter()
        for span, name_id in enumerate(self.name):
            name = self.names[name_id]
            busy[name] += duration[span] / 1e9
            calls[name] += 1
            self_time[name.split(".", 1)[0]] += (duration[span] - covered[span]) / 1e9
        return busy, calls, self_time

    def write(self, path):
        """One span per line: id, parent, name, start and end (ns), seq."""
        origin = min(self.start) if len(self) else 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart_ns\tend_ns\tseq\n")
            for span in range(len(self)):
                handle.write(
                    f"{span}\t{self.parent[span]}\t{self.names[self.name[span]]}\t"
                    f"{self.start[span] - origin}\t{self.end[span] - origin}\t"
                    f"{self.seq[span]}\n")


def _handler_probe(spans: Spans, pool: str, handler, records: list):
    layer = POOL_LAYER[pool]
    name_ids: dict[str, int] = {}

    def probe(kind, payload):
        name_id = name_ids.get(kind)
        if name_id is None:
            name = f"{layer}.{kind}"
            spans.handler_names.add(name)
            name_id = name_ids[kind] = spans.name_id(name)
        # the loop emits the delivery record just before calling the handler
        span = spans.open(name_id, len(records) - 1)
        try:
            handler(kind, payload)
        finally:
            spans.close(span)
    return probe


def _timer_probe(spans: Spans, pool: str, handler):
    name = f"{POOL_LAYER[pool]}.timer"
    spans.handler_names.add(name)
    name_id = spans.name_id(name)

    def probe(payload):
        span = spans.open(name_id)
        try:
            handler(payload)
        finally:
            spans.close(span)
    return probe


@contextlib.contextmanager
def install(spans: Spans, simulation, modules: dict):
    """Wrap one simulation's seams for the duration of the block.

    ``modules`` maps a module's short name to the imported module whose
    functions are patched; the originals are restored on exit.
    """
    sim = simulation
    for pool, handler in list(sim.handlers.items()):
        sim.handlers[pool] = _handler_probe(spans, pool, handler, sim.trace_log.records)
    for pool, handler in list(sim.timer_handlers.items()):
        sim.timer_handlers[pool] = _timer_probe(spans, pool, handler)
    sim.trace_log.emit = spans.wrap("trace.emit", sim.trace_log.emit)
    saved = []
    for module, function, name in TIMED_FUNCTIONS + COUNTED_FUNCTIONS:
        target = modules[module]
        original = getattr(target, function)
        saved.append((target, function, original))
        wrap = spans.wrap if (module, function, name) in TIMED_FUNCTIONS else spans.counted
        setattr(target, function, wrap(name, original))
    collect = spans.name_id("gc.collect")
    collecting = []

    def on_gc(phase, info):
        # a pause is a child of whatever span it interrupts, so self times exclude it
        if phase == "start":
            collecting.append(spans.open(collect))
        elif collecting:
            spans.close(collecting.pop())

    gc.callbacks.append(on_gc)
    try:
        yield spans
    finally:
        gc.callbacks.remove(on_gc)
        for target, function, original in saved:
            setattr(target, function, original)
