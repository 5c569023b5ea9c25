"""ctxflow benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload poll-fanout --seed 7 --seconds 30 --trace 0

Run from a checkout of the repository: the program is imported from its
``src`` directory.  Each workload is a closed loop with one client in one
process: a repetition loads, parses and builds the scenario, runs the
simulation and writes the trace, and the next starts when it is done.
Repetitions go on while one more fits in ``--seconds``.  With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` traced and untraced
repetitions alternate and the per-layer metrics are printed.  Timings are
scaled by the speed of the machine, read with a fixed reference loop
during and around every timed phase (see ``Meter``).  The last line of
standard output is one JSON object.  The exit code is 0 only when every
correctness check passed.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
LOGISTICS = SRC / "ctxflow" / "scenarios" / "logistics.json"

sys.path.insert(0, str(HERE))
import probes  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {
    "poll-fanout": workloads.poll_fanout,
    "gate-churn": workloads.gate_churn,
    "logistics-batch": None,  # the bundled scenario file, unchanged
}
MIN_REPS = 3
MIN_PAIRS = 2  # traced runs: untraced and traced repetitions, alternating
SETUP_BURST = 10
LADDER = (100, 400, 1600)
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
# Timings are reported in seconds of a machine on which ``reference()``
# takes this long.  The speed of the shared 2-core machine this benchmark
# was written on swings by up to 60% within seconds, and CPU time swings
# with it.  Scaling each phase by the mean speed read during it cut the
# run-to-run spread of run_s (quartile distance over median, ten seeds)
# from 0.2-0.3 to below 0.1.
REFERENCE_S = 1e-3
# how often a running phase is paused to read the machine speed
PACE_S = 0.1


class BenchmarkError(Exception):
    pass


def load_program():
    """Import the program from the checkout's ``src``."""
    if not (SRC / "ctxflow" / "__init__.py").is_file():
        raise BenchmarkError(f"no ctxflow package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import ctxflow.context_engine
    import ctxflow.rules_engine
    from ctxflow import process_engine, scenario

    return {
        "load": scenario.load_scenario_data,
        "parse": scenario.parse_scenario,
        "build": scenario.build_simulation,
        "terminal": process_engine.TERMINAL,
        "modules": {"context_engine": ctxflow.context_engine,
                    "rules_engine": ctxflow.rules_engine},
    }


def write_scenario(document: dict, name: str) -> Path:
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


# -- machine speed ------------------------------------------------------------


def reference() -> int:
    """Fixed interpreter work, independent of the program: the yardstick.

    Dict updates on tuple keys, small dict and list building and JSON
    encoding: the same kinds of work as the simulation and ``Trace.write``.
    """
    counts = {}
    rows = []
    for i in range(1000):
        key = ("m%d" % (i % 97), i % 13)
        counts[key] = counts.get(key, 0) + i
        rows.append({"seq": i, "kind": "value_updated", "value": [i, i * 2]})
    return len(counts) + len(json.dumps(rows[:300]))


def machine_time() -> float:
    """Seconds one call of ``reference()`` takes now."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class Meter:
    """A clock without pauses, and readings of the machine's speed.

    ``mark()`` takes a reading between two phases.  Inside the block, a
    SIGALRM every ``PACE_S`` pauses whatever runs to take one more; a
    pause, like a mark, is left out of ``now()`` and ``now_ns()``, which
    also time the spans of traced repetitions.  A phase between two marks
    is scaled by the mean of all readings from the first mark to the
    second, so a phase of seconds gets the speed the machine had during
    it, not only at its ends.
    """

    def __init__(self):
        self.readings: list[float] = []
        self._paused_ns = 0
        self._reading = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PACE_S, PACE_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now_ns(self) -> int:
        while True:
            paused = self._paused_ns
            now = time.perf_counter_ns()
            if paused == self._paused_ns:  # else a pause fell in between: read again
                return now - paused

    def now(self) -> float:
        return self.now_ns() / 1e9

    def mark(self) -> int:
        """Take a reading; returns its index.

        The collector is off from the first statement to the last, so a
        reading neither includes a collection nor runs one the program
        would otherwise pay for, and, as an alarm can land inside
        ``Spans.open``, the collector's span callback never runs in here.
        """
        enabled = gc.isenabled()
        gc.disable()
        self._reading = True
        start = time.perf_counter_ns()
        try:
            self.readings.append(machine_time())
            index = len(self.readings) - 1
        finally:
            self._paused_ns += time.perf_counter_ns() - start
            self._reading = False
            if enabled:
                gc.enable()
        return index

    def _on_alarm(self, signum, frame):
        if not self._reading:
            self.mark()

    def factor(self, first: int, last: int) -> float:
        """From seconds of ``now()`` between marks ``first`` and ``last`` to
        reference seconds."""
        return REFERENCE_S / statistics.fmean(self.readings[first:last + 1])


# -- one repetition ---------------------------------------------------------


def setup_once(program, path, clock=time.perf_counter):
    """Load, parse and build; returns the assembly and the phase times."""
    t0 = clock()
    data = program["load"](path)
    t1 = clock()
    scenario, violations = program["parse"](data)
    t2 = clock()
    if violations:
        first = violations[0]
        raise BenchmarkError(f"{path.name}: {len(violations)} violation(s), "
                             f"first {first.code} on {first.subject}")
    assembly = program["build"](scenario)
    t3 = clock()
    return assembly, (t0, t1, t2, t3)


def run_once(program, path, meter: Meter, spans: probes.Spans | None = None) -> dict:
    """One closed-loop repetition; the trace is written, hashed and removed.

    Phase times are in reference seconds, each scaled by the readings
    from the mark before it to the mark after it.
    """
    clock, mark = meter.now, meter.mark
    marks = [mark()]
    assembly, (t0, t1, t2, t3) = setup_once(program, path, clock)
    marks.append(mark())
    sim = assembly.simulation
    t4 = clock()
    if spans is None:
        trace = sim.run()
    else:
        with probes.install(spans, sim, program["modules"]):
            run_span = spans.open(spans.name_id("choreography.run"))
            trace = sim.run()
            spans.close(run_span)
    t5 = clock()
    marks.append(mark())
    trace_path = OUT / "rep.trace"
    t6 = clock()
    trace.write(trace_path)
    t7 = clock()
    marks.append(mark())
    if spans is not None:
        for name, start, end in (("scenario.load", t0, t1), ("scenario.parse", t1, t2),
                                 ("scenario.build", t2, t3), ("trace.write", t6, t7)):
            spans.add(name, start, end)

    digest = hashlib.sha256()
    with open(trace_path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    size = trace_path.stat().st_size
    trace_path.unlink()
    statuses = {i.instance_id: i.status for i in assembly.process.instances.values()}
    setup_scale, run_scale, write_scale = (
        meter.factor(first, last) for first, last in zip(marks, marks[1:]))
    rep = {
        "setup": (t3 - t0) * setup_scale, "parse": (t2 - t1) * setup_scale,
        "build": (t3 - t2) * setup_scale, "run": (t5 - t4) * run_scale,
        "write": (t7 - t6) * write_scale,
        "wall": {"setup": t3 - t0, "run": t5 - t4, "write": t7 - t6},
        "digest": digest.hexdigest(), "bytes": size, "records": len(trace),
        "kinds": Counter(record.kind for record in trace),
        "final_tick": sim.now, "truncated": sim.truncated,
        "statuses": statuses,
        # a truncated run counts every instance as failed
        "terminal": 0 if sim.truncated else sum(
            s in program["terminal"] for s in statuses.values()),
    }
    rep["instances"] = rep["kinds"]["instance_created"]
    if spans is not None:
        rep["layers"] = layer_metrics(rep, spans, trace_counts(trace), run_scale)
    return rep


def trace_counts(trace) -> Counter:
    """Per-layer counts that need more than a record's kind."""
    counts = Counter()
    current = {}  # (model, category) -> payload of the model's current value
    for record in trace:
        kind, payload = record.kind, record.payload
        if kind == "value_updated":
            key = (payload["model"], payload["category"])
            value = payload["value"]["payload"]
            counts["noop_writes"] += key in current and current[key] == value
            current[key] = value
        elif kind == "re_evaluation_triggered":
            counts["re_evaluations"] += len(payload["gates"])
        elif kind == "instance_created" and "parent" in payload:
            counts["compensations"] += 1
    return counts


def layer_metrics(rep: dict, spans: probes.Spans, counts: Counter, run_scale: float) -> dict:
    """Per-layer figures of one traced repetition; span times are scaled
    from wall to reference seconds by the repetition's ``run_scale``."""
    busy, calls, self_time = spans.totals()
    busy = Counter({name: t * run_scale for name, t in busy.items()})
    self_time = Counter({layer: t * run_scale for layer, t in self_time.items()})
    counts = counts + rep["kinds"]
    handlers = spans.handler_names

    def handler_busy(layer):
        return sum(busy[name] for name in handlers if name.startswith(layer + "."))

    def share(part, whole):
        return part / whole if whole else 0.0

    values = rep["kinds"]["value_updated"]
    ingest = busy["context_engine.SourceEvent"] + busy["context_engine.PollResponse"]
    return {
        "context_engine.ingest_s": (ingest, "s"),
        "context_engine.ingest_us_per_value": (share(ingest * 1e6, values), "us"),
        "context_engine.notify_yield": (share(counts["ContextNotification"], values), "ratio"),
        "context_engine.noop_write_ratio": (share(counts["noop_writes"], values), "ratio"),
        "context_engine.read_s": (busy["context_engine.ContextRequest"], "s"),
        "context_engine.lifecycle_s": (
            busy["context_engine.Register"] + busy["context_engine.ShutdownModel"], "s"),
        "context_engine.busy_s": (handler_busy("context_engine"), "s"),
        "context_engine.self_s": (self_time["context_engine"], "s"),
        "context_engine.check_threshold_calls": (
            spans.counts["context_engine.check_threshold"], "count"),
        "context_engine.resolve_conflict_calls": (
            spans.counts["context_engine.resolve_conflict"], "count"),
        "model.relevant_subgraph_s": (busy["model.relevant_subgraph"], "s"),
        "model.relevant_subgraph_calls": (calls["model.relevant_subgraph"], "count"),
        "model.update_value_s": (busy["model.update_value"], "s"),
        "rules_engine.busy_s": (handler_busy("rules_engine"), "s"),
        "rules_engine.self_s": (self_time["rules_engine"], "s"),
        "rules_engine.evaluate_gate_s": (busy["rules_engine.evaluate_gate"], "s"),
        "rules_engine.evaluate_gate_calls": (calls["rules_engine.evaluate_gate"], "count"),
        "rules_engine.reeval_per_notification": (
            share(counts["re_evaluations"], counts["ContextNotification"]), "ratio"),
        "rules_engine.snapshot_drop_ratio": (
            share(counts["snapshot_dropped"], counts["ContextSnapshot"]), "ratio"),
        "rule_dsl.evaluate_condition_calls": (
            spans.counts["rule_dsl.evaluate_condition"], "count"),
        "process_engine.busy_s": (handler_busy("process_engine"), "s"),
        "process_engine.rollbacks": (counts["rollback_applied"], "count"),
        "process_engine.compensations": (counts["compensations"], "count"),
        "sources.busy_s": (handler_busy("sources"), "s"),
        "choreography.self_s": (
            busy["choreography.run"] - sum(busy[name] for name in handlers), "s"),
        "choreography.messages": (
            sum(calls[name] for name in handlers if not name.endswith(".timer")), "count"),
        "choreography.timers": (
            sum(calls[name] for name in handlers if name.endswith(".timer")), "count"),
        "gc.pause_s": (busy["gc.collect"], "s"),
        "trace.records": (rep["records"], "count"),
        "trace.bytes": (rep["bytes"], "bytes"),
        "trace.emit_s": (busy["trace.emit"], "s"),
        "trace.us_per_record": (share(rep["write"] * 1e6, rep["records"]), "us"),
        "scenario.parse_s": (rep["parse"], "s"),
        "scenario.build_s": (rep["build"], "s"),
    }


# -- measurement loops ------------------------------------------------------


def repeat(program, path, meter: Meter, deadline: float, traced: bool):
    """Repetitions until the deadline; traced ones alternate with untraced.

    Once the minimum number of rounds is done, a round is not started when
    a round as long as the last one would end past the deadline.  Untraced
    runs also take bursts of set-up-only rounds, at most one burst a
    second, so that ``setup_s`` is a median of many samples spread over the
    whole run rather than taken in one moment.
    """
    plain, with_spans, setups, last_spans = [], [], [], None
    setup_once(program, path)  # warm-up: first-call costs are not set-up time
    next_burst = time.perf_counter()
    minimum = MIN_PAIRS if traced else MIN_REPS
    while True:
        start = time.perf_counter()
        plain.append(run_once(program, path, meter))
        gc.collect()
        if traced:
            last_spans = probes.Spans(meter.now_ns)
            with_spans.append(run_once(program, path, meter, last_spans))
            gc.collect()
        elif time.perf_counter() >= next_burst:
            setups += setup_burst(program, path, meter)
            next_burst = time.perf_counter() + 1.0
        now = time.perf_counter()
        if len(plain) >= minimum and now + (now - start) > deadline:
            return plain, with_spans, setups, last_spans


def setup_burst(program, path, meter: Meter) -> list[float]:
    """Set-up times in reference seconds of ``SETUP_BURST`` back-to-back
    rounds, each scaled by the readings on either side of it."""
    samples = []
    before = meter.mark()
    for _ in range(SETUP_BURST):
        assembly, (t0, _, _, t3) = setup_once(program, path, meter.now)
        del assembly
        after = meter.mark()
        samples.append((t3 - t0) * meter.factor(before, after))
        before = after
    gc.collect()
    return samples


def ladder(program, seed: int, sizes, meter: Meter) -> dict:
    """``Simulation.run`` time per instance of poll-fanout at each size,
    untraced, in reference microseconds."""
    out = {}
    for n in sizes:
        path = write_scenario(workloads.poll_fanout(seed, n), f"ladder-{seed}-n{n}")
        assembly, _ = setup_once(program, path)
        first = meter.mark()
        start = meter.now()
        assembly.simulation.run()
        elapsed = meter.now() - start
        elapsed *= meter.factor(first, meter.mark())
        if assembly.simulation.truncated:
            raise BenchmarkError(f"ladder rung n={n} truncated")
        out[f"ladder.n{n}.us_per_instance"] = (elapsed / n * 1e6, "us")
        del assembly
        path.unlink()
        gc.collect()
    return out


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least ten samples beyond it, else p50."""
    ordered = sorted(samples)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100 * n)  # nearest-rank
        if n - rank >= 10:
            return percentile, ordered[rank - 1]
    return 50, statistics.median(ordered)


def end_to_end(reps: list[dict], setups: list[float]) -> tuple[dict, float]:
    median = statistics.median
    totals = [r["setup"] + r["run"] + r["write"] for r in reps]
    percentile, tail_s = tail(totals)
    started = sum(r["instances"] for r in reps)
    metrics = {
        "setup_s": (median(setups), "s"),
        "run_s": (median(r["run"] for r in reps), "s"),
        "trace_write_s": (median(r["write"] for r in reps), "s"),
        "instances_per_s": (median(r["instances"] / t for r, t in zip(reps, totals)), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "terminal_ratio": (sum(r["terminal"] for r in reps) / started if started else 0.0,
                           "ratio"),
        "scenario_ms.p50": (median(totals) * 1e3, "ms"),
        "scenario_ms.tail": (tail_s * 1e3, "ms"),
    }
    return metrics, percentile


# -- correctness --------------------------------------------------------------


def check(workload: str, reps: list[dict]) -> list[str]:
    problems = []
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        problems.append(f"{len(digests)} different trace digests over {len(reps)} repetitions")
    if any(r["truncated"] for r in reps):
        problems.append("a run truncated at max_steps")
    first = reps[0]
    if first["terminal"] != first["instances"]:
        problems.append(f"{first['instances'] - first['terminal']} instance(s) not terminal")
    if workload == "logistics-batch":
        statuses = first["statuses"]
        if statuses.get("p1") != "Cancelled" or statuses.get("p1.comp1") != "Completed":
            problems.append(f"golden outcome missing: p1 {statuses.get('p1')}, "
                            f"p1.comp1 {statuses.get('p1.comp1')}")
    if workload == "gate-churn":
        if not first["kinds"]["rollback_applied"]:
            problems.append("no rollback applied")
        if not any(s.endswith(".comp1") for s in first["statuses"]):
            problems.append("no compensation started")
    return problems


def describe(workload: str, seed: int, reps: list[dict], readings: list[float]):
    first = reps[0]
    refs = sorted(readings)
    print(f"workload {workload} seed {seed}: {len(reps)} repetitions")
    print(f"reference loop {statistics.median(refs) * 1e3:.3f} ms median, "
          f"{refs[0] * 1e3:.3f} to {refs[-1] * 1e3:.3f} ms over {len(refs)} readings "
          f"(nominal {REFERENCE_S * 1e3:g} ms)")
    print("wall-clock medians, unscaled: " + ", ".join(
        f"{phase} {statistics.median(r['wall'][phase] for r in reps):.6g} s"
        for phase in ("setup", "run", "write")))
    print(f"trace sha256 {first['digest']} records {first['records']} "
          f"bytes {first['bytes']} final tick {first['final_tick']}")
    print("records by kind " + json.dumps(dict(sorted(first["kinds"].items()))))
    print("instance outcomes " + json.dumps(dict(sorted(
        Counter(first["statuses"].values()).items()))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        program = load_program()
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + args.seconds
    OUT.mkdir(exist_ok=True)
    generator = WORKLOADS[args.workload]
    path = LOGISTICS if generator is None else write_scenario(
        generator(args.seed), f"{args.workload}-{args.seed}")
    try:
        with Meter() as meter:
            # poll-fanout is the ladder's top rung, so its own repetitions give that rung
            own_rung = args.workload == "poll-fanout"
            rungs = {}
            if args.trace:
                rungs = ladder(program, args.seed, LADDER[:-1] if own_rung else LADDER, meter)
            plain, traced, setups, spans = repeat(
                program, path, meter, deadline, bool(args.trace))
        if args.trace and own_rung:
            rungs[f"ladder.n{LADDER[-1]}.us_per_instance"] = (statistics.median(
                r["run"] / r["instances"] for r in plain) * 1e6, "us")
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if path != LOGISTICS:
            path.unlink()

    reps = plain + traced
    problems = check(args.workload, reps)
    describe(args.workload, args.seed, reps, meter.readings)
    if args.trace:
        metrics = {}
        for name in traced[0]["layers"]:
            values = [r["layers"][name][0] for r in traced]
            metrics[name] = (statistics.median(values), traced[0]["layers"][name][1])
        metrics.update(rungs)
        metrics["tracing_overhead"] = (
            statistics.median(r["run"] for r in traced)
            / statistics.median(r["run"] for r in plain), "ratio")
        spans_path = OUT / f"{args.workload}.spans.tsv"
        spans.write(spans_path)
        print(f"{len(traced)} traced repetitions; spans of the last in {spans_path}")
    else:
        metrics, percentile = end_to_end(plain, setups)
        print(f"scenario_ms.tail is p{percentile:g} of {len(plain)} samples")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42} {value:.6g} {unit}")
    attempted = sum(r["instances"] for r in reps)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - sum(r["terminal"] for r in reps),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
