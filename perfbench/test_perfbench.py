"""Tests of the benchmark's own pieces.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import time
from collections import Counter

import pytest

import probes
import run
import workloads
from ctxflow import build_simulation, parse_scenario


def _run(document):
    scenario, violations = parse_scenario(document)
    assert violations == []
    assembly = build_simulation(scenario)
    trace = assembly.simulation.run()
    return assembly, trace


def test_poll_fanout_seed_7_is_the_ladder_rung():
    assembly, trace = _run(workloads.poll_fanout(7, 1600))
    kinds = Counter(record.kind for record in trace)
    assert not assembly.simulation.truncated
    assert len(trace) == 291_701
    assert kinds["value_updated"] == 230_806
    assert Counter(i.status for i in assembly.process.instances.values()) == {
        "Completed": 1600}


def test_poll_fanout_seed_changes_values_not_shape():
    def shape(document):
        poll, push = document["sources"]
        return (poll["interval"], [len(steps) for steps in poll["poll"].values()],
                len(push["timeline"]), document["process_models"])

    a, b = workloads.poll_fanout(7, 50), workloads.poll_fanout(8, 50)
    assert a != b
    assert shape(a) == shape(b)


@pytest.mark.parametrize("seed", [1, 2])
def test_gate_churn_rolls_back_and_compensates(seed):
    assembly, trace = _run(workloads.gate_churn(seed))
    kinds = Counter(record.kind for record in trace)
    assert not assembly.simulation.truncated
    assert kinds["rollback_applied"] > 0
    assert any(r.payload.get("parent") for r in trace.find("instance_created"))
    assert all(i.status in ("Completed", "Cancelled")
               for i in assembly.process.instances.values())


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0, 2.0, 3.0]) == (50, 2.0)
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90, 90.0)
    assert run.tail(samples * 10) == (99, 99.0)


def test_spans_self_time_excludes_children():
    spans = probes.Spans(time.perf_counter_ns)
    outer = spans.open(spans.name_id("rules_engine.ContextSnapshot"), 5)
    inner = spans.open(spans.name_id("model.relevant_subgraph"))
    spans.close(inner)
    spans.close(outer)
    spans.start[outer], spans.end[outer] = 0, 10_000
    spans.start[inner], spans.end[inner] = 2_000, 6_000
    busy, calls, self_time = spans.totals()
    assert spans.parent[inner] == outer and spans.seq[outer] == 5
    assert busy["rules_engine.ContextSnapshot"] == pytest.approx(1e-5)
    assert self_time == {"rules_engine": pytest.approx(6e-6),
                         "model": pytest.approx(4e-6)}


def test_install_keeps_the_trace_and_restores_the_program():
    document = json.loads(run.LOGISTICS.read_text())
    _, plain = _run(document)
    program = run.load_program()
    modules = program["modules"]
    seams = probes.TIMED_FUNCTIONS + probes.COUNTED_FUNCTIONS
    before = [getattr(modules[module], function) for module, function, _ in seams]
    assembly = build_simulation(parse_scenario(document)[0])
    spans = probes.Spans(time.perf_counter_ns)
    with probes.install(spans, assembly.simulation, modules):
        traced = assembly.simulation.run()
    assert traced.to_text() == plain.to_text()
    assert spans.counts["rule_dsl.evaluate_condition"] > 0
    assert [getattr(modules[module], function) for module, function, _ in seams] == before


def test_truncated_run_counts_every_instance_failed(tmp_path):
    document = json.loads(run.LOGISTICS.read_text())
    document.setdefault("limits", {})["max_steps"] = 20
    path = tmp_path / "short.json"
    path.write_text(json.dumps(document))
    run.OUT.mkdir(exist_ok=True)
    rep = run.run_once(run.load_program(), path, run.Meter())
    assert rep["truncated"] and rep["instances"] > 0
    assert rep["terminal"] == 0
    assert "a run truncated at max_steps" in run.check("logistics-batch", [rep])


def test_meter_clock_leaves_out_readings():
    meter = run.Meter()
    start = meter.now_ns()
    first = meter.mark()
    second = meter.mark()
    assert meter.now_ns() - start < min(meter.readings) * 1e9
    assert (first, second) == (0, 1)
    assert meter.factor(first, second) == pytest.approx(
        2 * run.REFERENCE_S / (meter.readings[0] + meter.readings[1]))
