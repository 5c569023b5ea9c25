"""Trace digests: the sha256 of the full trace text of a pinned corpus.

A change that keeps these digests keeps every trace byte of the corpus.
A change that alters trace bytes on purpose re-pins ``trace_digests.json``
by hand, from the digests this test prints.
"""

import gc
import hashlib
import json
import random
from pathlib import Path

import pytest

from ctxflow.scenario import build_simulation, parse_scenario

from .conftest import logistics_scenario_data
from .scenario_gen import random_scenario
from .test_integration_flows import shared_scenario, shared_thunderstorm_scenario

PINNED = json.loads((Path(__file__).parent / "trace_digests.json").read_text())


def ladder_rung(n_instances):
    data = random_scenario(random.Random(7), n_leaves=6, n_instances=n_instances)
    data["limits"]["max_steps"] = 5_000_000
    return data


def propagation_scenario():
    """The logistics scenario with one propagation node of every kind.

    A push sensor reports a numeric level and a text status; relations and
    agents derive from them: lookup hits and misses with and without a
    default, linear, ``100 / x`` at ``x = 0``, a filter that passes and
    fails, translate hits and defaults, each aggregate reducer, and a
    compose, over inputs of unequal reliability, whose record a split fans
    back out.
    """
    data = logistics_scenario_data()
    kinds = {"level": "numeric", "status": "text", "ranked": "numeric",
             "rankedOrNone": "numeric", "scaled": "numeric", "inverse": "numeric",
             "spike": "numeric", "statusCode": "numeric", "reading": "record",
             "splitLevel": "numeric", "splitStatus": "text",
             **{f"level{name.title()}": "numeric" for name in REDUCER_NAMES}}
    data["catalog"] += [{"id": cat, "kind": kind, "parent": "processObject",
                         "requires_value": False} for cat, kind in kinds.items()]
    data["masters"][0]["categories"] += list(kinds)
    data["sources"].append({
        "id": "sensor", "mode": "push", "reliability": 0.7, "provides": ["level", "status"],
        "timeline": [[2, "level", 5], [3, "status", "ok"], [5, "level", 0],
                     [6, "status", "odd"], [8, "level", 12], [9, "status", "fault"],
                     [11, "level", 3], [12, "status", "ok"]],
    })
    data["cause_effects"] += [
        {"id": "rank", "cause": "status", "effect": "ranked",
         "function": {"type": "lookup", "table": {"ok": 10, "fault": 30}, "default": 20}},
        {"id": "rankOrNone", "cause": "status", "effect": "rankedOrNone",
         "function": {"type": "lookup", "table": {"ok": 10}}},
        {"id": "scale", "cause": "level", "effect": "scaled",
         "function": {"type": "linear", "a": 3, "b": -1}},
        {"id": "invert", "cause": "level", "effect": "inverse",
         "function": {"type": "expr", "expr": "100 / x"}},
    ]
    data["agents"] = [
        {"id": "spikes", "kind": "filter", "inputs": ["level"], "output": "spike",
         "spec": {"op": ">", "value": 4}},
        {"id": "code", "kind": "translate", "inputs": ["status"], "output": "statusCode",
         "spec": {"map": {"ok": 0, "fault": 2}, "default": 1}},
        *({"id": f"window-{name}", "kind": "aggregate", "inputs": ["level"],
           "output": f"level{name.title()}", "spec": {"window": 3, "reducer": name}}
          for name in REDUCER_NAMES),
        {"id": "pair", "kind": "compose", "inputs": ["level", "status", "weather"],
         "output": "reading"},
        {"id": "unpair", "kind": "split", "inputs": ["reading"],
         "outputs": ["splitLevel", "splitStatus"],
         "spec": {"fan_out": {"level": "splitLevel", "status": "splitStatus"}}},
    ]
    data["thresholds"]["spare_part_delivery"] += [
        {"category": "levelMean", "kind": "numeric-delta", "theta": 1},
        {"category": "reading", "kind": "any-change"},
    ]
    return data


REDUCER_NAMES = ("min", "max", "mean", "count", "last")

SCENARIOS = {
    "logistics": logistics_scenario_data,
    "propagation": propagation_scenario,
    "shared": shared_scenario,
    "shared-thunderstorm": shared_thunderstorm_scenario,
    **{
        f"random-s{seed}-j{jitter}":
            (lambda seed=seed, jitter=jitter:
             random_scenario(random.Random(seed), jitter=jitter))
        for seed in range(10)
        for jitter in (0, 2)
    },
    "ladder-n100": lambda: ladder_rung(100),
}


def trace_digest(data) -> str:
    scenario, violations = parse_scenario(data)
    assert not violations, violations[:3]
    trace = build_simulation(scenario).simulation.run()
    return hashlib.sha256(trace.to_text().encode("utf-8")).hexdigest()


def test_every_scenario_is_pinned():
    assert sorted(PINNED) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_digest(name):
    digest = trace_digest(SCENARIOS[name]())
    assert digest == PINNED.get(name), (
        f"trace of scenario {name!r} changed: pinned {PINNED.get(name)}, got {digest}"
    )


# records share payload dicts: a context value's dict rides in every record,
# notification and snapshot that carries it
SHARED_PAYLOADS = ["logistics", "shared", "shared-thunderstorm",
                   *(f"random-s{seed}-j0" for seed in range(10))]


@pytest.mark.parametrize("name", SHARED_PAYLOADS)
def test_no_record_changes_after_it_is_emitted(name):
    scenario, violations = parse_scenario(SCENARIOS[name]())
    assert not violations, violations[:3]
    sim = build_simulation(scenario).simulation
    emitted = []
    emit = sim.trace_log.emit

    def emit_and_keep_line(*args):
        record = emit(*args)
        emitted.append(record.to_line() + "\n")
        return record

    sim.trace_log.emit = emit_and_keep_line
    assert list(sim.run().lines()) == emitted


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_leaves_no_cyclic_garbage(name):
    # Simulation.run collects its young generation less often on this
    # premise: everything a run drops is freed by reference counting
    scenario, violations = parse_scenario(SCENARIOS[name]())
    assert not violations, violations[:3]
    sim = build_simulation(scenario).simulation
    gc.collect()
    gc.disable()
    try:
        sim.run()
        assert gc.collect() == 0
    finally:
        gc.enable()
