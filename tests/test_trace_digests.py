"""Trace digests: the sha256 of the full trace text of a pinned corpus.

A change that keeps these digests keeps every trace byte of the corpus.
A change that alters trace bytes on purpose re-pins ``trace_digests.json``
by hand, from the digests this test prints.
"""

import gc
import hashlib
import json
import random
import weakref
from pathlib import Path

import pytest

from ctxflow.scenario import build_simulation, parse_scenario

from .conftest import logistics_scenario_data
from .scenario_gen import random_scenario
from .test_integration_flows import (
    shared_fetch_scenario,
    shared_scenario,
    shared_thunderstorm_scenario,
)

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


def engine_paths_scenario():
    """Engine paths the other pinned scenarios never run.

    ``main`` runs a zero-duration task and then ``handover`` inline, whose
    gates carry the rules: one skipped on a stale value, one skipped on a
    category no source provides (``admin_no_source``), and one reading a
    category that extends the model at request time and is fetched from a
    push source's schedule.  A second instance's principal is denied, and a
    third waits on a category its source never answers until
    ``init_timeout``.  No source is polled on a timer, so a run that leaves
    an instance hanging ends with it not terminal.
    """
    def task(name, duration=1):
        return {"type": "task", "name": name, "duration": duration}
    return {
        "seed": 3,
        "limits": {"poll_budget": 2},
        "auth": {"deny": ["mallory"]},
        "catalog": [
            {"id": "root", "requires_value": False},
            *({"id": cat, "parent": "root"} for cat in ("stage", "dock", "seal", "ghost")),
        ],
        "masters": [{"model_id": "desk", "categories": ["root", "stage"]},
                    {"model_id": "attic", "categories": ["root", "ghost"]}],
        "sources": [
            {"id": "clerk", "provides": ["stage"], "poll": {"stage": [[0, "open"]]}},
            {"id": "yard", "provides": ["dock"], "poll": {"dock": [[0, "north"]]}},
            {"id": "flaky", "reliability": 0.5, "provides": ["ghost"]},
        ],
        "rules": [
            {"text": 'RULE Fresh Stage\nWHEN stage == "open"\n'
                     "THEN selectVariant(signoff, careful)\nEND",
             "required_freshness": {"stage": 0}},
            'RULE Sealed\nWHEN seal == "yes"\nTHEN selectVariant(signoff, careful)\nEND',
            'RULE Docked\nWHEN dock == "north"\nTHEN selectVariant(route, north)\nEND',
        ],
        "process_models": [
            {"model_id": "main", "context_master": "desk", "nodes": [
                {"type": "start"}, task("stamp", 0),
                {"type": "subprocess", "model": "handover"}, task("file"),
                {"type": "end"}]},
            {"model_id": "handover", "nodes": [
                {"type": "start"},
                {"type": "gate", "id": "signoff", "default": "quick",
                 "rules": ["Fresh Stage", "Sealed"],
                 "variants": {"quick": [task("sign")],
                              "careful": [task("check", 2)]}},
                {"type": "gate", "id": "route", "default": "south", "rules": ["Docked"],
                 "variants": {"north": [task("haul")],
                              "south": [task("haul", 3)]}},
                {"type": "end"}]},
            {"model_id": "attic_run", "context_master": "attic", "nodes": [
                {"type": "start"}, task("climb"), {"type": "end"}]},
        ],
        "instances": [
            {"id": "i1", "model": "main", "principal": "dispatcher"},
            {"id": "i2", "model": "main", "principal": "mallory", "start_tick": 1},
            {"id": "i3", "model": "attic_run", "principal": "dispatcher", "start_tick": 2},
        ],
    }


def rollback_to_gate_scenario():
    """The logistics scenario whose ``Delivery SLA`` rolls back to ``packaging``.

    The re-evaluated shipping gate fires the rule in transit: the process
    pool undoes the tasks run since the ``packaging`` checkpoint, keeps the
    two checkpoints up to it, and resumes there.
    """
    data = logistics_scenario_data()
    data["rules"] = [rule.replace("start process.compensation.deliveryVariant",
                                  "rollback(packaging)")
                     if rule.startswith("RULE Delivery SLA\n") else rule
                     for rule in data["rules"]]
    return data


SCENARIOS = {
    "logistics": logistics_scenario_data,
    "rollback-to-gate": rollback_to_gate_scenario,
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
    "engine-paths": engine_paths_scenario,
    "shared-fetch": shared_fetch_scenario,
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
SHARED_PAYLOADS = ["logistics", "shared", "shared-thunderstorm", "engine-paths",
                   *(f"random-s{seed}-j0" for seed in range(10))]


@pytest.mark.parametrize("name", SHARED_PAYLOADS)
def test_no_record_changes_after_it_is_emitted(name):
    scenario, violations = parse_scenario(SCENARIOS[name]())
    assert not violations, violations[:3]
    sim = build_simulation(scenario).simulation
    emitted = []
    emit = sim.trace_log.emit

    def emit_and_keep_line(*args):
        emit(*args)
        emitted.append(sim.trace_log.records[-1].to_line() + "\n")

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


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_dropped_run_leaves_no_cyclic_garbage(name):
    # the record view holds the trace's columns, not the trace: a dropped
    # trace is freed by reference counting while its view lives on.  The
    # assembly is kept: its pools and the simulation refer to each other.
    scenario, violations = parse_scenario(SCENARIOS[name]())
    assert not violations, violations[:3]
    sim = build_simulation(scenario).simulation
    gc.collect()
    gc.disable()
    try:
        trace = sim.run()
        records, count = trace.records, len(trace)
        dropped = weakref.ref(trace)
        del trace
        sim.trace_log = None
        assert dropped() is None
        assert gc.collect() == 0
        assert len(records) == count and records[-1].seq == count - 1
    finally:
        gc.enable()
