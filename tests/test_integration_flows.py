"""Cross-engine flows that only show up in full simulation runs."""

import copy

import pytest

from ctxflow.errors import StaleContext
from ctxflow.rule_dsl import parse_rule
from ctxflow.rules_engine import evaluate_gate, gate_plan
from ctxflow.scenario import build_simulation, parse_scenario
from ctxflow.trace import canonical_json

from .conftest import logistics_scenario_data


def run(data):
    scenario, violations = parse_scenario(data)
    assert not violations, violations[:3]
    assembly = build_simulation(scenario)
    trace = assembly.simulation.run()
    return assembly, trace


# --- initialization ---------------------------------------------------------------


def ghost_scenario(budget):
    return {
        "seed": 1,
        "limits": {"max_steps": 20000, "poll_budget": budget},
        "catalog": [
            {"id": "root", "kind": "text", "requires_value": False},
            {"id": "ghost", "kind": "text", "parent": "root"},
        ],
        "masters": [{"model_id": "m", "categories": ["root", "ghost"]}],
        "sources": [{
            # claims the category but never actually supplies a value
            "id": "flaky", "mode": "poll", "interval": 2, "reliability": 0.5,
            "provides": ["ghost"], "poll": {},
        }],
        "rules": [],
        "process_models": [{
            "model_id": "flow", "context_master": "m",
            "nodes": [{"type": "start"},
                      {"type": "task", "name": "t", "duration": 1},
                      {"type": "end"}],
        }],
        "thresholds": {},
        "instances": [{"id": "p1", "model": "flow", "principal": "op",
                       "start_tick": 0}],
    }


def test_unsatisfiable_requirement_times_out_after_budget_rounds():
    budget = 5
    assembly, trace = run(ghost_scenario(budget))
    timeouts = trace.find("init_timeout")
    assert len(timeouts) == 1
    assert timeouts[0].payload["rounds"] == budget
    init_polls = [
        r for r in trace
        if r.kind == "PollRequest" and r.payload["data"].get("purpose") == "init"
    ]
    assert len(init_polls) == budget  # one volley per round, counted in the trace
    assert assembly.process.instances["p1"].status == "Cancelled"


def test_initialization_polls_until_requirements_met():
    assembly, trace = run(logistics_scenario_data())
    snapshots = [
        r for r in trace
        if r.kind == "ContextSnapshot" and r.payload["data"].get("phase") == "init"
        and r.payload["data"].get("instance") == "p1"
    ]
    assert snapshots and snapshots[0].payload["data"]["status"] == "ok"
    graph = snapshots[0].payload["data"]["graph"]
    for category, value in graph["values"].items():
        assert value["payload"] is not None
    # derived categories were filled by propagation during initialization
    assert graph["values"]["estimatedDeliveryTime"]["payload"] == 40
    assert graph["values"]["estimatedSLAFine"]["payload"] == 0


# --- timing sanity ------------------------------------------------------------------


def calm_weather(data):
    """Remove the hazard from both the push timeline and the poll schedule."""
    for source in data["sources"]:
        source.pop("timeline", None)
        if "weather" in source.get("poll", {}):
            source["poll"]["weather"] = [[0, "clear"]]
    return data


def test_unperturbed_run_completes_within_constraint():
    data = calm_weather(logistics_scenario_data())
    assembly, trace = run(data)
    instance = assembly.process.instances["p1"]
    assert instance.status == "Completed"
    completed = trace.find("ProcessCompleted")[-1].payload["data"]
    assert completed["tick"] <= completed["started"] + completed["constraint"]
    # no adaptation machinery should have fired
    assert not trace.find("BreakRollback")
    assert not trace.find("StartCompensation")
    assert len(assembly.process.instances) == 1


# --- shared instance models -----------------------------------------------------------


def shared_scenario():
    data = calm_weather(copy.deepcopy(logistics_scenario_data()))
    data["instances"] = [
        {"id": "t1", "model": "spare_part_delivery", "principal": "op",
         "start_tick": 0},
        {"id": "t2", "model": "spare_part_delivery", "principal": "op",
         "start_tick": 8, "share_with": "t1"},
    ]
    return data


def shared_thunderstorm_scenario():
    data = shared_scenario()
    data["sources"][0]["timeline"] = [[30, "weather", "thunderstorm, road washed out"]]
    data["sources"][0]["poll"]["weather"] = [
        [0, "clear"], [30, "thunderstorm, road washed out"]]
    return data


def test_shared_model_notifies_every_bound_instance():
    assembly, trace = run(shared_thunderstorm_scenario())
    shared = trace.find("model_shared")
    assert shared and shared[0].payload["bound"] == ["t1", "t2"]
    notified = [
        r.payload["data"]["instance"]
        for r in trace
        if r.kind == "ContextNotification"
        and any(c["category"] == "weather"
                for c in r.payload["data"]["changes"])
    ]
    assert notified == ["t1", "t2"]
    # one congestion-style change rolled back every impacted delivery
    rolled = {r.payload["data"]["instance"] for r in trace
              if r.kind == "BreakRollback"}
    assert rolled == {"t1", "t2"}
    # the shared model closed exactly once, after its last instance left
    shared_closures = [r for r in trace.find("model_closed")
                       if r.payload["model"] == "ctx.t1"]
    assert len(shared_closures) == 1


def test_shared_model_survives_first_shutdown():
    assembly, trace = run(shared_scenario())
    closed = trace.find("model_closed")
    assert [r.payload["model"] for r in closed] == ["ctx.t1"]
    statuses = {i.instance_id: i.status
                for i in assembly.process.instances.values()}
    assert statuses == {"t1": "Completed", "t2": "Completed"}


# --- compensation context copy -----------------------------------------------------------


def test_compensation_context_equals_parent_at_spawn():
    assembly, trace = run(logistics_scenario_data())
    spawn = trace.find("model_instantiated", copy_of="ctx.p1")[0]
    parent_end = trace.find("model_closed", model="ctx.p1")[0].payload["end"]
    child_start = next(
        r.payload["data"]["graph"] for r in trace
        if r.kind == "ContextSnapshot" and r.payload["data"].get("phase") == "init"
        and r.payload["data"].get("instance") == "p1.comp1"
    )
    assert canonical_json({**parent_end, "step": None}) == \
        canonical_json({**child_start, "step": None})
    assert spawn.payload["instance"] == "p1.comp1"


# --- freshness metadata ---------------------------------------------------------------------


def test_required_freshness_flows_from_scenario():
    data = logistics_scenario_data()
    data["rules"][1] = {
        "text": data["rules"][1],
        "required_freshness": {"estimatedDeliveryTime": 1},
    }
    scenario, violations = parse_scenario(data)
    assert not violations
    rule = scenario.rules["Ground Preferred"]
    assert rule.required_freshness == {"estimatedDeliveryTime": 1}
    assembly = build_simulation(scenario)
    trace = assembly.simulation.run()
    skipped = [r for r in trace.find("rule_skipped")
               if r.payload["rule"] == "Ground Preferred"]
    # the eta snapshot is always at least a hop old, so the bound trips
    assert skipped and skipped[0].payload["reason"] == "stale"
    # stale context cannot pick ground transport; the default (plane) runs
    decided = trace.find("gate_evaluated")[0].payload
    assert decided["decision"]["variant"] == "plane"


def test_freshness_bound_on_an_uncatalogued_category_is_a_violation():
    data = logistics_scenario_data()
    data["rules"][1] = {"text": data["rules"][1], "required_freshness": {"nosuch": 3}}
    _, violations = parse_scenario(data)
    assert [(v.code, v.subject, v.detail) for v in violations] == [
        ("rule-unknown-category", "Ground Preferred", "'nosuch' not in catalog")]


def test_all_rules_stale_without_default_is_an_error():
    rule = parse_rule("RULE R WHEN x < 5 THEN selectVariant(g, a) END")
    stale_rule = rule.__class__(
        rule_id=rule.rule_id, name=rule.name, condition=rule.condition,
        action=rule.action, referenced_categories=rule.referenced_categories,
        required_freshness={"x": 1},
    )
    with pytest.raises(StaleContext):
        evaluate_gate(gate_plan("g", [stale_rule], None), {"x": (3, 0)}, now=10)


# --- predefined categories (first-level constraint) --------------------------------------------


def test_step_budget_rejects_late_extensions_without_crashing():
    data = logistics_scenario_data()
    data["limits"]["max_config_steps"] = 1  # one extension only
    assembly, trace = run(data)
    extended = trace.find("model_extended")
    rejected = trace.find("extension_rejected")
    assert len(extended) >= 1
    assert rejected and rejected[0].payload["error"] == "StepBudgetExceeded"
    assert not assembly.simulation.truncated
    # budgeted snapshots still respect the step bound
    closed = trace.find("model_closed", model="ctx.p1")[0].payload
    assert closed["end_step"] <= 1 and closed["end"]["step"] == closed["end_step"]


def test_scenario_deny_list_blocks_principal():
    data = calm_weather(logistics_scenario_data())
    data["auth"] = {"deny": ["mallory"]}
    data["instances"] = [
        {"id": "p1", "model": "spare_part_delivery", "principal": "mallory",
         "start_tick": 0},
        {"id": "p2", "model": "spare_part_delivery", "principal": "alice",
         "start_tick": 1},
    ]
    assembly, trace = run(data)
    auths = {r.payload["principal"]: r.payload["ok"] for r in trace.find("auth")}
    assert auths == {"mallory": False, "alice": True}
    assert "p1" not in assembly.process.instances
    assert assembly.process.instances["p2"].status == "Completed"


def test_predefined_categories_must_sit_in_first_level():
    data = logistics_scenario_data()
    data["masters"][0]["predefined"] = ["geospatial", "weather"]
    _, violations = parse_scenario(data)
    assert any(v.code == "predefined-outside-first-level" for v in violations)
