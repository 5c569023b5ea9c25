"""Cross-engine flows that only show up in full simulation runs."""

import copy
import json

import pytest

from ctxflow.scenario import build_simulation, parse_scenario
from ctxflow.trace import canonical_json

from .conftest import logistics_scenario_data
from .trace_oracle import check


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


def test_a_requirement_no_source_provides_burns_a_round_per_tick():
    # nothing to poll for customsClearance: each round is an init_round timer
    data = logistics_scenario_data()
    data["catalog"].append({"id": "customsClearance", "kind": "text",
                            "parent": "processObject"})
    data["masters"][0]["categories"].append("customsClearance")
    data["limits"]["poll_budget"] = 3
    assembly, trace = run(data)
    [timeout] = trace.find("init_timeout")
    assert (timeout.tick, timeout.payload) == (6, {
        "instance": "p1", "model": "ctx.p1", "rounds": 3, "unvalued": ["customsClearance"]})
    assert outcomes(assembly) == {"p1": "Cancelled"}
    assert check(json.loads(line) for line in trace.lines()) == []


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


def shared_scenario(t2_start=8):
    data = calm_weather(copy.deepcopy(logistics_scenario_data()))
    data["instances"] = [
        {"id": "t1", "model": "spare_part_delivery", "principal": "op",
         "start_tick": 0},
        {"id": "t2", "model": "spare_part_delivery", "principal": "op",
         "start_tick": t2_start, "share_with": "t1"},
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


def oracle_violations(trace):
    return check(json.loads(line) for line in trace.lines())


@pytest.mark.parametrize("t2_start", range(1, 8))
def test_sharer_binds_while_its_target_initializes(t2_start):
    # t1 is listening from tick 5 on; a sharer whose Register arrives while
    # t1 still initializes binds to the model t1 is registered on all the same
    assembly, trace = run(shared_scenario(t2_start))
    assert [r.payload["bound"] for r in trace.find("model_shared")] == [["t1", "t2"]]
    assert not trace.find("model_instantiated", instance="t2")
    assert not trace.find("engine_error")
    statuses = {i.instance_id: i.status for i in assembly.process.instances.values()}
    assert statuses == {"t1": "Completed", "t2": "Completed"}
    assert oracle_violations(trace) == []


def init_polls(trace):
    return [r.payload["data"]["instance"] for r in trace
            if r.kind == "PollRequest" and r.payload["data"].get("purpose") == "init"]


@pytest.mark.parametrize("t2_start", [1, 2])
def test_sharer_waits_for_its_targets_init_polls(t2_start):
    # t1's init polls are in flight when t2 registers: t2 polls nothing again
    assembly, trace = run(shared_scenario(t2_start))
    assert init_polls(trace) == ["t1", "t1", "t1"]
    assert outcomes(assembly) == {"t1": "Completed", "t2": "Completed"}
    assert oracle_violations(trace) == []


def test_sharer_times_out_with_its_target():
    from .test_trace_digests import engine_paths_scenario
    data = engine_paths_scenario()
    data["instances"].append({"id": "i4", "model": "attic_run", "principal": "dispatcher",
                              "start_tick": 3, "share_with": "i3"})
    assembly, trace = run(data)
    assert "i4" not in init_polls(trace)
    [i3_timeout] = trace.find("init_timeout", instance="i3")
    [i4_timeout] = trace.find("init_timeout", instance="i4")
    assert i4_timeout.tick == i3_timeout.tick
    assert i4_timeout.payload["model"] == "ctx.i3"
    assert not assembly.simulation.truncated
    assert outcomes(assembly)["i4"] == "Cancelled"
    assert oracle_violations(trace) == []


def denied_target(data):
    data["auth"] = {"deny": ["mallory"]}
    data["instances"][0]["principal"] = "mallory"
    return data


def ended_target(data):
    data["instances"][1]["start_tick"] = 90  # t1 completes at tick 59
    return data


@pytest.mark.parametrize("unbound", [denied_target, ended_target])
def test_sharer_of_an_unregistered_target_gets_a_model_of_its_own(unbound):
    assembly, trace = run(unbound(shared_scenario()))
    errors = trace.find("engine_error")
    assert [(r.pool, r.payload) for r in errors] == [("context", {
        "error": "UnknownSharedModel", "instance": "t2", "share_with": "t1"})]
    [own] = trace.find("model_instantiated", instance="t2")
    assert own.payload["model"] == "ctx.t2"
    assert assembly.process.instances["t2"].status == "Completed"
    assert oracle_violations(trace) == []


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


# --- aggregate windows ----------------------------------------------------------------------


def test_aggregate_reduces_its_whole_window():
    """A model keeps as many past values as the deepest aggregate reads."""
    data = logistics_scenario_data()
    data["catalog"] += [{"id": "level", "kind": "numeric", "parent": "processObject"},
                        {"id": "levelCount", "kind": "numeric", "parent": "processObject"}]
    data["masters"][0]["categories"] += ["level", "levelCount"]
    data["sources"].append({"id": "sensor", "provides": ["level"],
                            "timeline": [[5 + i, "level", i] for i in range(15)]})
    data["agents"] = [{"id": "levelCounter", "kind": "aggregate", "inputs": ["level"],
                       "output": "levelCount", "spec": {"window": 12, "reducer": "count"}}]
    _, trace = run(data)
    counts = [r.payload["value"]["payload"]
              for r in trace.find("value_updated", model="ctx.p1", category="levelCount")]
    assert counts == [*range(1, 13), 12, 12, 12]


def test_a_document_without_aggregates_keeps_no_history():
    scenario, violations = parse_scenario(logistics_scenario_data())
    assert not violations, violations[:3]
    assembly = build_simulation(scenario, max_steps=60)
    assembly.simulation.run()
    assert assembly.simulation.now == 35
    graph = assembly.context.instances["ctx.p1"].intersection
    assert graph.values and graph.history == {}


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


def ground_preferred_skips(data, bound):
    data["rules"][1] = {"text": data["rules"][1], "required_freshness": bound}
    _, trace = run(data)
    return [r.payload for r in trace.find("rule_skipped")
            if r.payload["rule"] == "Ground Preferred"]


def test_freshness_bound_on_an_unreferenced_category_applies():
    # Ground Preferred reads no weather, yet its gate requests weather for
    # the bound: the value is always at least a hop old, so the bound trips
    skips = ground_preferred_skips(logistics_scenario_data(), {"weather": 0})
    assert skips and skips[0]["reason"] == "stale" and skips[0]["category"] == "weather"


def test_freshness_bound_on_an_ancestor_of_a_referenced_category_applies():
    # estimatedDeliveryTime moves under weather, so the bound names an
    # ancestor of a category the rule references, not the category itself
    data = logistics_scenario_data()
    next(c for c in data["catalog"] if c["id"] == "estimatedDeliveryTime")["parent"] = "weather"
    skips = ground_preferred_skips(data, {"weather": 0})
    assert skips and skips[0]["reason"] == "stale" and skips[0]["category"] == "weather"


def test_freshness_bound_on_an_uncatalogued_category_is_a_violation():
    data = logistics_scenario_data()
    data["rules"][1] = {"text": data["rules"][1], "required_freshness": {"nosuch": 3}}
    _, violations = parse_scenario(data)
    assert [(v.code, v.subject, v.detail) for v in violations] == [
        ("rule-unknown-category", "Ground Preferred", "'nosuch' not in catalog")]


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


# --- replies that lack a requested category ----------------------------------------------------


def replies(trace, instance):
    return [(r.tick, r.payload["data"]["missing"]) for r in trace.find("ContextSnapshot")
            if r.payload["data"].get("phase") == "reply"
            and r.payload["data"]["instance"] == instance]


def test_a_category_the_step_budget_keeps_out_is_missing_from_the_reply():
    data = logistics_scenario_data()
    data["limits"]["max_config_steps"] = 0
    assembly, trace = run(data)
    rejected = trace.find("extension_rejected", model="ctx.p1.comp1",
                          categories=["shippingMethod"])
    assert rejected and rejected[0].payload["error"] == "StepBudgetExceeded"
    assert (47, ["shippingMethod"]) in replies(trace, "p1.comp1")
    assert not assembly.simulation.truncated


def test_a_category_its_source_has_no_value_for_yet_is_missing_from_the_reply():
    # erp provides ``late`` from tick 1000 on: the poll that fetches it for
    # the first request finds it absent, and the rule reading it is skipped
    data = logistics_scenario_data()
    data["catalog"].append({"id": "late", "kind": "numeric", "parent": "processObject"})
    erp = next(source for source in data["sources"] if source["id"] == "erp")
    erp["provides"].append("late")
    erp["poll"]["late"] = [[1000, 5]]
    data["rules"].insert(0, "RULE Late\nWHEN late > 3\nTHEN selectVariant(shipping, plane)\nEND")
    data["process_models"][0]["nodes"][2]["rules"].insert(0, "Late")
    _, trace = run(data)
    fetch = trace.find("PollResponse", data={
        "source": "erp", "values": [], "absent": ["late"], "purpose": "administer",
        "model": "ctx.p1"})
    assert [r.tick for r in fetch] == [11]
    assert replies(trace, "p1")[0] == (12, ["late"])
    skipped = trace.find("rule_skipped")[0]
    assert (skipped.tick, skipped.payload) == (12, {
        "instance": "p1", "gate": "shipping", "rule": "Late", "reason": "missing",
        "category": "late"})


def fleet_scenario():
    """Logistics whose Ground Preferred also reads ``fleet``, which no source
    provides, and ``truckCount`` (erp), a child of ``fleet``."""
    data = logistics_scenario_data()
    data["catalog"] += [
        {"id": "fleet", "kind": "text", "requires_value": False, "parent": "processObject"},
        {"id": "truckCount", "kind": "numeric", "parent": "fleet"}]
    erp = next(source for source in data["sources"] if source["id"] == "erp")
    erp["provides"].append("truckCount")
    erp["poll"]["truckCount"] = [[0, 3]]
    data["rules"][1] = data["rules"][1].replace(
        "WHEN ", 'WHEN fleet == "x" OR truckCount > 2 OR ')
    return data


def test_a_sourceless_category_stays_missing_when_an_extension_adds_it():
    # the first request's extension adds ``fleet`` as the parent of
    # ``truckCount``, and that reply still names it missing.  The same
    # request later finds it in the model, still without a value, and names
    # it missing again
    _, trace = run(fleet_scenario())
    assert [r.tick for r in trace.find("admin_no_source", category="fleet")] == [9]
    assert [added["category"] for added in trace.find("model_extended")[0].payload["added"]] == [
        "fleet", "truckCount"]
    assert replies(trace, "p1") == [(12, ["fleet"]), (34, ["fleet"])]


def test_a_derived_category_the_model_lacks_is_never_written():
    # etaToFine derives estimatedSLAFine, which no master holds and no source
    # provides: the value is dropped, the reply lacks it, and Delivery SLA is
    # skipped
    data = logistics_scenario_data()
    data["masters"][0]["categories"].remove("estimatedSLAFine")
    for thresholds in data["thresholds"].values():
        thresholds[:] = [t for t in thresholds if t["category"] != "estimatedSLAFine"]
    assembly, trace = run(data)
    assert trace.find("value_updated", category="estimatedSLAFine") == []
    assert all("estimatedSLAFine" not in r.payload["categories"]
               for r in trace.find("model_instantiated"))
    assert all(added["category"] != "estimatedSLAFine"
               for r in trace.find("model_extended") for added in r.payload["added"])
    assert trace.find("admin_no_source", category="estimatedSLAFine")
    assert outcomes(assembly) == {"p1": "Completed"}
    assert check(json.loads(line) for line in trace.lines()) == []


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


# --- inlined sub-processes ------------------------------------------------------------------


def gate_decisions(trace):
    return [(r.tick, r.payload["instance"], r.payload["gate"], r.payload["decision"])
            for r in trace.find("gate_evaluated")]


def outcomes(assembly):
    return {i.instance_id: i.status for i in assembly.process.instances.values()}


def test_inlined_gates_decide_as_in_their_own_model():
    data = logistics_scenario_data()
    delivery = data["process_models"][0]
    data["process_models"].append({
        "model_id": "wrapper", "context_master": delivery["context_master"],
        "compensation_refs": delivery["compensation_refs"],
        "nodes": [{"type": "start"}, {"type": "subprocess", "model": "spare_part_delivery"},
                  {"type": "end"}]})
    data["thresholds"]["wrapper"] = data["thresholds"]["spare_part_delivery"]
    bpm = data["sources"][3]
    bpm["mirrors"] += [dict(mirror, model="wrapper") for mirror in bpm["mirrors"]
                       if mirror["model"] == "spare_part_delivery"]
    data["instances"][0]["model"] = "wrapper"
    wrapped, wrapped_trace = run(data)
    direct, direct_trace = run(logistics_scenario_data())
    assert gate_decisions(wrapped_trace) == gate_decisions(direct_trace)
    assert outcomes(wrapped) == outcomes(direct) == {"p1": "Cancelled", "p1.comp1": "Completed"}


def handover_scenario():
    """``main`` runs ``handover`` inline; its gate has a default and no rules."""
    return {
        "catalog": [{"id": "stage", "requires_value": False}],
        "masters": [{"model_id": "m", "categories": ["stage"]}],
        "process_models": [
            {"model_id": "main", "context_master": "m",
             "nodes": [{"type": "start"}, {"type": "subprocess", "model": "handover"},
                       {"type": "end"}]},
            {"model_id": "handover", "nodes": [
                {"type": "start"},
                {"type": "gate", "id": "signoff", "default": "quick",
                 "variants": {"quick": [{"type": "task", "name": "sign", "duration": 1}]}},
                {"type": "end"}]},
        ],
        "instances": [{"id": "i1", "model": "main", "principal": "clerk"}],
    }


def test_inlined_gate_takes_its_default():
    assembly, trace = run(handover_scenario())
    assert [(gate, decision["variant"]) for _, _, gate, decision in gate_decisions(trace)] == [
        ("signoff", "quick")]
    assert outcomes(assembly) == {"i1": "Completed"}


# --- mirrors ------------------------------------------------------------------------------


def test_mirror_goes_out_through_the_source_that_declares_it():
    data = logistics_scenario_data()
    bpm = data["sources"][3]
    packaging = [m for m in bpm["mirrors"] if m["category"] == "packagingMethod"]
    bpm["mirrors"] = [m for m in bpm["mirrors"] if m not in packaging]
    # a less reliable source that also provides both categories, declared first
    data["sources"].insert(0, {
        "id": "wms", "mode": "push", "reliability": 0.3,
        "provides": ["shippingMethod", "packagingMethod"], "mirrors": packaging})
    _, trace = run(data)
    mirrored = {(event["category_id"], event["source_id"])
                for event in (r.payload["data"] for r in trace.find("SourceEvent"))
                if event["category_id"] != "weather"}
    assert mirrored == {("shippingMethod", "bpm"), ("packagingMethod", "wms")}


def test_mirror_reports_only_the_decision_that_still_stands():
    # receive_order completes before the shipping gate and again after a
    # rollback to the start has undone the gate's decision: neither time is
    # there a decision to mirror
    data = logistics_scenario_data()
    data["sources"][3]["mirrors"].append({"model": "spare_part_delivery", "gate": "shipping",
                                          "category": "shippingMethod",
                                          "trigger": "task:receive_order"})
    data["rules"][2] = data["rules"][2].replace("selectVariant(packaging, eco)",
                                                "rollback(start)")
    data["limits"]["max_steps"] = 400
    _, trace = run(data)
    assert [(r.tick, r.payload["task"]) for r in trace.find("task_completed")][:2] == [
        (7, "receive_order"), (16, "receive_order")]
    assert [(r.tick, r.payload["checkpoints_kept"])
            for r in trace.find("rollback_applied", target="start")][:1] == [(15, 0)]
    assert [r.tick for r in trace.find("SourceEvent")
            if r.payload["data"]["category_id"] == "shippingMethod" and r.tick <= 17] == []
