import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxflow.errors import MissingContext, RuleTypeError
from ctxflow.rule_dsl import (
    BreakRollback,
    Continue,
    Rule,
    SelectVariant,
    StartCompensation,
    parse_rule,
    referenced_categories,
)
from ctxflow.rules_engine import RulesEngine, evaluate_gate, gate_plan

from .conftest import FakeSim
from .test_rule_dsl import CONDITIONS, ENVS, NAMES, reference_condition

DELIVERY_SLA = (
    "RULE Delivery SLA\n"
    "WHEN executionTimeConstraint < estimatedDeliveryTime\n"
    "    AND maxSLAFineAmount < estimatedSLAFine\n"
    "THEN start process.compensation.deliveryVariant\nEND"
)
GROUND = (
    "RULE Ground Preferred\n"
    "WHEN estimatedDeliveryTime <= executionTimeConstraint\n"
    "THEN selectVariant(shipping, truck)\nEND"
)


def rules_for_shipping():
    return [parse_rule(DELIVERY_SLA), parse_rule(GROUND)]


def env(**values):
    return {name: (payload, 0) for name, payload in values.items()}


# --- evaluate_gate ---------------------------------------------------------------


def test_economical_ground_option_chosen():
    outcome = evaluate_gate(
        gate_plan("shipping", rules_for_shipping(), "plane"),
        env(executionTimeConstraint=72, estimatedDeliveryTime=40,
            maxSLAFineAmount=25000, estimatedSLAFine=0),
        now=5,
    )
    assert outcome.fired_rule == "Ground Preferred"
    assert outcome.action == SelectVariant("shipping", "truck")


def test_gate_without_rules_takes_default():
    outcome = evaluate_gate(gate_plan("shipping", [], "plane"), {}, 0)
    assert outcome.fired_rule is None
    assert outcome.action == SelectVariant("shipping", "plane")


def test_delivery_sla_fires_on_violated_constraint():
    outcome = evaluate_gate(
        gate_plan("shipping", rules_for_shipping(), "plane"),
        env(executionTimeConstraint=48, estimatedDeliveryTime=72,
            maxSLAFineAmount=10000, estimatedSLAFine=25000),
        now=5,
    )
    assert outcome.fired_rule == "Delivery SLA"
    assert outcome.action == StartCompensation("process.compensation.deliveryVariant")


def test_first_match_wins_in_declared_order():
    always_a = parse_rule("RULE A WHEN 1 < 2 THEN selectVariant(g, v1) END")
    always_b = parse_rule("RULE B WHEN 1 < 2 THEN selectVariant(g, v2) END")
    outcome = evaluate_gate(gate_plan("g", [always_a, always_b], "v9"), {}, 0)
    assert outcome.fired_rule == "A"
    reversed_outcome = evaluate_gate(gate_plan("g", [always_b, always_a], "v9"), {}, 0)
    assert reversed_outcome.fired_rule == "B"


def test_same_snapshot_same_decision():
    snapshot = env(executionTimeConstraint=72, estimatedDeliveryTime=40,
                   maxSLAFineAmount=25000, estimatedSLAFine=0)
    results = {
        evaluate_gate(gate_plan("shipping", rules_for_shipping(), "plane"),
                      dict(snapshot), 5).fired_rule
        for _ in range(20)
    }
    assert results == {"Ground Preferred"}


def test_stale_context_skips_rule():
    rule = parse_rule(GROUND)
    stale_rule = Rule(
        rule_id=rule.rule_id, name=rule.name, condition=rule.condition,
        action=rule.action, referenced_categories=rule.referenced_categories,
        required_freshness={"estimatedDeliveryTime": 3},
    )
    snapshot = {
        "estimatedDeliveryTime": (40, 0),  # 10 ticks old
        "executionTimeConstraint": (72, 8),
    }
    outcome = evaluate_gate(gate_plan("shipping", [stale_rule], "plane"), snapshot, 10)
    assert outcome.fired_rule is None
    assert outcome.action == SelectVariant("shipping", "plane")
    assert outcome.skipped == [{
        "rule": "Ground Preferred", "reason": "stale",
        "category": "estimatedDeliveryTime",
    }]


def test_missing_reference_skips_rule():
    outcome = evaluate_gate(
        gate_plan("shipping", [parse_rule(GROUND)], "plane"),
        env(executionTimeConstraint=72), now=0,
    )
    assert outcome.skipped[0]["reason"] == "missing"
    assert outcome.action == SelectVariant("shipping", "plane")


def reference_gate(gate_id, rules, env, now, default_variant):
    """Gate evaluation as it was before gates were planned: the oracle.

    ``used`` holds what the gate requests: each rule's references and the
    categories its freshness bounds name."""
    used = {}
    for rule in rules:
        for category in (*rule.referenced_categories, *rule.required_freshness):
            if category in env:
                used[category] = env[category][1]
    skipped = []
    for rule in rules:
        stale = None
        for category, max_age in sorted(rule.required_freshness.items()):
            if category in env and now - env[category][1] > max_age:
                stale = category
                break
        if stale is not None:
            skipped.append({"rule": rule.rule_id, "reason": "stale", "category": stale})
            continue
        missing = [c for c in rule.referenced_categories if c not in env]
        if missing:
            skipped.append({"rule": rule.rule_id, "reason": "missing",
                            "category": missing[0]})
            continue
        if reference_condition(rule.condition, env, now):
            return rule.rule_id, rule.action, used, skipped
    return None, SelectVariant(gate_id, default_variant), used, skipped


def gate_result(evaluate, *args):
    try:
        return "value", evaluate(*args)
    except (MissingContext, RuleTypeError) as err:
        return "raised", type(err), str(err)


RULE_LISTS = st.lists(st.tuples(
    CONDITIONS,
    st.sampled_from([Continue(), SelectVariant("g", "v1"), BreakRollback(None),
                     StartCompensation("redo")]),
    st.dictionaries(st.sampled_from(NAMES + ("d",)), st.integers(0, 10), max_size=2),
), max_size=3).map(lambda drawn: [
    Rule(f"r{i}", f"r{i}", condition, action, referenced_categories(condition), freshness)
    for i, (condition, action, freshness) in enumerate(drawn)
])


@settings(max_examples=300, deadline=None)
@given(rules=RULE_LISTS, default=st.sampled_from(["v0", "v1"]), env=ENVS,
       now=st.integers(0, 25))
def test_planned_gate_agrees_with_the_reference(rules, default, env, now):
    plan = gate_plan("g", rules, default)
    assert plan.categories == sorted(
        {c for r in rules for c in (*r.referenced_categories, *r.required_freshness)})
    expected = gate_result(reference_gate, "g", rules, env, now, default)
    got = gate_result(evaluate_gate, plan, env, now)
    if expected[0] == "raised":
        assert got == expected
        return
    outcome = got[1]
    fired, action, used, skipped = expected[1]
    assert (outcome.fired_rule, outcome.action, outcome.skipped) == (fired, action, skipped)
    assert outcome.used_context == used
    assert list(outcome.used_context) == sorted(used)


# --- engine message flows ------------------------------------------------------------


def make_engine(sim):
    shipping_rules = rules_for_shipping()
    engine = RulesEngine(
        sim,
        gates={("m", "shipping"): (shipping_rules, "plane"), ("m", "packaging"): ([], "eco")},
    )
    return engine


def bind(engine, sim, instance="p1"):
    engine.handle_register({"instance": instance, "process_model": "m",
                            "principal": "tester"})
    engine.handle_context_snapshot({
        "instance": instance, "phase": "init", "status": "ok",
        "model": f"ctx.{instance}",
    })
    sim.sent.clear()


def snapshot_payload(correlation, **values):
    return {
        "phase": "reply", "correlation": correlation, "status": "ok",
        "graph": {"values": {
            name: {"payload": payload, "ts": 0, "value_id": f"{name}@s",
                   "category_id": name, "source_id": "s", "reliability": 1.0}
            for name, payload in values.items()
        }},
    }


def test_register_is_forwarded_as_is():
    sim = FakeSim()
    engine = make_engine(sim)
    register = {"instance": "p2", "process_model": "m", "principal": "tester",
                "share_with_instance": "p1"}
    engine.handle_register(register)
    assert [(to, k, p) for (_, to, k, p) in sim.sent] == [("context", "Register", register)]
    assert sim.sent[0][3] is register


def test_native_evaluation_round_trip():
    sim = FakeSim()
    engine = make_engine(sim)
    bind(engine, sim)
    engine.handle_rule_eval_request({"instance": "p1", "gate": "shipping"})
    requests = [p for (_, _, k, p) in sim.sent if k == "ContextRequest"]
    assert requests[0] == {"instance": "p1", "categories": [
        "estimatedDeliveryTime", "estimatedSLAFine",
        "executionTimeConstraint", "maxSLAFineAmount",
    ], "correlation": "q1"}
    engine.handle_context_snapshot(snapshot_payload(
        requests[0]["correlation"],
        executionTimeConstraint=72, estimatedDeliveryTime=40,
        maxSLAFineAmount=25000, estimatedSLAFine=0,
    ))
    decisions = [p for (_, _, k, p) in sim.sent if k == "Decision"]
    assert decisions[0]["action"] == {
        "type": "select_variant", "gate": "shipping", "variant": "truck",
    }
    assert sim.records("gate_evaluated")[-1].payload["evaluation"] == "native"
    assert set(engine.bindings["p1"].used["shipping"]) == {
        "estimatedDeliveryTime", "estimatedSLAFine",
        "executionTimeConstraint", "maxSLAFineAmount",
    }


def test_gate_without_rules_decides_immediately():
    sim = FakeSim()
    engine = make_engine(sim)
    bind(engine, sim)
    engine.handle_rule_eval_request({"instance": "p1", "gate": "packaging"})
    decisions = [p for (_, _, k, p) in sim.sent if k == "Decision"]
    assert decisions[0]["action"]["variant"] == "eco"
    assert not [k for (_, _, k, _) in sim.sent if k == "ContextRequest"]


def evaluate_once(engine, sim, instance="p1", eta=40):
    engine.handle_rule_eval_request({"instance": instance, "gate": "shipping"})
    correlation = [p for (_, _, k, p) in sim.sent
                   if k == "ContextRequest"][-1]["correlation"]
    engine.handle_context_snapshot(snapshot_payload(
        correlation,
        executionTimeConstraint=72, estimatedDeliveryTime=eta,
        maxSLAFineAmount=25000, estimatedSLAFine=500 * eta - 20000,
    ))


def test_re_evaluation_on_intersecting_change():
    sim = FakeSim()
    engine = make_engine(sim)
    bind(engine, sim)
    evaluate_once(engine, sim)
    sim.sent.clear()
    engine.handle_context_notification({
        "model": "ctx.p1", "instance": "p1",
        "changes": [{"category": "estimatedDeliveryTime",
                     "value": {"payload": 96, "ts": 30}}],
    })
    requests = [p for (_, _, k, p) in sim.sent if k == "ContextRequest"]
    assert len(requests) == 1
    engine.handle_context_snapshot(snapshot_payload(
        requests[0]["correlation"],
        executionTimeConstraint=72, estimatedDeliveryTime=96,
        maxSLAFineAmount=25000, estimatedSLAFine=28000,
    ))
    kinds = [k for (_, _, k, _) in sim.sent]
    assert "StartCompensation" in kinds
    assert "BreakRollback" in kinds
    rollback = [p for (_, _, k, p) in sim.sent if k == "BreakRollback"][0]
    assert rollback["target"] == "start"
    assert rollback["disposition"] == "cancel"
    assert sim.records("gate_evaluated")[-1].payload["evaluation"] == "re_evaluation"


def test_non_intersecting_change_is_ignored():
    sim = FakeSim()
    engine = make_engine(sim)
    bind(engine, sim)
    evaluate_once(engine, sim)
    sim.sent.clear()
    engine.handle_context_notification({
        "model": "ctx.p1", "instance": "p1",
        "changes": [{"category": "weather", "value": {"payload": "x", "ts": 1}}],
    })
    assert sim.sent == []
    triggered = sim.records("re_evaluation_triggered")
    assert triggered[-1].payload["gates"] == []


def test_re_evaluation_yielding_same_variant_is_silent():
    sim = FakeSim()
    engine = make_engine(sim)
    bind(engine, sim)
    evaluate_once(engine, sim)
    sim.sent.clear()
    engine.handle_context_notification({
        "model": "ctx.p1", "instance": "p1",
        "changes": [{"category": "estimatedDeliveryTime",
                     "value": {"payload": 42, "ts": 30}}],
    })
    correlation = [p for (_, _, k, p) in sim.sent
                   if k == "ContextRequest"][0]["correlation"]
    sim.sent.clear()
    engine.handle_context_snapshot(snapshot_payload(
        correlation,
        executionTimeConstraint=72, estimatedDeliveryTime=42,
        maxSLAFineAmount=25000, estimatedSLAFine=1000,
    ))
    # Ground Preferred still selects truck: a re-evaluation must not send
    # anything to the process engine, only record the outcome
    assert sim.sent == []
    evaluated = sim.records("gate_evaluated")[-1].payload
    assert evaluated["evaluation"] == "re_evaluation"
    assert evaluated["decision"] == {"type": "continue"}


def test_two_records_sharing_category_both_re_evaluated():
    sim = FakeSim()
    engine = RulesEngine(
        sim,
        gates={("m", "shipping"): (rules_for_shipping(), "plane"),
               ("m", "packaging"): ([parse_rule(
                   "RULE Pack WHEN estimatedDeliveryTime < 50 "
                   "THEN selectVariant(packaging, eco) END")], "eco")},
    )
    bind(engine, sim)
    evaluate_once(engine, sim)
    engine.handle_rule_eval_request({"instance": "p1", "gate": "packaging"})
    correlation = [p for (_, _, k, p) in sim.sent
                   if k == "ContextRequest"][-1]["correlation"]
    engine.handle_context_snapshot(snapshot_payload(
        correlation, estimatedDeliveryTime=40,
    ))
    sim.sent.clear()
    engine.handle_context_notification({
        "model": "ctx.p1", "instance": "p1",
        "changes": [{"category": "estimatedDeliveryTime",
                     "value": {"payload": 96, "ts": 30}}],
    })
    requests = [p for (_, _, k, p) in sim.sent if k == "ContextRequest"]
    assert len(requests) == 2
    triggered = sim.records("re_evaluation_triggered")[-1].payload
    assert triggered["gates"] == ["shipping", "packaging"]


def test_unbound_notification_dropped_with_record():
    sim = FakeSim()
    engine = make_engine(sim)
    bind(engine, sim)
    evaluate_once(engine, sim)
    engine.handle_process_terminal({"instance": "p1"})
    shutdowns = [k for (_, _, k, _) in sim.sent if k == "ShutdownModel"]
    assert shutdowns
    assert engine.bindings == {}
    sim.sent.clear()
    engine.handle_context_notification({
        "model": "ctx.p1", "instance": "p1",
        "changes": [{"category": "weather", "value": {"payload": "x", "ts": 1}}],
    })
    assert sim.sent == []
    assert sim.records("notification_dropped")


def test_used_context_restricted_to_declared_references():
    sim = FakeSim()
    engine = make_engine(sim)
    bind(engine, sim)
    engine.handle_rule_eval_request({"instance": "p1", "gate": "shipping"})
    correlation = [p for (_, _, k, p) in sim.sent
                   if k == "ContextRequest"][-1]["correlation"]
    payload = snapshot_payload(
        correlation,
        executionTimeConstraint=72, estimatedDeliveryTime=40,
        maxSLAFineAmount=25000, estimatedSLAFine=0,
        geospatial="zone-7",  # ancestor delivered with the subgraph
    )
    engine.handle_context_snapshot(payload)
    declared = set()
    for rule in rules_for_shipping():
        declared.update(rule.referenced_categories)
    assert set(engine.bindings["p1"].used["shipping"]) <= declared


# --- what each decision sends -----------------------------------------------------

SELECT_TRUCK = {"type": "select_variant", "gate": "shipping", "variant": "truck"}
SELECT_PLANE = {"type": "select_variant", "gate": "shipping", "variant": "plane"}


def decision(evaluation, action):
    return ("Decision", {"instance": "p1", "gate": "shipping", "evaluation": evaluation,
                         "fired_rule": "R", "action": action})


def rollback(target, disposition):
    return ("BreakRollback", {"instance": "p1", "target": target,
                              "disposition": disposition, "fired_rule": "R"})


COMPENSATE = ("StartCompensation", {"instance": "p1", "fired_rule": "R",
                                    "process_ref": "process.compensation.deliveryVariant"})

ROLLBACK_START = {"type": "break_rollback", "target": "start"}
ROLLBACK_GATE = {"type": "break_rollback", "target": "shipping"}
CONTINUE = {"type": "continue"}
COMPENSATION = {"type": "start_compensation",
                "process_ref": "process.compensation.deliveryVariant"}

# action text, gate default, evaluation, the decision gate_evaluated records,
# the exact (kind, payload) list sent
DECISION_CASES = {
    "native-select-variant": ("selectVariant(shipping, truck)", "plane", "native",
                              SELECT_TRUCK, [decision("native", SELECT_TRUCK)]),
    "re-evaluation-select-variant": ("selectVariant(shipping, truck)", "plane",
                                     "re_evaluation", CONTINUE, []),
    "native-continue-with-default": ("continue", "plane", "native", SELECT_PLANE,
                                     [decision("native", SELECT_PLANE)]),
    "re-evaluation-continue": ("continue", "plane", "re_evaluation", CONTINUE, []),
    "native-break-rollback": ("rollback(start)", "plane", "native", ROLLBACK_START,
                              [rollback("start", "resume")]),
    "re-evaluation-break-rollback": ("break", "plane", "re_evaluation", ROLLBACK_GATE,
                                     [rollback("shipping", "resume")]),
    "native-compensation-with-default": (
        "start process.compensation.deliveryVariant", "plane", "native", COMPENSATION,
        [COMPENSATE, decision("native", SELECT_PLANE)]),
    "re-evaluation-compensation": (
        "start process.compensation.deliveryVariant", "plane", "re_evaluation",
        COMPENSATION, [COMPENSATE, rollback("start", "cancel")]),
}


def answer_last_request(engine, sim):
    """Reply to the latest context request; return what the reply made the engine send."""
    correlation = [p for (_, _, k, p) in sim.sent
                   if k == "ContextRequest"][-1]["correlation"]
    mark = len(sim.sent)
    engine.handle_context_snapshot(snapshot_payload(correlation, estimatedDeliveryTime=40))
    return sim.sent[mark:]


@pytest.mark.parametrize("action, default, evaluation, recorded, expected",
                         list(DECISION_CASES.values()), ids=list(DECISION_CASES))
def test_each_decision_sends_exact_messages(action, default, evaluation, recorded,
                                            expected):
    sim = FakeSim()
    engine = RulesEngine(
        sim,
        gates={("m", "shipping"): ([parse_rule(
            f"RULE R WHEN estimatedDeliveryTime > 0 THEN {action} END")], default)},
    )
    bind(engine, sim)
    engine.handle_rule_eval_request({"instance": "p1", "gate": "shipping"})
    sent = answer_last_request(engine, sim)
    if evaluation == "re_evaluation":
        engine.handle_context_notification({
            "model": "ctx.p1", "instance": "p1",
            "changes": [{"category": "estimatedDeliveryTime",
                         "value": {"payload": 40, "ts": 1}}],
        })
        sent = answer_last_request(engine, sim)
    evaluated = sim.records("gate_evaluated")[-1].payload
    assert (evaluated["evaluation"], evaluated["decision"]) == (evaluation, recorded)
    assert all(sender == "rules" and receiver == "process"
               for (sender, receiver, _, _) in sent)
    assert [(kind, payload) for (_, _, kind, payload) in sent] == expected


def test_terminal_instance_drops_its_evaluation_in_flight():
    sim = FakeSim()
    engine = make_engine(sim)
    bind(engine, sim)
    engine.handle_rule_eval_request({"instance": "p1", "gate": "shipping"})
    correlation = [p for (_, _, k, p) in sim.sent
                   if k == "ContextRequest"][-1]["correlation"]
    engine.handle_process_terminal({"instance": "p1"})
    assert engine.pending == {}
    sim.sent.clear()
    engine.handle_context_snapshot(snapshot_payload(correlation, estimatedDeliveryTime=40))
    assert sim.sent == []
    assert [r.payload for r in sim.records("snapshot_dropped")] == [
        {"correlation": correlation, "reason": "no pending evaluation"}]
    assert sim.records("gate_evaluated") == []
