"""The trace oracle on the pinned corpus, and on traces corrupted by hand.

Each corruption breaks one invariant of ``trace_oracle`` and must be
reported under that invariant's name, and under no other.
"""

import copy
import json
import re

import pytest

from ctxflow.scenario import build_simulation, parse_scenario

from .conftest import logistics_scenario_data
from .test_integration_flows import fleet_scenario, handover_scenario, shared_scenario
from .test_trace_digests import SCENARIOS
from .trace_oracle import check


def trace_records(data) -> list[dict]:
    scenario, violations = parse_scenario(data)
    assert not violations, violations[:3]
    return [json.loads(line) for line in build_simulation(scenario).simulation.run().lines()]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_oracle_passes_on_pinned_scenario(name):
    assert check(trace_records(SCENARIOS[name]())) == []


# Under these latencies the shipping gate's native evaluation fires
# rollback(packaging) before packaging holds a checkpoint: the process pool
# writes UnknownCheckpoint and p1 awaits a decision until max_steps.
HANGS_UNDER_OTHER_TIMING = pytest.mark.xfail(
    strict=True, reason="a native rollback to a gate not yet passed leaves its "
                        "instance awaiting a decision")


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=HANGS_UNDER_OTHER_TIMING) if name == "rollback-to-gate"
    else name for name in sorted(SCENARIOS)])
def test_oracle_passes_on_pinned_scenario_under_other_timing(name):
    """The pools handle only the messages a valid document can send, in the
    order each channel delivers them; other latencies and another seed
    interleave the channels otherwise and must keep the trace sound."""
    data = SCENARIOS[name]()
    data["latency"] = {**data.get("latency", {}), "default": 3, "jitter": 3}
    scenario, violations = parse_scenario(data)
    assert not violations, violations[:3]
    sim = build_simulation(scenario, seed=1).simulation
    trace = sim.run()
    assert not sim.truncated
    assert check(json.loads(line) for line in trace.lines()) == []


# the hand-built pinned documents, and a fixed sample of CI's timing grid:
# (default latency, jitter, seed), none of them a timing under which
# rollback-to-gate hangs
HAND_BUILT = ("logistics", "rollback-to-gate", "propagation", "shared",
              "shared-thunderstorm", "engine-paths", "shared-fetch")
SAMPLED_TIMINGS = [(2, 1, 0), (3, 1, 2), (1, 5, 1)]


@pytest.mark.parametrize("latency, jitter, seed", SAMPLED_TIMINGS)
@pytest.mark.parametrize("name", HAND_BUILT)
def test_oracle_passes_on_hand_built_document_under_sampled_timing(name, latency, jitter, seed):
    data = SCENARIOS[name]()
    data["latency"] = {**data.get("latency", {}), "default": latency, "jitter": jitter}
    scenario, violations = parse_scenario(data)
    assert not violations, violations[:3]
    sim = build_simulation(scenario, seed=seed, max_steps=20000).simulation
    trace = sim.run()
    assert not sim.truncated
    assert check(json.loads(line) for line in trace.lines()) == []


LOGISTICS = trace_records(logistics_scenario_data())


def invariants(records) -> set[str]:
    return {violation.split(":", 1)[0] for violation in check(records)}


def logistics():
    return copy.deepcopy(LOGISTICS)


def renumbered(records):
    for seq, record in enumerate(records):
        record["seq"] = seq
    return records


def first(records, kind, **fields):
    return next(i for i, r in enumerate(records) if r["kind"] == kind
                and all(r["payload"].get(k) == v for k, v in fields.items()))


def test_logistics_holds_every_invariant():
    assert check(LOGISTICS) == []


def test_gate_without_rules_is_evaluated_on_its_request():
    records = trace_records(handover_scenario())
    evaluated = first(records, "gate_evaluated", gate="signoff")
    assert records[evaluated]["payload"]["used"] == {}
    assert records[evaluated - 1]["kind"] == "RuleEvalRequest"
    assert check(records) == []


def test_seq_gap_is_caught():
    records = logistics()
    del records[40]
    assert invariants(records) == {"seq"}


def test_falling_tick_is_caught():
    records = logistics()
    closed = first(records, "model_closed")
    records[closed]["tick"] = records[closed - 1]["tick"] - 1
    assert invariants(records) == {"seq"}


def test_message_on_a_channel_that_does_not_carry_it_is_caught():
    records = logistics()
    records[first(records, "ContextSnapshot")]["payload"]["to"] = "process"
    assert invariants(records) == {"channel"}


def test_message_delivered_at_its_send_tick_is_caught():
    records = logistics()
    message = records[first(records, "ContextRequest")]
    message["payload"]["sent"] = message["tick"]
    assert invariants(records) == {"latency"}


def test_overtaking_message_is_caught():
    records = logistics()
    polls = [r for r in records if r["kind"] == "PollRequest"]
    polls[0]["payload"]["msg_seq"], polls[1]["payload"]["msg_seq"] = (
        polls[1]["payload"]["msg_seq"], polls[0]["payload"]["msg_seq"])
    assert invariants(records) == {"fifo"}


def test_instance_without_terminal_status_is_caught():
    records = logistics()
    del records[first(records, "instance_status", instance="p1.comp1", status="Completed")]
    assert invariants(renumbered(records)) == {"terminal"}


def test_instance_ending_twice_is_caught():
    records = logistics()
    end = first(records, "instance_status", instance="p1", status="Cancelled")
    records.insert(end + 1, copy.deepcopy(records[end]))
    assert invariants(renumbered(records)) == {"terminal"}


def test_truncated_run_may_leave_an_instance_unfinished():
    records = logistics()
    end = first(records, "instance_status", instance="p1.comp1", status="Completed")
    records[end] = {**records[end], "kind": "run_truncated", "payload": {"max_steps": 1}}
    assert check(records) == []


@pytest.mark.parametrize("kind, fields", [
    ("Decision", {"gate": "shipping", "evaluation": "native"}),
    ("StartCompensation", {}),
    ("BreakRollback", {}),
])
def test_gate_message_without_its_evaluation_is_caught(kind, fields):
    records = logistics()
    message = next(r["payload"] for r in records if r["kind"] == kind
                   and r["payload"]["data"].get("evaluation") != "init")
    data = message["data"]
    evaluated = first(records, "gate_evaluated", instance=data["instance"],
                      fired_rule=data["fired_rule"], **fields)
    assert records[evaluated]["tick"] == message["sent"]
    del records[evaluated]
    assert invariants(renumbered(records)) == {"decision"}


def test_record_naming_a_closed_model_is_caught():
    records = logistics()
    closed = first(records, "model_closed", model="ctx.p1")
    update = copy.deepcopy(records[first(records, "value_updated", model="ctx.p1")])
    update["tick"] = records[closed]["tick"]
    records.insert(closed + 1, update)
    assert invariants(renumbered(records)) == {"model"}


def test_model_losing_a_category_is_caught():
    records = logistics()
    end = records[first(records, "model_closed", model="ctx.p1")]["payload"]["end"]
    end["levels"][-1].remove("packagingMethod")
    assert invariants(records) == {"model"}


def test_extension_by_a_held_category_is_caught():
    records = logistics()
    extended = records[first(records, "model_extended", model="ctx.p1")]
    extended["payload"]["added"].append({"category": "weather", "level": 2})
    assert invariants(records) == {"model"}


def test_stream_going_back_in_time_is_caught():
    records = logistics()
    updates = [r["payload"]["value"] for r in records if r["kind"] == "value_updated"
               and r["payload"]["model"] == "ctx.p1"
               and r["payload"]["value"]["value_id"] == "weather@weatherService"]
    assert len(updates) >= 2 and updates[0]["ts"] < updates[1]["ts"]
    updates[1]["ts"] = updates[0]["ts"] - 1
    assert invariants(records) == {"stream"}


def test_evaluation_using_other_values_than_its_reply_is_caught():
    records = logistics()
    used = records[first(records, "gate_evaluated", gate="packaging")]["payload"]["used"]
    used["minPackaging"] -= 1
    assert invariants(records) == {"used"}


def test_evaluation_without_its_reply_is_caught():
    records = logistics()
    evaluated = first(records, "gate_evaluated", gate="packaging")
    assert records[evaluated - 1]["kind"] == "ContextSnapshot"
    del records[evaluated - 1]
    assert invariants(renumbered(records)) == {"used"}


def test_oracle_passes_on_a_sourceless_category_the_model_holds():
    # ``fleet`` is in p1's model from the first request on and never has a
    # value, so every reply to Ground Preferred's request names it missing
    assert check(trace_records(fleet_scenario())) == []


def test_reply_missing_a_category_it_carries_is_caught():
    records = logistics()
    reply = next(r["payload"]["data"] for r in records if r["kind"] == "ContextSnapshot"
                 and r["payload"]["data"].get("correlation") == "q2")
    assert list(reply["graph"]["values"]) == ["minPackaging"] and reply["missing"] == []
    reply["missing"] = ["minPackaging"]
    assert invariants(records) == {"reply"}


def test_reply_carrying_a_category_its_request_did_not_name_is_caught():
    records = logistics()
    request = records[first(records, "ContextRequest")]
    request["payload"]["data"]["categories"] = request["payload"]["data"]["categories"][1:]
    assert invariants(records) == {"reply"}


def test_sharer_bound_to_another_model_is_caught():
    records = trace_records(shared_scenario())
    records[first(records, "model_shared", instance="t2")]["payload"]["model"] = "ctx.t9"
    assert invariants(records) == {"binding"}


@pytest.mark.parametrize("kind, fields", [
    ("ContextSnapshot", {"phase": "reply"}),
    ("ContextNotification", {}),
])
def test_reply_naming_another_model_is_caught(kind, fields):
    records = logistics()
    message = next(r["payload"]["data"] for r in records if r["kind"] == kind
                   and all(r["payload"]["data"].get(k) == v for k, v in fields.items()))
    assert message["model"] == f"ctx.{message['instance']}"
    message["model"] = "ctx.p9"
    assert invariants(records) == {"binding"}


def test_copy_of_another_model_is_caught():
    records = logistics()
    records[first(records, "model_instantiated", instance="p1.comp1")]["payload"][
        "copy_of"] = "ctx.p9"
    assert invariants(records) == {"binding"}


def test_sharer_given_a_model_of_its_own_while_its_target_initializes_is_caught():
    # t2 gets a model of its own although t1, still initializing, is
    # registered when t2's Register reaches the context pool
    records = trace_records(shared_scenario(1))
    shared = first(records, "model_shared", instance="t2")
    own = copy.deepcopy(records[first(records, "model_instantiated", instance="t1")])
    own["payload"].update(model="ctx.t2", instance="t2")
    own["seq"], own["tick"] = records[shared]["seq"], records[shared]["tick"]
    records[shared] = own
    assert invariants(records) == {"binding"}


def test_registration_refused_with_an_engine_error_is_caught():
    # every registration succeeds: no engine_error may stand for p1's model
    # (p1.comp1, which then copies an unbound instance's model, is caught too)
    records = logistics()
    created = first(records, "model_instantiated", instance="p1")
    records[created].update(kind="engine_error", payload={
        "error": "UnknownMaster", "detail": "no master model 'logistics'", "instance": "p1"})
    assert invariants(records) == {"binding"}
    assert check(records)[0].startswith(
        f"binding: seq {records[created]['seq']} (engine_error) for 'p1' ")


# --- logistics variants ---------------------------------------------------------------

ACTIONS = ("continue", "break", "rollback(start)", "rollback(shipping)",
           "rollback(packaging)", "start process.compensation.deliveryVariant",
           "selectVariant(shipping, truck)")


def logistics_variants():
    """Logistics with one thing changed: a rule's action, a second instance
    (alone or sharing p1's model), or the extension step budget."""
    base = logistics_scenario_data()
    for index, rule in enumerate(base["rules"]):
        name = rule.split("\n", 1)[0].removeprefix("RULE ")
        for action in ACTIONS:
            data = logistics_scenario_data()
            data["rules"][index] = re.sub(r"THEN .*\nEND", f"THEN {action}\nEND", rule)
            yield f"{name} -> {action}", data
    for start in (0, 1, 5, 25, 40, 60):
        for share in (False, True):
            data = logistics_scenario_data()
            data["instances"].append({**data["instances"][0], "id": "p2", "start_tick": start,
                                      **({"share_with": "p1"} if share else {})})
            yield f"p2 at {start}{' sharing' if share else ''}", data
    for steps in range(4):
        data = logistics_scenario_data()
        data["limits"]["max_config_steps"] = steps
        yield f"max_config_steps {steps}", data


VARIANTS = dict(logistics_variants())
INVALID_VARIANTS = {name for name, data in VARIANTS.items() if parse_scenario(data)[1]}


def test_the_invalid_logistics_variants_are_the_known_ones():
    # the compensation model's rules cannot start a compensation it does not
    # declare, a packaging rule cannot select a shipping variant, and a
    # sharer must start after its target
    assert INVALID_VARIANTS == {
        *(f"{name} -> start process.compensation.deliveryVariant"
          for name in ("Ground Preferred", "Minimal Packaging", "Rugged For Air")),
        *(f"{name} -> selectVariant(shipping, truck)"
          for name in ("Minimal Packaging", "Rugged For Air")),
        "p2 at 0 sharing",
    }


@pytest.mark.parametrize("jitter", [0, 1, 3])
@pytest.mark.parametrize("name", sorted(set(VARIANTS) - INVALID_VARIANTS))
def test_oracle_passes_on_logistics_variant(name, jitter):
    # a run may be truncated: a rule that always breaks loops by design
    data = copy.deepcopy(VARIANTS[name])
    data["latency"] = {**data["latency"], "jitter": jitter}
    data["limits"]["max_steps"] = 3000
    scenario, violations = parse_scenario(data)
    assert not violations, violations[:3]
    trace = build_simulation(scenario).simulation.run()
    assert check(json.loads(line) for line in trace.lines()) == []
