import copy
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctxflow.cli import main
from ctxflow.errors import ScenarioParseError
from ctxflow.scenario import parse_scenario, run_scenario_data
from ctxflow.trace import Trace, TraceRecord, _LineWriter, canonical_json, replay_verify

from .conftest import logistics_scenario_data
from .scenario_gen import random_scenario


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# --- validate ---------------------------------------------------------------------


def test_bundled_logistics_validates_clean(tmp_path):
    path = write_scenario(tmp_path, logistics_scenario_data())
    assert main(["validate", path]) == 0


def test_dangling_variant_reference_fails_validation(tmp_path, capsys):
    data = logistics_scenario_data()
    data["rules"][1] = data["rules"][1].replace(
        "selectVariant(shipping, truck)", "selectVariant(shipping, hovercraft)")
    path = write_scenario(tmp_path, data)
    assert main(["validate", path]) == 2
    assert "UnknownActionTarget" in capsys.readouterr().out


def test_malformed_file_is_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 3


def test_validate_and_run_report_a_bad_file_alike(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    data = logistics_scenario_data()
    data["process_models"][0]["nodes"][2]["rules"].append("No Such Rule")
    invalid = write_scenario(tmp_path, data)
    for command in ("validate", "run"):
        assert main([command, str(broken)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"parse error: cannot read scenario {broken}: ")
        assert err.count("\n") == 1
        assert main([command, invalid]) == 2
        out, err = capsys.readouterr()
        listed = ("gate-unknown-rule: spare_part_delivery:shipping: "
                  "rule 'No Such Rule' not declared\n")
        assert err == "" and out == listed + ("1 violation(s)\n" if command == "validate" else "")


def test_unknown_rule_on_gate_reported(tmp_path, capsys):
    data = logistics_scenario_data()
    data["process_models"][0]["nodes"][2]["rules"].append("No Such Rule")
    path = write_scenario(tmp_path, data)
    assert main(["validate", path]) == 2
    assert "gate-unknown-rule" in capsys.readouterr().out


def test_threshold_kind_mismatch_reported(tmp_path, capsys):
    data = logistics_scenario_data()
    data["thresholds"]["spare_part_delivery"].append(
        {"category": "weather", "kind": "numeric-delta", "theta": 2})
    path = write_scenario(tmp_path, data)
    assert main(["validate", path]) == 2
    assert "threshold-kind-mismatch" in capsys.readouterr().out


def test_cycle_in_relations_reported(tmp_path, capsys):
    data = logistics_scenario_data()
    data["cause_effects"].append({
        "id": "loop", "cause": "estimatedSLAFine", "effect": "weather",
        "function": {"type": "lookup", "table": {}},
    })
    data["cause_effects"].append({
        "id": "loop2", "cause": "weather", "effect": "estimatedSLAFine",
        "function": {"type": "lookup", "table": {}},
    })
    path = write_scenario(tmp_path, data)
    assert main(["validate", path]) == 2
    assert "propagation-cycle" in capsys.readouterr().out


def test_expr_relation_is_shape_checked_not_evaluated(tmp_path, capsys):
    data = logistics_scenario_data()
    fine = next(r for r in data["cause_effects"] if r["id"] == "etaToFine")
    fine["function"] = {"type": "expr", "expr": "100 / x"}
    assert main(["validate", write_scenario(tmp_path, data)]) == 0
    fine["function"] = {"type": "expr", "expr": "x ** 2"}
    assert main(["validate", write_scenario(tmp_path, data)]) == 2
    assert "relation-bad-function" in capsys.readouterr().out


def assert_latency_violation(tmp_path, capsys, latency, subject):
    data = logistics_scenario_data()
    data["latency"] = latency
    assert main(["validate", write_scenario(tmp_path, data)]) == 2
    assert f"latency-invalid: {subject}:" in capsys.readouterr().out


def test_latency_jitter_string_is_a_violation(tmp_path, capsys):
    assert_latency_violation(tmp_path, capsys, {"jitter": "2"}, "latency.jitter")


def test_latency_default_string_is_a_violation(tmp_path, capsys):
    assert_latency_violation(tmp_path, capsys, {"default": "1"}, "latency.default")


def test_latency_fractional_default_is_a_violation(tmp_path, capsys):
    assert_latency_violation(tmp_path, capsys, {"default": 1.5}, "latency.default")


def test_latency_channel_must_be_non_negative_integer(tmp_path, capsys):
    for ticks in (-1, True, 2.0, None):
        assert_latency_violation(tmp_path, capsys, {"channels": {"process->rules": ticks}},
                                 "latency.channels[process->rules]")
    assert_latency_violation(tmp_path, capsys, {"jitter": False}, "latency.jitter")


def test_latency_that_is_not_an_object_is_a_violation(tmp_path, capsys):
    assert_latency_violation(tmp_path, capsys, 5, "latency")
    assert_latency_violation(tmp_path, capsys, {"channels": "ab"}, "latency")


def test_zero_and_integer_latencies_validate_clean(tmp_path):
    data = logistics_scenario_data()
    data["latency"] = {"default": 0, "jitter": 0, "channels": {"process->rules": 3}}
    assert main(["validate", write_scenario(tmp_path, data)]) == 0


def assert_violation(tmp_path, capsys, changes, code, subject):
    data = logistics_scenario_data()
    data.update(changes)
    assert main(["validate", write_scenario(tmp_path, data)]) == 2
    assert f"{code}: {subject}:" in capsys.readouterr().out


def with_limit(key, value):
    limits = dict(logistics_scenario_data()["limits"])
    limits[key] = value
    return {"limits": limits}


def test_limits_history_string_is_a_violation(tmp_path, capsys):
    assert_violation(tmp_path, capsys, with_limit("history", "5"),
                     "limits-invalid", "limits.history")


def test_limits_poll_budget_string_is_a_violation(tmp_path, capsys):
    assert_violation(tmp_path, capsys, with_limit("poll_budget", "3"),
                     "limits-invalid", "limits.poll_budget")


def test_limits_max_steps_string_is_a_violation(tmp_path, capsys):
    assert_violation(tmp_path, capsys, with_limit("max_steps", "10"),
                     "limits-invalid", "limits.max_steps")


def test_limits_max_config_steps_string_is_a_violation(tmp_path, capsys):
    assert_violation(tmp_path, capsys, with_limit("max_config_steps", "3"),
                     "limits-invalid", "limits.max_config_steps")


def test_limits_bool_or_negative_is_a_violation(tmp_path, capsys):
    for key in ("max_steps", "poll_budget", "history", "max_config_steps"):
        for value in (True, -1, 2.0):
            assert_violation(tmp_path, capsys, with_limit(key, value),
                             "limits-invalid", f"limits.{key}")
    for key in ("max_steps", "poll_budget", "history"):
        assert_violation(tmp_path, capsys, with_limit(key, None),
                         "limits-invalid", f"limits.{key}")


def test_limits_that_is_not_an_object_is_a_violation(tmp_path, capsys):
    assert_violation(tmp_path, capsys, {"limits": []}, "limits-invalid", "limits")


def test_staleness_max_age_string_is_a_violation(tmp_path, capsys):
    assert_violation(tmp_path, capsys, {"staleness": {"max_age": "5", "decay": 0.5}},
                     "staleness-invalid", "staleness.max_age")


def test_staleness_zero_decay_is_a_violation(tmp_path, capsys):
    assert_violation(tmp_path, capsys, {"staleness": {"max_age": 5, "decay": 0}},
                     "staleness-invalid", "staleness.decay")


def test_staleness_zero_max_age_is_a_violation(tmp_path, capsys):
    assert_violation(tmp_path, capsys, {"staleness": {"max_age": 0, "decay": 0.5}},
                     "staleness-invalid", "staleness.max_age")


def test_empty_staleness_is_a_violation(tmp_path, capsys):
    assert_violation(tmp_path, capsys, {"staleness": {}},
                     "staleness-invalid", "staleness.max_age")


def test_staleness_that_is_not_an_object_is_a_violation(tmp_path, capsys):
    assert_violation(tmp_path, capsys, {"staleness": 3}, "staleness-invalid", "staleness")


def test_auth_that_is_not_an_object_is_a_violation(tmp_path, capsys):
    assert_violation(tmp_path, capsys, {"auth": []}, "auth-invalid", "auth")


def test_auth_deny_must_list_strings(tmp_path, capsys):
    for deny in ("mallory", [1], None):
        assert_violation(tmp_path, capsys, {"auth": {"deny": deny}}, "auth-invalid", "auth")


def test_well_formed_limits_staleness_and_auth_validate_and_run(tmp_path):
    data = logistics_scenario_data()
    data["limits"].update({"max_config_steps": None, "history": 0})
    data["staleness"] = {"max_age": 1, "decay": 1}
    data["auth"] = {"deny": ["mallory"]}
    assert main(["validate", write_scenario(tmp_path, data)]) == 0
    _, completed = run_scenario_data(data)
    assert completed


# --- any JSON document gets a verdict -----------------------------------------------


def set_section(name, value):
    def change(data):
        data[name] = value
        return data
    return change


def change_rule(old, new):
    def change(data):
        data["rules"] = [rule.replace(old, new) for rule in data["rules"]]
        return data
    return change


def change_relation(function):
    def change(data):
        data["cause_effects"][0]["function"] = function
        return data
    return change


def with_agent(kind, spec, reads="estimatedDeliveryTime"):
    """Add a numeric category and one agent reading ``reads`` into it.

    ``reads`` is the ETA, another catalogued category, or ``"record"``,
    which adds a record category for the agent to read.
    """
    def change(data):
        data["catalog"].append({"id": "derived", "kind": "numeric", "parent": "processObject"})
        data["masters"][0]["categories"].append("derived")
        if reads == "record":
            data["catalog"].append({"id": "record", "kind": "record", "parent": "processObject"})
            data["masters"][0]["categories"].append("record")
        data["agents"] = [{"id": "probe", "kind": kind, "inputs": [reads],
                           "output": "derived", "spec": spec}]
        return data
    return change


def relation_onto_its_cause(data):
    data["cause_effects"][1]["effect"] = data["cause_effects"][1]["cause"]
    return data


def with_subprocess(*model_ids):
    """Let each listed model run the next one (the last the first) inline."""
    def change(data):
        models = {model["model_id"]: model for model in data["process_models"]}
        for model_id, target in zip(model_ids, model_ids[1:] + model_ids[:1]):
            models[model_id]["nodes"].insert(-1, {"type": "subprocess", "model": target})
        return data
    return change


def change_mirror(**fields):
    """bpm's first mirror, spare_part_delivery's shipping at load_truck, with ``fields``."""
    def change(data):
        bpm = next(source for source in data["sources"] if source["id"] == "bpm")
        bpm["mirrors"][0].update(fields)
        return data
    return change


def short_timeline_entry(data):
    data["sources"][0]["timeline"] = [[30, "weather"]]
    return data


# each row once raised out of parse_scenario, validated clean and then raised
# during the run, or validated clean and ran wrong
MALFORMED = {
    "document-is-a-list": (lambda data: [], "scenario-invalid"),
    "catalog-of-numbers": (set_section("catalog", [1]), "catalog-invalid"),
    "rules-of-numbers": (set_section("rules", [1]), "rule-invalid"),
    "sources-of-numbers": (set_section("sources", [1]), "source-invalid"),
    "masters-of-numbers": (set_section("masters", [1]), "master-invalid"),
    "cause-effects-of-numbers": (set_section("cause_effects", [1]), "relation-invalid"),
    "process-models-of-numbers": (set_section("process_models", [1]), "model-invalid"),
    "instances-of-numbers": (set_section("instances", [1]), "instance-invalid"),
    "thresholds-as-a-list": (set_section("thresholds", [1]), "threshold-invalid"),
    "two-element-timeline-entry": (short_timeline_entry, "source-invalid"),
    "seed-as-a-list": (set_section("seed", [1]), "seed-invalid"),
    "lookup-without-table": (change_relation({"type": "lookup"}), "relation-bad-function"),
    "linear-on-text-cause": (change_relation({"type": "linear", "a": 1, "b": 0}),
                             "relation-kind-mismatch"),
    "aggregate-median": (with_agent("aggregate", {"reducer": "median"}), "agent-invalid"),
    "filter-without-op": (with_agent("filter", {"value": 50}), "agent-invalid"),
    "text-ordered-against-number": (
        change_rule("estimatedDeliveryTime <= executionTimeConstraint",
                    "weather <= executionTimeConstraint"), "rule-kind-mismatch"),
    "aggregate-window-zero": (with_agent("aggregate", {"window": 0, "reducer": "count"}),
                              "agent-invalid"),
    "aggregate-window-negative": (with_agent("aggregate", {"window": -1, "reducer": "count"}),
                                  "agent-invalid"),
    "relation-cause-is-effect": (relation_onto_its_cause, "relation-invalid"),
    "filter-orders-number-against-text": (with_agent("filter", {"op": "<", "value": "soon"}),
                                          "agent-kind-mismatch"),
    "mean-over-text": (with_agent("aggregate", {"reducer": "mean"}, reads="weather"),
                       "agent-kind-mismatch"),
    "min-over-record": (with_agent("aggregate", {"reducer": "min"}, reads="record"),
                        "agent-kind-mismatch"),
    "subprocess-enters-itself": (with_subprocess("spare_part_delivery"),
                                 "model-subprocess-cycle"),
    "subprocess-loop-of-two": (with_subprocess("spare_part_delivery",
                                               "spare_part_delivery_comp"),
                               "model-subprocess-cycle"),
    "latency-of-no-channel": (set_section("latency", {"channels": {"process->context": 5}}),
                              "latency-invalid"),
    "rule-literal-too-long": (change_rule("< estimatedDeliveryTime", "< " + "9" * 5000),
                              "rule-parse-error"),
    "mirror-of-no-model": (change_mirror(model="nowhere"), "mirror-unknown-target"),
    "mirror-of-no-gate": (change_mirror(gate="nogate"), "mirror-unknown-target"),
    "mirror-after-no-task": (change_mirror(trigger="task:nosuch"), "mirror-unknown-target"),
    "mirror-of-an-unprovided-category": (change_mirror(category="weather"),
                                         "mirror-unknown-target"),
}


def edited(edit):
    """A change that applies ``edit`` to the document and returns it."""
    def change(data):
        edit(data)
        return data
    return change


def model(data, model_id):
    return next(m for m in data["process_models"] if m["model_id"] == model_id)


def parents_in_a_ring(data):
    entries = {entry["id"]: entry for entry in data["catalog"]}
    entries["geospatial"]["parent"], entries["traffic"]["parent"] = "traffic", "geospatial"


def rename_packaging_gate(data):
    shipping = model(data, "spare_part_delivery_comp")["nodes"][2]
    shipping["variants"]["plane"][0]["id"] = "shipping"


def late_share(data):
    data["instances"].append({"id": "p2", "model": "spare_part_delivery", "share_with": "p1"})


def declare_instance(instance_id):
    def edit(data):
        data["instances"].append({"id": instance_id, "model": "spare_part_delivery",
                                  "principal": "dispatcher-7", "start_tick": 30})
    return edit


# each row is a section cross-check no other test reaches
CROSS_CHECKS = {
    "catalog-duplicate": edited(lambda data: data["catalog"].append(data["catalog"][3])),
    "catalog-parent-cycle": edited(parents_in_a_ring),
    "rule-parse-error": edited(lambda data: data["rules"].append("RULE Broken\nWHEN\nEND")),
    "rule-duplicate": edited(lambda data: data["rules"].append(data["rules"][0])),
    "model-duplicate-gate": edited(rename_packaging_gate),
    "model-unknown-compensation": edited(lambda data: model(data, "spare_part_delivery")[
        "compensation_refs"].update({"process.compensation.other": "nowhere"})),
    "model-unknown-subprocess": edited(lambda data: model(data, "spare_part_delivery")[
        "nodes"].insert(-1, {"type": "subprocess", "model": "nowhere"})),
    "instance-duplicate": edited(lambda data: data["instances"].append(data["instances"][0])),
    "instance-unknown-share": edited(lambda data: data["instances"][0].update(
        share_with="nobody")),
    "instance-share-order": edited(late_share),
    "instance-reserved-id": edited(declare_instance("p1.comp1")),
    "UnknownActionTarget": change_rule("selectVariant(shipping, truck)", "rollback(nowhere)"),
    "master-missing-parent": edited(lambda data: data["masters"][0]["categories"].remove(
        "geospatial")),
}


@pytest.mark.parametrize("change, code", [*MALFORMED.values(), *(
    (change, code) for code, change in CROSS_CHECKS.items())],
    ids=[*MALFORMED, *CROSS_CHECKS])
def test_malformed_document_is_a_violation(tmp_path, capsys, change, code):
    data = change(logistics_scenario_data())
    assert main(["validate", write_scenario(tmp_path, data)]) == 2
    assert code in [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    with pytest.raises(ScenarioParseError):
        run_scenario_data(data)


def test_mirror_may_name_a_gate_and_task_its_subprocess_runs(tmp_path, capsys):
    data = logistics_scenario_data()
    data["process_models"].append({"model_id": "wrapper", "nodes": [
        {"type": "start"}, {"type": "subprocess", "model": "spare_part_delivery"},
        {"type": "end"}]})
    change_mirror(model="wrapper")(data)  # shipping at load_truck, both in the subprocess
    assert main(["validate", write_scenario(tmp_path, data)]) == 0, capsys.readouterr().out


def test_parse_and_build_walk_each_model_once(monkeypatch):
    from ctxflow import process_engine
    from ctxflow.scenario import build_simulation

    walked = []
    walk = process_engine.walk_nodes
    monkeypatch.setattr(process_engine, "walk_nodes",
                        lambda nodes: walked.append(nodes) or walk(nodes))
    scenario, violations = parse_scenario(logistics_scenario_data())
    assert violations == []
    build_simulation(scenario)
    assert sorted(map(id, walked)) == sorted(
        id(model.nodes) for model in scenario.process_models.values())


@pytest.mark.parametrize("field, value", [("reliability", 1.5), ("interval", 0), ("cost", -1)])
def test_source_value_out_of_range_is_a_violation(tmp_path, capsys, field, value):
    data = logistics_scenario_data()
    data["sources"][0][field] = value  # weatherService, a poll source
    assert main(["validate", write_scenario(tmp_path, data)]) == 2
    assert "source-invalid: weatherService:" in capsys.readouterr().out


@pytest.mark.parametrize("instance_id, reserved", [
    ("p1.comp1", True), ("p1.comp2.comp1", True), ("p1.comp12", True),
    ("p1.comp0", False), ("p1.comp", False), ("p1.comp1x", False), ("p1comp1", False),
    ("p2.comp1", False),  # p2 is not declared
])
def test_compensation_child_ids_are_reserved(tmp_path, capsys, instance_id, reserved):
    data = logistics_scenario_data()
    declare_instance(instance_id)(data)
    assert main(["validate", write_scenario(tmp_path, data)]) == (2 if reserved else 0)
    assert ("instance-reserved-id" in capsys.readouterr().out) is reserved


def document_nodes(holder):
    """Every (container, key) pair below ``holder``, depth first."""
    nodes = []

    def walk(container):
        for key in (list(container) if isinstance(container, dict) else range(len(container))):
            nodes.append((container, key))
            if isinstance(container[key], (dict, list)):
                walk(container[key])

    walk(holder)
    return nodes


ODD_VALUES = st.sampled_from([None, True, -1, 0, 2.5, "x", "", 10 ** 30, [], {}, [1], {"a": 1}])


STRUCTURAL = ("container", "element", "missing", "short")


@st.composite
def mutated_documents(draw, kinds=STRUCTURAL):
    """A logistics or generated scenario after one to four mutations.

    Each mutation, at a node drawn from the whole document (the deepest
    first, so that simple examples change a leaf), is one of ``kinds``:
    change a container's type, replace a value with one of another type,
    delete a key, drop a list's last element, or ``retype``: give a string
    another string of the document, such as a category, kind or operator
    name, or a number another number.
    """
    if draw(st.booleans()):
        data = logistics_scenario_data()
    else:
        data = random_scenario(random.Random(draw(st.integers(0, 2 ** 16))),
                               jitter=draw(st.sampled_from([0, 2])))
    holder = {"document": data}
    for _ in range(draw(st.integers(1, 4))):
        container, key = draw(st.sampled_from(document_nodes(holder)[::-1]))
        value, kind = container[key], draw(st.sampled_from(kinds))
        if kind == "retype" and isinstance(value, str):
            names = sorted({v for c, k in document_nodes(holder) for v in (c[k], k)
                            if isinstance(v, str)})
            container[key] = draw(st.sampled_from(names))
        elif kind == "retype" and type(value) in (int, float):
            container[key] = draw(st.sampled_from([0, 1, 5, 40, 0.5]))
        elif kind == "missing" and container is not holder and isinstance(container, dict):
            del container[key]
        elif kind == "short" and isinstance(value, list) and value:
            value.pop()
        elif kind == "container":
            container[key] = list(value.values()) if isinstance(value, dict) else \
                dict(enumerate(value)) if isinstance(value, list) else [value]
        elif kind == "element":
            container[key] = copy.deepcopy(draw(ODD_VALUES))
    return holder["document"]


@settings(max_examples=150, deadline=None)
@given(data=mutated_documents())
def test_parse_never_raises_on_mutated_documents(data):
    scenario, violations = parse_scenario(data)
    assert all(v.code and isinstance(v.subject, str) for v in violations)


def test_object_key_that_is_not_a_string_is_a_violation():
    data = logistics_scenario_data()
    data["thresholds"] = dict(enumerate(data["thresholds"].values()))
    data["latency"]["channels"] = {7: 1}
    violations = parse_scenario(data)[1]
    assert {(v.code, v.subject) for v in violations} == {
        ("threshold-invalid", "thresholds[0]"), ("threshold-invalid", "thresholds[1]"),
        ("latency-invalid", "latency.channels[7]")}


@settings(max_examples=50, deadline=None)
@given(data=mutated_documents(kinds=("retype",) * 6 + ("missing", "short")))
def test_clean_document_runs_without_raising(data):
    assume(not parse_scenario(data)[1])
    assembly, completed = run_scenario_data(data, max_steps=20000)
    assert completed or assembly.simulation.truncated


def test_agent_arithmetic_fault_becomes_engine_error(tmp_path):
    data = with_agent("aggregate", {"window": 2, "reducer": "mean"})(logistics_scenario_data())
    data["cause_effects"][0]["function"]["table"]["clear"] = 10 ** 400
    assert main(["validate", write_scenario(tmp_path, data)]) == 0
    assembly, completed = run_scenario_data(data)
    assert completed
    faults = {(r.payload["error"], r.payload["relation"])
              for r in assembly.simulation.trace_log.find("engine_error")}
    assert faults == {("OverflowError", "probe")}


@pytest.mark.parametrize("limit", [4300, 0])
def test_derived_integer_too_long_for_text_becomes_engine_error(tmp_path, limit):
    data = logistics_scenario_data()
    data["cause_effects"][0]["function"]["table"]["clear"] = 10 ** 4000
    data["cause_effects"][1]["function"]["a"] = 10 ** 400
    path = write_scenario(tmp_path, data)
    out = tmp_path / "run.trace"
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert main(["validate", path]) == 0
        assert main(["run", path, "--trace-out", str(out)]) == 0
        faults = Trace.read(str(out)).find("engine_error")
    finally:
        sys.set_int_max_str_digits(default)
    if limit:
        assert faults and {(r.payload["error"], r.payload["relation"]) for r in faults} == {
            ("OverflowError", "etaToFine")}
    else:
        assert faults == []


# --- run ---------------------------------------------------------------------------


def test_run_writes_trace_and_exits_zero(tmp_path):
    path = write_scenario(tmp_path, logistics_scenario_data())
    out = tmp_path / "run.trace"
    assert main(["run", path, "--trace-out", str(out)]) == 0
    assert out.exists() and out.read_text().strip()


def test_run_truncated_exits_four(tmp_path):
    path = write_scenario(tmp_path, logistics_scenario_data())
    out = tmp_path / "run.trace"
    assert main(["run", path, "--trace-out", str(out), "--max-steps", "3"]) == 4


def test_seed_override_is_noop_without_randomness(tmp_path):
    path = write_scenario(tmp_path, logistics_scenario_data())
    out_a = tmp_path / "a.trace"
    out_b = tmp_path / "b.trace"
    assert main(["run", path, "--trace-out", str(out_a), "--seed", "1"]) == 0
    assert main(["run", path, "--trace-out", str(out_b), "--seed", "2"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


# --- replay ------------------------------------------------------------------------


def test_replay_same_seed_matches(tmp_path):
    path = write_scenario(tmp_path, logistics_scenario_data())
    out_a = tmp_path / "a.trace"
    out_b = tmp_path / "b.trace"
    main(["run", path, "--trace-out", str(out_a)])
    main(["run", path, "--trace-out", str(out_b)])
    assert main(["replay", str(out_a), str(out_b)]) == 0


def test_replay_trace_against_itself(tmp_path):
    path = write_scenario(tmp_path, logistics_scenario_data())
    out = tmp_path / "a.trace"
    main(["run", path, "--trace-out", str(out)])
    assert main(["replay", str(out), str(out)]) == 0


def test_replay_reports_divergence_point(tmp_path):
    rng = random.Random(5)
    data = random_scenario(rng, jitter=3)
    path = write_scenario(tmp_path, data)
    out_a = tmp_path / "a.trace"
    out_b = tmp_path / "b.trace"
    main(["run", path, "--trace-out", str(out_a), "--seed", "10"])
    main(["run", path, "--trace-out", str(out_b), "--seed", "20"])
    ok, detail = replay_verify(str(out_a), str(out_b))
    assert not ok
    assert detail.startswith("divergence at seq ")


def write_trace(path, values):
    trace = Trace()
    for value in values:
        trace.emit(0, "context", "value_updated", {"v": value})
    trace.write(path)
    return str(path)


def test_replay_detail_names_divergence_and_length_mismatch(tmp_path, capsys):
    base = write_trace(tmp_path / "base.trace", [1, 2, 3])
    changed = write_trace(tmp_path / "changed.trace", [1, 9, 3])
    short = write_trace(tmp_path / "short.trace", [1, 2])
    assert replay_verify(base, changed) == (False, (
        "divergence at seq 1: "
        """b'{"kind":"value_updated","payload":{"v":2},"pool":"context","seq":1,"tick":0}' != """
        """b'{"kind":"value_updated","payload":{"v":9},"pool":"context","seq":1,"tick":0}'"""))
    mismatch = (False, "length mismatch; first extra record has seq 2")
    assert replay_verify(base, short) == mismatch
    assert replay_verify(short, base) == mismatch
    assert main(["replay", short, base]) == 1
    assert capsys.readouterr().out == mismatch[1] + "\n"


def test_replay_of_an_unreadable_trace_is_a_read_error(tmp_path, capsys):
    trace = write_trace(tmp_path / "base.trace", [1])
    for missing in (str(tmp_path / "missing.trace"), str(tmp_path)):
        for pair in ([missing, trace], [trace, missing]):
            assert main(["replay", *pair]) == 3
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("cannot read trace: ")
            assert err.count("\n") == 1


# --- trace canonical form -------------------------------------------------------------


def test_trace_serialization_round_trips(tmp_path):
    path = write_scenario(tmp_path, logistics_scenario_data())
    out = tmp_path / "a.trace"
    main(["run", path, "--trace-out", str(out)])
    parsed = Trace.read(str(out))
    assert parsed.to_text() == out.read_text()


def test_record_key_order_is_canonical():
    record = TraceRecord(3, 7, "rules", "bound", {"b": 1, "a": 2})
    line = record.to_line()
    assert line.index('"kind"') < line.index('"payload"') < line.index('"pool"')
    assert TraceRecord.from_line(line) == record


def test_canonical_json_is_stable():
    assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


def oracle_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text()
    | st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)


@settings(deadline=None)
@given(payloads=st.lists(st.dictionaries(st.text(), json_values, max_size=5), max_size=4),
       pool=st.text(max_size=8), kind=st.text(max_size=12))
def test_trace_lines_match_json_dumps(payloads, pool, kind):
    trace = Trace()
    for i, payload in enumerate(payloads):
        record = trace.emit(i * 3, pool, kind, payload)
        assert canonical_json(payload) == oracle_json(payload)
        assert record.to_line() == oracle_json({
            "kind": kind, "payload": payload, "pool": pool, "seq": i, "tick": i * 3,
        })
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "run.trace")
        trace.write(path)
        with open(path, "rb") as handle:
            assert handle.read() == trace.to_text().encode("ascii")


# Payload keys that are not strings: ints sort among themselves, any other
# kind stands alone, as json.dumps(sort_keys=True) needs.
other_keys = (st.dictionaries(st.integers(), json_values, min_size=1, max_size=3)
              | st.dictionaries(st.none() | st.booleans() | st.floats(), json_values,
                                min_size=1, max_size=1))


@st.composite
def traces_sharing_values(draw):
    """Records whose top-level values include dicts shared between records, some
    reused right away and some after more fresh dicts than the writer's memo holds."""
    shared = draw(st.lists(st.dictionaries(st.text(max_size=2), json_values, max_size=3),
                           min_size=1, max_size=4))
    value = (json_values | st.text(st.characters(min_codepoint=0x80), min_size=1, max_size=3)
             | st.integers(0, len(shared) - 1).map(shared.__getitem__))
    trace = Trace()
    for tick in range(draw(st.integers(1, 6))):
        for i in range(draw(st.sampled_from([0, 1, 70]))):
            fresh = {"i": i}  # one new dict per filler, reused within it
            trace.emit(tick, "context", "filler", {"fresh": fresh, "same": fresh})
        payload = draw(st.dictionaries(st.text(max_size=4), value, max_size=4) | other_keys)
        trace.emit(tick, draw(st.sampled_from(["context", "r\u00e9gles"])),
                   draw(st.sampled_from(["value_updated", "k\u00efnd"])), payload)
    return trace


@settings(deadline=None)
@given(trace=traces_sharing_values())
def test_trace_writer_matches_json_dumps_when_records_share_values(trace):
    expected = [oracle_json({"kind": r.kind, "payload": r.payload, "pool": r.pool,
                             "seq": r.seq, "tick": r.tick}) + "\n" for r in trace]
    assert list(trace.lines()) == expected
    assert [record.to_line() + "\n" for record in trace] == expected


def test_trace_writer_memo_stays_bounded():
    # every record is alive while its trace is written, so the memo must not
    # keep a text for each of them
    writer = _LineWriter()
    for seq in range(1000):
        value = {"seq": seq}  # reused within its record, so every record is walked
        writer.line(TraceRecord(seq, 0, "context", "value_updated", {"a": value, "b": value}))
        assert len(writer._memo) <= 64


# --- generated scenarios: validate then run never crashes --------------------------------


def test_generated_scenarios_validate_and_run(rng):
    for i in range(15):
        data = random_scenario(rng)
        scenario, violations = parse_scenario(data)
        assert not violations, (i, violations[:2])
        assembly, completed = run_scenario_data(data)
        assert completed
        assert assembly.process.all_terminal()


# --- cross-process determinism (hash-seed independence) -----------------------------------


def test_cli_single_run_under_varied_hash_seeds(tmp_path):
    path = write_scenario(tmp_path, logistics_scenario_data())
    outputs = []
    for hash_seed in ("0", "424242"):
        out = tmp_path / f"h{hash_seed}.trace"
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        result = subprocess.run(
            [sys.executable, "-m", "ctxflow.cli", "run", path,
             "--trace-out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
