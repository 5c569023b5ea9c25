import copy
import enum
import functools
import itertools
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
from ctxflow.model import Violation
from ctxflow.rule_dsl import MAX_CONDITION_NESTING
from ctxflow.scenario import MAX_NESTING, build_simulation, parse_scenario, run_scenario_data
from ctxflow.trace import (
    _BLOCK, _MAX_FIELDS, Trace, TraceRecord, _line_maker, _line_source, _LineWriter,
    canonical_json, replay_verify,
)

from .conftest import logistics_scenario_data
from .scenario_gen import random_scenario
from .test_trace_digests import PINNED, trace_digest
from .trace_oracle import check


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


def test_json_nested_too_deeply_is_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["validate", str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"parse error: cannot read scenario {path}: ")


def nested_gates(depth):
    """Logistics with a chain of ``depth`` gates, each the one variant of the last."""
    branch = [{"type": "task", "name": "t", "duration": 1}]
    for i in range(depth):
        branch = [{"type": "gate", "id": f"g{i}", "default": "a", "variants": {"a": branch}}]
    data = logistics_scenario_data()
    data["process_models"][0]["nodes"].insert(-1, branch[0])
    return data


def test_documents_nested_too_deeply_are_one_violation(tmp_path, capsys):
    rule = logistics_scenario_data()["rules"][0]
    deep_rule = logistics_scenario_data()
    deep_rule["rules"][0] = rule.replace("WHEN ", "WHEN " + "(" * 5000).replace(
        "\n    AND", ")" * 5000 + "\n    AND")
    for data in (nested_gates(250), deep_rule):
        assert main(["validate", write_scenario(tmp_path, data)]) == 2
        assert capsys.readouterr().out == (
            "scenario-invalid: scenario: nested too deeply\n1 violation(s)\n")
    assert main(["validate", write_scenario(tmp_path, nested_gates(100))]) == 0


def call_at_depth(frames, fn):
    """``fn()`` called with ``frames`` more frames on the stack."""
    return fn() if frames == 0 else call_at_depth(frames - 1, fn)


def nested_parentheses(depth):
    """Logistics with its first rule's condition inside ``depth`` parentheses."""
    data = logistics_scenario_data()
    data["rules"][0] = data["rules"][0].replace("WHEN ", "WHEN " + "(" * depth).replace(
        "\n    AND", ")" * depth + "\n    AND")
    return data


def gates_nesting(levels):
    """Nested gates whose document nests ``levels`` arrays and objects deep."""
    gates, extra = divmod(levels - 5, 3)  # five levels down to the outer gate, three per gate
    data = nested_gates(gates)
    node = data["process_models"][0]["nodes"][-2]
    while node["type"] == "gate":
        node = node["variants"]["a"][0]
    if extra:  # an unknown key: ignored, but nested
        node["note"] = functools.reduce(lambda inner, _: [inner], range(extra - 1), [])
    return data


@pytest.mark.parametrize("document, bound", [
    (gates_nesting, MAX_NESTING), (nested_parentheses, MAX_CONDITION_NESTING)])
def test_nesting_verdict_depends_only_on_the_document(document, bound):
    too_deep = [Violation("scenario-invalid", "scenario", "nested too deeply")]
    for depth, verdict in ((bound, []), (bound + 1, too_deep)):
        data = document(depth)
        for frames in (0, 300):
            assert call_at_depth(frames, lambda: parse_scenario(data)[1]) == verdict, (
                depth, frames)


def test_a_deep_value_reported_as_unfit_gets_one_verdict():
    # a timeline entry with a negative tick, whose value nests 800 deep
    data = logistics_scenario_data()
    data["sources"][0]["timeline"].append(
        [-1, "weather", functools.reduce(lambda inner, _: [inner], range(800), "x")])
    verdicts = [call_at_depth(frames, lambda: parse_scenario(data)[1]) for frames in (0, 300)]
    assert verdicts[0] == verdicts[1] == [Violation(
        "source-invalid", "sources[0]",
        "a value nested too deeply is not [a non-negative integer, a string, a JSON value]")]


def with_deep_records(depth):
    """Logistics with two record categories: a source's timeline and poll table
    fill ``route``, and a lookup on the weather fills ``plan``, each with a
    value that nests ``depth`` objects deep."""
    deep = functools.reduce(lambda inner, _: {"next": inner}, range(depth - 1), {})
    data = logistics_scenario_data()
    for category in ("route", "plan"):
        data["catalog"].append({"id": category, "kind": "record", "parent": "processObject"})
        data["masters"][0]["categories"].append(category)
    data["sources"].append({"id": "router", "provides": ["route"],
                            "timeline": [[5, "route", deep]], "poll": {"route": [[0, deep]]}})
    data["cause_effects"].append({"id": "weatherToPlan", "cause": "weather", "effect": "plan",
                                  "function": {"type": "lookup", "table": {"clear": deep},
                                               "default": deep}})
    return data


def test_a_payload_nested_too_deeply_to_be_traced_is_a_violation():
    # at the bound the run's trace is written; past it (5,000 deep once
    # validated clean, ran, and then could not be written) parse reports it
    assembly, completed = run_scenario_data(with_deep_records(MAX_NESTING))
    trace = assembly.simulation.trace_log
    assert completed and trace.find("value_updated", category="route")
    assert trace.find("value_updated", category="plan")
    assert trace.to_text() == "".join(expected_lines(trace))
    for depth in (MAX_NESTING + 1, 5000):
        assert parse_scenario(with_deep_records(depth))[1] == [
            Violation("source-invalid", "router", "nested too deeply"),
            Violation("source-invalid", "router", "nested too deeply"),
            Violation("relation-kind-mismatch", "weatherToPlan",
                      "its value for 'clear' is nested too deeply"),
            Violation("relation-kind-mismatch", "weatherToPlan",
                      "its default is nested too deeply")]


def compose_chain(length, reverse=False):
    """Logistics with ``length`` record categories, each composed from the one
    before it and the first from the weather; declared last first if ``reverse``."""
    data = logistics_scenario_data()
    records = [f"record{i}" for i in range(length)]
    data["catalog"] += [{"id": record, "kind": "record", "parent": "processObject"}
                        for record in records]
    data["masters"][0]["categories"] += records
    data["agents"] = [{"id": f"compose{i}", "kind": "compose", "inputs": [cause],
                       "output": record}
                      for i, (cause, record) in enumerate(zip(["weather", *records], records))]
    if reverse:
        data["agents"].reverse()
    return data


def test_a_short_compose_chain_is_traced():
    assembly, completed = run_scenario_data(compose_chain(10))
    trace = assembly.simulation.trace_log
    assert completed and trace.find("value_updated", category="record9")
    assert trace.to_text() == "".join(expected_lines(trace))


@pytest.mark.parametrize("length, reverse", [
    (MAX_NESTING, False), (MAX_NESTING + 1, False), (1200, False), (1200, True)])
def test_a_compose_chain_too_long_to_be_traced_is_a_violation(length, reverse):
    # 1,200 once validated clean and ran, and then could not be written; in
    # reverse order it was one scenario-invalid
    assert parse_scenario(compose_chain(length, reverse))[1] == [
        Violation("agent-invalid", f"compose{i}",
                  f"{i + 1} compose nodes on its longest path, more than {MAX_NESTING}")
        for i in range(MAX_NESTING, length)]


def split_with_fan_out(outputs, fan_out):
    """Logistics with a record ``rec`` split into the numerics ``x``, ``y`` and
    ``z``, a relation ``yz`` from ``y`` to ``z``, and a push of the record."""
    data = logistics_scenario_data()
    data["catalog"] += [{"id": "rec", "kind": "record", "parent": "processObject"},
                        *({"id": c, "kind": "numeric", "parent": "processObject"} for c in "xyz")]
    data["masters"][0]["categories"] += ["rec", "x", "y", "z"]
    data["cause_effects"].append({"id": "yz", "cause": "y", "effect": "z",
                                  "function": {"type": "linear", "a": 1, "b": 0}})
    data["agents"] = [{"id": "sp", "kind": "split", "inputs": ["rec"], "outputs": outputs,
                       "spec": {"fan_out": fan_out}}]
    data["sources"].append({"id": "feed", "provides": ["rec"],
                            "timeline": [[30, "rec", {"a": 1, "b": 2, "c": 3}]]})
    return data


def test_a_split_fans_out_only_into_its_outputs():
    # a fan_out category outside the outputs validated clean, and the split
    # ran after the relation reading it: y was written, z never
    data = split_with_fan_out(["x"], {"a": "x", "b": "y", "c": "uncatalogued"})
    assert parse_scenario(data)[1] == [
        Violation("agent-invalid", "sp", "a split's fan_out categories must be its outputs")]
    scenario, violations = parse_scenario(split_with_fan_out(["x", "y"], {"a": "x", "b": "y"}))
    assert violations == []
    assert [node.node_id for node in scenario.propagation] == [
        "weatherToEta", "etaToFine", "sp", "yz"]
    trace = build_simulation(scenario).simulation.run()
    assert [(r.tick, r.payload["value"]["payload"]) for r in trace.find(
        "value_updated", category="z")] == [(31, 2)]


@pytest.mark.parametrize("kind, spec", [
    ("filter", {"op": ">", "value": 0}),
    ("aggregate", {"window": 2, "reducer": "max"}),
    ("translate", {"map": {}, "default": 1}),
])
def test_only_a_split_has_several_outputs(kind, spec):
    # such an agent validated clean, and its run wrote only its first output
    data = logistics_scenario_data()
    data["catalog"] += [{"id": c, "kind": "numeric", "parent": "processObject",
                         "requires_value": False} for c in ("derived", "derived2")]
    data["masters"][0]["categories"] += ["derived", "derived2"]
    data["agents"] = [{"id": "twice", "kind": kind, "inputs": ["estimatedDeliveryTime"],
                       "outputs": ["derived", "derived2"], "spec": spec}]
    assert parse_scenario(data)[1] == [
        Violation("agent-invalid", "twice", "only a split writes more than one output")]


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
    for key in ("max_steps", "poll_budget", "max_config_steps"):
        for value in (True, -1, 2.0):
            assert_violation(tmp_path, capsys, with_limit(key, value),
                             "limits-invalid", f"limits.{key}")
    for key in ("max_steps", "poll_budget"):
        assert_violation(tmp_path, capsys, with_limit(key, None),
                         "limits-invalid", f"limits.{key}")


def test_limits_that_is_not_an_object_is_a_violation(tmp_path, capsys):
    assert_violation(tmp_path, capsys, {"limits": []}, "limits-invalid", "limits")


def test_auth_that_is_not_an_object_is_a_violation(tmp_path, capsys):
    assert_violation(tmp_path, capsys, {"auth": []}, "auth-invalid", "auth")


def test_auth_deny_must_list_strings(tmp_path, capsys):
    for deny in ("mallory", [1], None):
        assert_violation(tmp_path, capsys, {"auth": {"deny": deny}}, "auth-invalid", "auth")


def test_well_formed_limits_and_auth_validate_and_run(tmp_path):
    data = logistics_scenario_data()
    data["limits"].update({"max_config_steps": None})
    data["auth"] = {"deny": ["mallory"]}
    assert main(["validate", write_scenario(tmp_path, data)]) == 0
    _, completed = run_scenario_data(data)
    assert completed


def test_staleness_key_is_ignored(tmp_path):
    for staleness in ({}, {"max_age": 0, "decay": 0}, {"max_age": 1, "decay": 1}):
        data = logistics_scenario_data()
        data["staleness"] = staleness
        assert main(["validate", write_scenario(tmp_path, data)]) == 0
        assert trace_digest(data) == PINNED["logistics"]


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


def with_agent(kind, spec, reads="estimatedDeliveryTime", writes="derived"):
    """Add a numeric category and one agent reading ``reads`` into ``writes``.

    ``reads`` is the ETA, another catalogued category, or ``"record"``,
    which adds a record category for the agent to read; ``writes`` is the
    added numeric category or another catalogued one.
    """
    def change(data):
        data["catalog"].append({"id": "derived", "kind": "numeric", "parent": "processObject"})
        data["masters"][0]["categories"].append("derived")
        if reads == "record":
            data["catalog"].append({"id": "record", "kind": "record", "parent": "processObject"})
            data["masters"][0]["categories"].append("record")
        data["agents"] = [{"id": "probe", "kind": kind, "inputs": [reads],
                           "output": writes, "spec": spec}]
        return data
    return change


def change_fine_relation(**fields):
    """etaToFine, a linear relation reading the numeric ETA, with ``fields``."""
    def change(data):
        data["cause_effects"][1].update(fields)
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


def delivery_inlines_its_compensation(data):
    """Both models define shipping and packaging, and one instance would run both."""
    data["process_models"][0]["nodes"].insert(
        -1, {"type": "subprocess", "model": "spare_part_delivery_comp"})
    return data


def short_timeline_entry(data):
    data["sources"][0]["timeline"] = [[30, "weather"]]
    return data


def change_source(source_id, edit):
    def change(data):
        edit(next(source for source in data["sources"] if source["id"] == source_id))
        return data
    return change


def mirror_into_a_numeric_category(bpm):
    bpm["provides"].append("maxSLAFineAmount")
    bpm["mirrors"][0]["category"] = "maxSLAFineAmount"


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
    "linear-into-text": (change_fine_relation(effect="itemDamage"), "relation-kind-mismatch"),
    "expr-into-text": (change_fine_relation(effect="itemDamage",
                                            function={"type": "expr", "expr": "x / 2"}),
                       "relation-kind-mismatch"),
    "lookup-default-its-effect-cannot-hold": (change_relation(
        {"type": "lookup", "table": {"clear": 40}, "default": "late"}), "relation-kind-mismatch"),
    "translate-value-its-output-cannot-hold": (with_agent(
        "translate", {"map": {"clear": "forty"}}, reads="weather"), "agent-kind-mismatch"),
    "translate-default-its-output-cannot-hold": (with_agent(
        "translate", {"map": {"clear": 40}, "default": "late"}, reads="weather"),
        "agent-kind-mismatch"),
    "compose-into-a-number": (with_agent("compose", {}, reads="weather",
                                         writes="estimatedDeliveryTime"), "agent-kind-mismatch"),
    "filter-of-text-into-a-number": (with_agent("filter", {"op": "==", "value": "clear"},
                                                reads="weather"), "agent-kind-mismatch"),
    "last-of-text-into-a-number": (with_agent("aggregate", {"reducer": "last"}, reads="weather"),
                                   "agent-kind-mismatch"),
    "mean-into-text": (with_agent("aggregate", {"reducer": "mean"}, writes="itemDamage"),
                       "agent-kind-mismatch"),
    "count-into-text": (with_agent("aggregate", {"reducer": "count"}, writes="itemDamage"),
                        "agent-kind-mismatch"),
    "subprocess-enters-itself": (with_subprocess("spare_part_delivery"),
                                 "model-subprocess-cycle"),
    "subprocess-loop-of-two": (with_subprocess("spare_part_delivery",
                                               "spare_part_delivery_comp"),
                               "model-subprocess-cycle"),
    "gate-in-a-model-and-its-subprocess": (delivery_inlines_its_compensation,
                                           "model-duplicate-gate"),
    "latency-of-no-channel": (set_section("latency", {"channels": {"process->context": 5}}),
                              "latency-invalid"),
    "rule-literal-too-long": (change_rule("< estimatedDeliveryTime", "< " + "9" * 5000),
                              "rule-parse-error"),
    "mirror-of-no-model": (change_mirror(model="nowhere"), "mirror-unknown-target"),
    "mirror-of-no-gate": (change_mirror(gate="nogate"), "mirror-unknown-target"),
    "mirror-after-no-task": (change_mirror(trigger="task:nosuch"), "mirror-unknown-target"),
    "mirror-of-an-unprovided-category": (change_mirror(category="weather"),
                                         "mirror-unknown-target"),
    "poll-payload-its-category-cannot-hold": (change_source("erp", lambda erp: erp["poll"].update(
        maxSLAFineAmount=[[0, "lots"]])), "source-kind-mismatch"),
    "timeline-payload-its-category-cannot-hold": (change_source(
        "weatherService", lambda weather: weather.update(timeline=[[30, "weather", 7]])),
        "source-kind-mismatch"),
    "mirror-into-a-numeric-category": (change_source("bpm", mirror_into_a_numeric_category),
                                       "source-kind-mismatch"),
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


def start_second(data):
    nodes = model(data, "spare_part_delivery")["nodes"]
    nodes.insert(1, nodes.pop(0))


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
    "rule-foreign-gate": change_rule("selectVariant(packaging, eco)",
                                     "selectVariant(shipping, truck)"),
    "master-missing-parent": edited(lambda data: data["masters"][0]["categories"].remove(
        "geospatial")),
    "model-no-master": edited(lambda data: model(data, "spare_part_delivery").pop(
        "context_master")),
    "model-bad-default": edited(lambda data: model(data, "spare_part_delivery")["nodes"][2]
                                .update(default="boat")),
    "model-no-end": edited(lambda data: model(data, "spare_part_delivery")["nodes"].pop()),
    "model-no-start": edited(start_second),
    "model-start-count": edited(lambda data: model(data, "spare_part_delivery")["nodes"].insert(
        -1, {"type": "start"})),
    "instance-unknown-model": edited(lambda data: data["instances"][0].update(model="nowhere")),
    "model-unknown-master": edited(lambda data: model(data, "spare_part_delivery").update(
        context_master="nowhere")),
    "threshold-unknown-model": edited(lambda data: data["thresholds"].update(nowhere=[])),
    "threshold-unknown-category": edited(lambda data: data["thresholds"][
        "spare_part_delivery"].append({"category": "nowhere"})),
    "catalog-unknown-parent": edited(lambda data: data["catalog"][3].update(parent="nowhere")),
    "master-unknown-category": edited(lambda data: data["masters"][0]["categories"].append(
        "nowhere")),
    "source-unknown-category": edited(lambda data: data["sources"][0]["provides"].append(
        "nowhere")),
}

# cross-checks under a code that other rows already name: each keeps a
# message that the engines do not handle from being sent
CROSS_CHECKS_BY_ID = {
    "undeclared-compensation-ref": (change_rule(
        "start process.compensation.deliveryVariant", "start process.compensation.nowhere"),
        "UnknownActionTarget"),
    "mirror-trigger-of-no-kind": (change_mirror(trigger="decision:shipping"), "source-invalid"),
}


@pytest.mark.parametrize("change, code", [*MALFORMED.values(), *(
    (change, code) for code, change in CROSS_CHECKS.items()), *CROSS_CHECKS_BY_ID.values()],
    ids=[*MALFORMED, *CROSS_CHECKS, *CROSS_CHECKS_BY_ID])
def test_malformed_document_is_a_violation(tmp_path, capsys, change, code):
    data = change(logistics_scenario_data())
    assert main(["validate", write_scenario(tmp_path, data)]) == 2
    assert code in [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    with pytest.raises(ScenarioParseError):
        run_scenario_data(data)


def test_rule_text_without_its_head_is_a_parse_error_on_its_id():
    data = logistics_scenario_data()
    data["rules"].append({"id": "r", "text": "WHEN weather == \"storm\" THEN continue END"})
    assert parse_scenario(data)[1] == [Violation(
        "rule-parse-error", "r", "rule must begin with RULE (line 1, column 1)")]


def test_a_rule_may_select_a_variant_only_of_each_gate_it_is_attached_to():
    # Ground Preferred selects a shipping variant: attached to packaging as
    # well, it is reported there and not at either model's shipping gate
    data = logistics_scenario_data()
    model(data, "spare_part_delivery")["nodes"][2]["variants"]["truck"][0]["rules"].append(
        "Ground Preferred")
    assert [(v.code, v.subject, v.detail) for v in parse_scenario(data)[1]] == [(
        "rule-foreign-gate", "Ground Preferred",
        "selects gate 'shipping' from gate 'packaging' of model 'spare_part_delivery'")]


def test_only_a_model_that_instances_start_needs_a_master(tmp_path, capsys):
    """A compensation target runs under its parent's context model and an inlined
    sub-process under the instance's; a started model is reported once."""
    data = logistics_scenario_data()
    for entry in data["process_models"]:
        del entry["context_master"]
    data["process_models"].append({"model_id": "handover", "nodes": [
        {"type": "start"}, {"type": "task", "name": "sign"}, {"type": "end"}]})
    model(data, "spare_part_delivery")["nodes"].insert(-1, {"type": "subprocess",
                                                            "model": "handover"})
    declare_instance("p2")(data)
    assert main(["validate", write_scenario(tmp_path, data)]) == 2
    assert capsys.readouterr().out.splitlines()[:-1] == [
        "model-no-master: spare_part_delivery: instances start it, yet it names no "
        "context_master"]


def test_mirror_may_name_a_gate_and_task_its_subprocess_runs(tmp_path, capsys):
    data = logistics_scenario_data()
    data["process_models"].append({"model_id": "wrapper", "nodes": [
        {"type": "start"}, {"type": "subprocess", "model": "spare_part_delivery"},
        {"type": "end"}],
        # Delivery SLA, on the inlined shipping gate, starts this compensation
        "compensation_refs": {"process.compensation.deliveryVariant": "spare_part_delivery_comp"}})
    change_mirror(model="wrapper")(data)  # shipping at load_truck, both in the subprocess
    assert main(["validate", write_scenario(tmp_path, data)]) == 0, capsys.readouterr().out


def test_a_model_inlined_twice_defines_no_gate_twice(tmp_path, capsys):
    data = logistics_scenario_data()
    inline = {"type": "subprocess", "model": "spare_part_delivery"}
    data["process_models"].append({
        "model_id": "twice", "nodes": [{"type": "start"}, inline, inline, {"type": "end"}],
        "compensation_refs": {"process.compensation.deliveryVariant": "spare_part_delivery_comp"}})
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
    assert check(json.loads(line) for line in assembly.simulation.trace_log.lines()) == []


def test_agent_arithmetic_fault_becomes_engine_error(tmp_path):
    data = with_agent("aggregate", {"window": 2, "reducer": "mean"})(logistics_scenario_data())
    data["cause_effects"][0]["function"]["table"]["clear"] = 10 ** 400
    assert main(["validate", write_scenario(tmp_path, data)]) == 0
    assembly, completed = run_scenario_data(data)
    assert completed
    faults = {(r.payload["error"], r.payload["relation"])
              for r in assembly.simulation.trace_log.find("engine_error")}
    assert faults == {("OverflowError", "probe")}


def test_lookup_value_its_effect_cannot_hold_is_a_violation(tmp_path):
    """Each run would write an engine_error for it at ingest (the context
    engine's tests pin that guard): parse names the relation and the value."""
    data = logistics_scenario_data()
    data["cause_effects"][0]["function"]["table"]["clear"] = "forty"
    assert parse_scenario(data)[1] == [Violation(
        "relation-kind-mismatch", "weatherToEta", "a lookup node cannot write its value for "
        "'clear' into the numeric output 'estimatedDeliveryTime'")]
    assert main(["validate", write_scenario(tmp_path, data)]) == 2


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


def test_run_into_a_missing_directory_exits_three(tmp_path, capsys):
    path = write_scenario(tmp_path, logistics_scenario_data())
    out = tmp_path / "missing" / "run.trace"
    assert main(["run", path, "--trace-out", str(out)]) == 3
    assert "cannot write trace: " in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_trace_path_fails_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr("ctxflow.cli.build_simulation", no_run)
    path = write_scenario(tmp_path, logistics_scenario_data())
    out = tmp_path / "missing" / "run.trace"
    assert main(["run", path, "--trace-out", str(out)]) == 3
    assert "cannot write trace: " in capsys.readouterr().err


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


def test_replay_of_lines_that_hold_no_record_is_a_divergence(tmp_path, capsys):
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    a.write_text("[1]\n")
    b.write_text("[2]\n")
    assert main(["replay", str(a), str(b)]) == 1
    out, err = capsys.readouterr()
    assert out == "divergence at seq 0: b'[1]' != b'[2]'\n" and err == ""
    # a record's seq is named even when it is 0
    a.write_text('{}\n{"seq": 0, "v": 1}\n')
    b.write_text('{}\n{"seq": 0, "v": 2}\n')
    assert main(["replay", str(a), str(b)]) == 1
    assert capsys.readouterr().out.startswith("divergence at seq 0: ")


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
    again = tmp_path / "b.trace"
    parsed.write(again)
    assert again.read_bytes() == out.read_bytes()


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
        trace.emit(i * 3, pool, kind, payload)
        record = trace.records[-1]
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


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2 ** 70


# Top-level values the writer must not take for plain ints: a bool, and an
# int subclass, next to plain ints on both sides of 2**64.
int_like = st.sampled_from([True, False, 7, 2 ** 64 + 1, -(2 ** 70), Level.LOW, Level.HIGH])


@st.composite
def traces_sharing_values(draw):
    """Records whose top-level values include dicts shared between records, some
    reused right away and some after more fresh dicts than the writer's memo holds.
    A kind's records change their key set, at equal size too, and from string
    keys to int keys, after the writer has laid the kind out."""
    shared = draw(st.lists(st.dictionaries(st.text(max_size=2), json_values, max_size=3),
                           min_size=1, max_size=4))
    value = (json_values | int_like
             | st.text(st.characters(min_codepoint=0x80), min_size=1, max_size=3)
             | st.integers(0, len(shared) - 1).map(shared.__getitem__))
    few_keys = (st.dictionaries(st.sampled_from("abc"), value, min_size=2, max_size=2)
                | st.dictionaries(st.integers(0, 2), value, min_size=2, max_size=2))
    trace = Trace()
    for tick in range(draw(st.integers(1, 6))):
        for i in range(draw(st.sampled_from([0, 1, 70]))):
            fresh = {"i": i}  # one new dict per filler, reused within it
            trace.emit(tick, "context", "filler", {"fresh": fresh, "same": fresh})
        payload = draw(st.dictionaries(st.text(max_size=4), value, max_size=4)
                       | few_keys | other_keys)
        trace.emit(tick, draw(st.sampled_from(["context", "r\u00e9gles"])),
                   draw(st.sampled_from(["value_updated", "k\u00efnd"])), payload)
    return trace


def expected_lines(trace) -> list[str]:
    return [oracle_json({"kind": r.kind, "payload": r.payload, "pool": r.pool,
                         "seq": r.seq, "tick": r.tick}) + "\n" for r in trace]


@settings(deadline=None)
@given(trace=traces_sharing_values())
def test_trace_writer_matches_json_dumps_when_records_share_values(trace):
    expected = expected_lines(trace)
    assert list(trace.lines()) == expected
    assert [record.to_line() + "\n" for record in trace] == expected


SHARED = {"x": [1, "\u00e9"]}
AB = ("a", "b")
# Payloads of one kind, in order; the dict SHARED keeps the kind walked, so
# every payload after the first meets the layout the writer learned before it.
# A row's layout is told apart by identity: tuple("ab") is equal to AB, not AB.
LAYOUT_CHANGES = {
    "equal size, other keys": [{"a": SHARED, "b": 1}, {"a": SHARED, "c": 2},
                               {"b": SHARED, "c": "t"}],
    "more and fewer keys": [{"a": SHARED, "b": 1}, {"a": SHARED, "b": 1, "c": 2},
                            {"a": SHARED}, {}, {"a": SHARED, "b": 1}],
    "string keys, then int keys": [{"a": SHARED, "b": 1}, {1: SHARED, 2: 1},
                                   {"a": SHARED, "b": 1}, {1: SHARED, 0: 2, 2: 3}],
    "int-like values": [{"n": 1, "s": SHARED}, {"n": True, "s": SHARED},
                        {"n": 2 ** 64 + 1, "s": SHARED}, {"n": Level.HIGH, "s": SHARED},
                        {"m": False, "n": Level.LOW, "o": 7, "s": SHARED},
                        {"n": -(2 ** 70), "s": SHARED}],
    "dicts and rows": [{"a": SHARED, "b": 1}, (AB, SHARED, 1), (AB, SHARED, "t"),
                       (("a", "b", "c"), SHARED, 1, 2), (tuple("ab"), SHARED, 3),
                       {"a": SHARED, "b": 1}, (AB, 2 ** 64 + 1, SHARED),
                       (("b", "a"), 1, SHARED), ((),), (AB, SHARED, 1)],
}


@pytest.mark.parametrize("payloads", LAYOUT_CHANGES.values(), ids=LAYOUT_CHANGES)
def test_trace_writer_lays_a_kind_out_again(payloads):
    trace = Trace()
    for payload in payloads:
        trace.emit(0, "context", "value_updated", payload)
    assert list(trace.lines()) == expected_lines(trace)


def test_trace_writer_refuses_a_row_that_does_not_fit_its_layout():
    for row in ((AB, 1), (AB, 1, 2, 3)):
        trace = Trace()
        trace.emit(0, "context", "value_updated", row)
        with pytest.raises(ValueError):
            trace.to_text()
        with pytest.raises(ValueError):
            trace.records[0]


@st.composite
def dicts_and_their_rows(draw):
    """Records, each with its payload as a dict and as the row that stands
    for it.  Rows of one key set share one layout or not, as drawn, and
    values are shared between records, as the engines share them."""
    shared = draw(st.lists(st.dictionaries(st.text(max_size=2), json_values, max_size=3),
                           min_size=1, max_size=3))
    value = json_values | int_like | st.sampled_from(shared)
    layouts = {}
    records = []
    for tick in range(draw(st.integers(0, 8))):
        payload = draw(st.dictionaries(st.sampled_from(["a", "b", "kind", "\u00e9", ""]),
                                       value, max_size=4))
        keys = tuple(sorted(payload))
        layout = layouts.setdefault(keys, keys) if draw(st.booleans()) else tuple(list(keys))
        records.append((tick, draw(st.sampled_from(["context", "r\u00e9gles"])),
                        draw(st.sampled_from(["value_updated", "k\u00efnd"])), payload,
                        (layout, *(payload[key] for key in keys)), draw(st.booleans())))
    return records


@settings(deadline=None)
@given(records=dicts_and_their_rows())
def test_a_row_is_written_and_read_as_the_dict_it_stands_for(records):
    dicts, rows = Trace(), Trace()
    for tick, pool, kind, payload, row, as_row in records:
        dicts.emit(tick, pool, kind, payload)
        rows.emit(tick, pool, kind, row if as_row else payload)
        assert (TraceRecord(0, tick, pool, kind, row).to_line()
                == TraceRecord(0, tick, pool, kind, payload).to_line())
    assert list(rows.lines()) == list(dicts.lines()) == expected_lines(dicts)
    assert rows.to_text() == dicts.to_text()
    with tempfile.TemporaryDirectory() as directory:
        for name, trace in (("rows", rows), ("dicts", dicts)):
            trace.write(os.path.join(directory, name))
        with open(os.path.join(directory, "rows"), "rb") as a, \
                open(os.path.join(directory, "dicts"), "rb") as b:
            assert a.read() == b.read()
    expected = list(dicts)
    assert list(rows) == list(rows.records) == expected
    assert [rows.records[seq] for seq in range(len(rows))] == expected
    for seq, (*_, as_row) in enumerate(records):  # a row's dict is built on each read
        assert (rows.records[seq].payload is rows.records[seq].payload) is not as_row
    for kind in (None, "value_updated", "k\u00efnd"):
        assert rows.find(kind) == dicts.find(kind)
        for _, _, _, payload, _, _ in records:
            for key, value in payload.items():
                if key != "kind":  # find's own parameter
                    assert rows.find(kind, **{key: value}) == dicts.find(kind, **{key: value})


def test_trace_file_of_many_blocks_is_its_text(tmp_path):
    trace = Trace()
    for seq in range(3 * _BLOCK + 5):
        for payload in LAYOUT_CHANGES.values():
            trace.emit(seq, "context", "value_updated", payload[seq % len(payload)])
    path = tmp_path / "run.trace"
    trace.write(path)
    assert path.read_bytes() == trace.to_text().encode("ascii")
    assert trace.to_text() == "".join(expected_lines(trace))


# Key texts that would break a line function whose source spelled them out.
ODD_KEYS = ["'", '"', "{", "}", "\\", "%s", "\n", "\u00e9", "\U0001d11e", ""]


def test_trace_writer_writes_keys_of_any_text():
    shared = {"'": ["\n", "\U0001d11e"], "": {"%s": "}"}}
    trace = Trace()
    for key in ODD_KEYS:  # each key alone, with a value of each kind the writer tells apart
        for value in (key, 7, shared, [key], None):
            trace.emit(0, "context", "value_updated", {key: value})
    mixed = dict(zip(ODD_KEYS, itertools.cycle([shared, "\\{%s}", -3, 1.5, True])))
    for payload in (mixed, {**mixed, "plain": shared}, mixed, {"'": 1, "": mixed}):
        trace.emit(1, "r\u00e9gles\n'{%s}", "kind \"'{\U0001d11e}", payload)
    assert list(trace.lines()) == expected_lines(trace)
    assert trace.to_text() == "".join(expected_lines(trace))


def test_trace_writer_lays_each_kind_and_pool_out_once(monkeypatch):
    laid_out = []
    lay_out = _LineWriter._lay_out

    def counted(writer, pool, kind, *fields):
        laid_out.append((kind, pool))
        return lay_out(writer, pool, kind, *fields)

    monkeypatch.setattr(_LineWriter, "_lay_out", counted)
    trace = Trace()
    for i in range(40):  # Register goes process -> rules, then rules -> context
        pool, to = ("process", "rules") if i % 2 == 0 else ("rules", "context")
        trace.emit(i, pool, "Register", {"data": {"instance": f"p{i // 2}"}, "msg_seq": i,
                                         "sent": i, "to": to})
    assert list(trace.lines()) == expected_lines(trace)
    assert laid_out == [("Register", "process"), ("Register", "rules")]


def test_trace_writer_compiles_one_source_per_key_count(monkeypatch):
    sources = []

    def recorded(count):
        sources.append((count, _line_source(count)))
        return sources[-1][1]

    monkeypatch.setattr("ctxflow.trace._line_source", recorded)
    _line_maker.cache_clear()
    keys = [("alpha", "beta", "gamma"), ("alpha", "beta", "delta"), ("omega", "psi", "chi")]
    trace = Trace()
    for i, key_set in enumerate(keys * 2):
        trace.emit(i, f"pool{i % 2}", f"kind{i % 3}", dict(zip(key_set, ["text", i, {"v": i}])))
    many = {f"key{i}": i for i in range(_MAX_FIELDS + 1)}  # encoded whole
    trace.emit(9, "pool0", "kind0", many)
    assert list(trace.lines()) == expected_lines(trace)
    assert [count for count, _ in sources] == [3]
    texts = {key for key_set in keys for key in key_set} | {"pool", "kind", "text"} | set(many)
    assert not [text for text in texts if text in sources[0][1]]


def test_a_line_function_holds_its_memo_and_not_its_writer():
    # a payload it was not laid out for is refused with None, and the writer
    # lays the record out itself
    writer = _LineWriter()
    trace = Trace()
    for payload in ({"a": 1}, {"b": 1}, {"a": 1, "b": 2}, [1], {"a": {"c": 2}}):
        trace.emit(0, "rules", "Decision", payload)
    rows = zip(*((r.seq, r.tick, r.pool, r.kind, r.payload) for r in trace))
    assert [line + "\n" for line in writer.block(*rows)] == expected_lines(trace)
    line = writer._lines["Decision", "rules"]
    assert [line(0, 0, payload) for payload in ({"b": 1}, {"a": 1, "b": 2}, [1])] == [None] * 3
    held = [cell.cell_contents for cell in line.__closure__]
    assert any(value is writer._memo for value in held)
    assert not [value for value in held
                if value is writer or getattr(value, "__self__", None) is writer]
    assert "relay" not in _line_source(1)


def test_trace_writer_memo_stays_bounded():
    # every record is alive while its trace is written, so the memo must not
    # keep a text for each of them
    writer = _LineWriter()
    for seq in range(1000):
        value = {"seq": seq}  # reused within its record, so every record is walked
        writer.block((seq,), (0,), ("context",), ("value_updated",), ({"a": value, "b": value},))
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
