"""Acceptance suite: one test per criterion, each printing a verdict line.

Every criterion is checked at its stated tolerance against an
independent oracle (brute-force reimplementation, set-containment check,
byte comparison, or trace cross-check); nothing is loosened for
convenience.
"""

import itertools
import random
import time

from ctxflow.context_engine import (
    CatalogEntry,
    ContextEngine,
    NotificationThreshold,
    catalog_additions,
)
from ctxflow.model import (
    ContextCategory,
    ContextIntersection,
    MasterContextModel,
    instantiate_from_master,
    update_value,
)
from ctxflow.propagation import CauseEffectRelation, Propagation
from ctxflow.rule_dsl import (
    And,
    Comparison,
    Ref,
    StartCompensation,
    parse_rule,
    pretty_print,
)
from ctxflow.scenario import build_simulation, parse_scenario
from ctxflow.sources import SourceDescriptor
from ctxflow.errors import StaleWrite
from ctxflow.trace import canonical_json, replay_verify

from .conftest import FakeSim, logistics_scenario_data, value
from .scenario_gen import random_scenario
from .test_context_model import containment_oracle, random_additions, random_master

MESSAGE_KINDS = {
    "Register", "ContextRequest", "ContextSnapshot", "ContextNotification",
    "RuleEvalRequest", "Decision", "BreakRollback", "StartCompensation",
    "SourceEvent", "PollRequest", "PollResponse",
    "ProcessCompleted", "ProcessCancelled", "ShutdownModel",
}


def report(number: int, description: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {number}: {verdict} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {detail}"


def run_logistics():
    scenario, violations = parse_scenario(logistics_scenario_data())
    assert not violations
    assembly = build_simulation(scenario)
    trace = assembly.simulation.run()
    return assembly, trace


# --- criterion 1: logistics golden trace -----------------------------------------------


def test_criterion_1_logistics_golden_trace():
    started = time.perf_counter()
    assembly, trace = run_logistics()
    elapsed = time.perf_counter() - started

    master_categories = {
        "geospatial", "roles", "processObject",
        "orderedItems", "itemDamage", "customer", "freightForwarder",
        "traffic", "weather",
    }

    def decision(record, instance, gate, variant):
        p = record.payload
        return (record.kind == "gate_evaluated"
                and p["instance"] == instance and p["gate"] == gate
                and p["decision"].get("type") == "select_variant"
                and p["decision"].get("variant") == variant)

    checkpoints = [
        ("instance context initialized with the master categories",
         lambda r: r.kind == "model_instantiated"
         and r.payload.get("instance") == "p1"
         and master_categories <= set(r.payload["categories"])),
        ("shipping gate selects truck",
         lambda r: decision(r, "p1", "shipping", "truck")),
        ("packaging gate selects eco",
         lambda r: decision(r, "p1", "packaging", "eco")),
        ("model extended with shipping method",
         lambda r: r.kind == "model_extended"
         and any(a["category"] == "shippingMethod" for a in r.payload["added"])),
        ("model extended with packaging method",
         lambda r: r.kind == "model_extended"
         and any(a["category"] == "packagingMethod" for a in r.payload["added"])),
        ("weather hazard pushed by the weather service",
         lambda r: r.kind == "SourceEvent"
         and r.payload["data"].get("category_id") == "weather"
         and "thunderstorm" in str(r.payload["data"].get("payload"))),
        ("weather value updated to the hazard",
         lambda r: r.kind == "value_updated"
         and r.payload["category"] == "weather"
         and "thunderstorm" in str(r.payload["value"]["payload"])),
        ("re-evaluation fires the Delivery SLA rule",
         lambda r: r.kind == "gate_evaluated"
         and r.payload["evaluation"] == "re_evaluation"
         and r.payload["fired_rule"] == "Delivery SLA"),
        ("break and rollback to start issued by the rules engine",
         lambda r: r.kind == "BreakRollback" and r.pool == "rules"
         and r.payload["data"]["target"] == "start"),
        ("compensation instance selects the plane variant",
         lambda r: decision(r, "p1.comp1", "shipping", "plane")),
        ("packaging re-queried for air shipment",
         lambda r: r.kind == "RuleEvalRequest"
         and r.payload["data"] == {"instance": "p1.comp1", "gate": "packaging"}),
        ("packaging for air selects the rugged variant",
         lambda r: decision(r, "p1.comp1", "packaging", "premium")),
        ("compensation completes",
         lambda r: r.kind == "ProcessCompleted"
         and r.payload["data"]["instance"] == "p1.comp1"),
    ]

    index = 0
    matched = []
    records = list(trace)
    for description, predicate in checkpoints:
        while index < len(records) and not predicate(records[index]):
            index += 1
        if index == len(records):
            report(1, f"golden subsequence broken at: {description}", False)
        matched.append(records[index])
        index += 1

    completion = matched[-1].payload["data"]
    within = completion["tick"] <= 0 + 72  # order placed at tick 0, SLA of 72
    rollbacks = [r for r in trace if r.kind == "BreakRollback"]
    from_rules_only = all(r.pool == "rules" for r in rollbacks)
    truck_recalled = any(
        r.kind == "task_undone" and r.payload["task"] == "truck_transit"
        for r in trace
    )
    parent_cancelled = assembly.process.instances["p1"].status == "Cancelled"
    comp_done = assembly.process.instances["p1.comp1"].status == "Completed"
    ok = (within and from_rules_only and truck_recalled and parent_cancelled
          and comp_done and elapsed < 1.0)
    report(1, "logistics golden trace reproduces the reference adaptation story",
           ok, f"completion tick {completion['tick']} <= 72, runtime {elapsed:.3f}s")


# --- criterion 2: extension-only invariant ------------------------------------------------


def test_criterion_2_extension_only_invariant():
    rng = random.Random(20260808)
    started = time.perf_counter()
    failures = 0
    for _ in range(1000):
        master, counter = random_master(rng)
        model = instantiate_from_master(master, ["p"])
        snapshots = [model.intersection.clone()]
        for _ in range(rng.randint(2, 6)):
            model.apply_extension(random_additions(rng, model.intersection, counter))
            snapshots.append(model.intersection.clone())
            category = rng.choice(model.intersection.category_ids())
            try:
                update_value(model.intersection, value(
                    category, rng.randint(0, 99), rng.randint(0, 50)))
            except StaleWrite:
                pass
        for earlier, later in zip(snapshots, snapshots[1:]):
            if not containment_oracle(earlier, later):
                failures += 1
    elapsed = time.perf_counter() - started
    report(2, "1000 randomized extension/update sequences keep every adjacent "
              "snapshot pair in the subgraph relation",
           failures == 0 and elapsed < 10.0,
           f"failures {failures}, runtime {elapsed:.2f}s")


# --- criterion 3: determinism --------------------------------------------------------------


def test_criterion_3_determinism(tmp_path):
    rng = random.Random(31337)
    scenarios = [logistics_scenario_data()]
    for i in range(9):
        scenarios.append(random_scenario(rng, jitter=rng.choice([0, 0, 2])))
    comparisons = 0
    failures = []
    for i, data in enumerate(scenarios):
        paths = []
        for run_no in range(2):
            scenario, violations = parse_scenario(data)
            assert not violations
            trace = build_simulation(scenario).simulation.run()
            path = tmp_path / f"s{i}_r{run_no}.trace"
            trace.write(path)
            paths.append(path)
        for a, b in ((0, 1), (1, 0)):
            ok, detail = replay_verify(paths[a], paths[b])
            comparisons += 1
            if not ok:
                failures.append((i, detail))
    report(3, "10 scenarios x 2 runs with fixed seeds are byte-identical",
           comparisons == 20 and not failures,
           f"{comparisons} replay comparisons, {len(failures)} divergent")


# --- criterion 4: propagation order-independence ---------------------------------------------


def acceptance_engine(sim, thresholds=None):
    catalog = {
        "root": CatalogEntry(ContextCategory("root", "root"), requires_value=False),
        "x": CatalogEntry(ContextCategory("x", "x", "numeric"), parent="root"),
        "y": CatalogEntry(ContextCategory("y", "y", "numeric"), parent="root"),
        "z": CatalogEntry(ContextCategory("z", "z", "numeric"), parent="root"),
    }
    g = ContextIntersection()
    g.add_all(catalog_additions(catalog, catalog))
    master = MasterContextModel("acc", g, ["root"])
    relations = [
        CauseEffectRelation("rxy", "x", "y", {"type": "linear", "a": 2, "b": 1}),
        CauseEffectRelation("ryz", "y", "z", {"type": "linear", "a": 1, "b": 3}),
    ]
    sources = {
        "alpha": SourceDescriptor("alpha", "push", 0.9, provided_categories=("x",)),
        "beta": SourceDescriptor("beta", "push", 0.6, provided_categories=("x",)),
    }
    return ContextEngine(sim, catalog, {"acc": master}, sources, propagation=relations,
                         model_masters={"flow": "acc"},
                         model_thresholds={"flow": thresholds or {}})


def register(engine, instance):
    """Register ``instance`` of process model "flow" as a run does; returns its model."""
    engine.handle_register({"instance": instance, "process_model": "flow", "principal": "op"})
    return engine.registrations[instance].model


def test_criterion_4_propagation_order_independence():
    rng = random.Random(404)
    convergent = 0
    causing_checked = 0
    causing_correct = 0
    for _ in range(20):
        events = [
            {"source_id": rng.choice(["alpha", "beta"]), "category_id": "x",
             "payload": rng.randint(0, 30), "ts": ts}
            for ts in rng.sample(range(1, 40), rng.randint(2, 5))
        ]
        finals = set()
        for order in itertools.permutations(events):
            sim = FakeSim(now=50)
            engine = acceptance_engine(sim)
            model = register(engine, "p")
            for event in order:
                engine.handle_source_event(dict(event))
            # the observable context state: structure plus current values
            finals.add(canonical_json(model.intersection.to_payload()))
            for category, cause_cat in (("y", "x"), ("z", "y")):
                derived = model.intersection.values.get(category)
                if derived is None:
                    continue
                cause = model.intersection.values[cause_cat]
                causing_checked += 1
                if derived.causing_ts == cause.ts:
                    causing_correct += 1
            # every propagated write recorded in the trace names its cause tick
            for record in sim.records("value_updated"):
                v = record.payload["value"]
                if v["source_id"] in ("rxy", "ryz"):
                    causing_checked += 1
                    if v.get("causing_ts") == v["ts"]:
                        causing_correct += 1
        if len(finals) == 1:
            convergent += 1
    report(4, "20 random event sets converge to one final context state under "
              "all arrival orders; propagated values carry the cause timestamp",
           convergent == 20 and causing_checked > 0
           and causing_correct == causing_checked,
           f"{convergent}/20 convergent, causing_ts {causing_correct}/{causing_checked}")


# --- criterion 5: threshold gating ---------------------------------------------------------


def brute_threshold(old, new, t):
    if new.reliability < t.min_reliability:
        return False
    if old is None:
        return True
    if t.kind == "numeric-delta":
        return abs(new.payload - old.payload) > t.theta
    return new.payload != old.payload


def test_criterion_5_threshold_gating():
    from ctxflow.context_engine import check_threshold

    rng = random.Random(505)
    agree = 0
    for _ in range(1000):
        kind = rng.choice(["numeric-delta", "any-change"])
        t = NotificationThreshold(
            "c", kind,
            theta=rng.uniform(0.5, 8) if kind == "numeric-delta" else None,
            min_reliability=rng.choice([0.0, 0.3, 0.8]),
        )
        old = None if rng.random() < 0.25 else value(
            "c", rng.randint(0, 15), rng.randint(0, 4),
            reliability=rng.choice([0.5, 0.9]))
        new = value("c", rng.randint(0, 15), rng.randint(5, 9),
                    reliability=rng.choice([0.5, 0.9]))
        if check_threshold(old, new, t) == brute_threshold(old, new, t):
            agree += 1

    # end to end: notification volume must match an independent replay
    stream_agree = True
    for trial in range(10):
        sim = FakeSim(now=0)
        thresholds = {
            "x": NotificationThreshold("x", "numeric-delta",
                                       theta=rng.choice([1, 3, 6])),
        }
        engine = acceptance_engine(sim, thresholds)
        register(engine, "p")
        engine.propagation = Propagation([])
        engine.registrations["p"].active = True
        events = []
        for ts in range(1, rng.randint(6, 14)):
            events.append({
                "source_id": rng.choice(["alpha", "beta"]),
                "category_id": "x",
                "payload": rng.randint(0, 20), "ts": ts,
            })
        for event in events:
            sim.tick = event["ts"]
            engine.handle_source_event(dict(event))
        actual = sum(
            len(p["changes"]) for (_, _, k, p) in sim.sent
            if k == "ContextNotification"
        )
        expected = brute_notification_count(events, thresholds["x"])
        if actual != expected:
            stream_agree = False
    report(5, "threshold gate agrees with brute force on 1000 triples and "
              "end-to-end notification counts match",
           agree == 1000 and stream_agree,
           f"{agree}/1000 triples, streams {'ok' if stream_agree else 'diverged'}")


def brute_notification_count(events, threshold):
    """Independent replay: per-stream latest, reliability-first resolution."""
    reliability = {"alpha": 0.9, "beta": 0.6}
    streams = {}
    current_payload = None
    count = 0
    for event in events:
        stream = (event["category_id"], event["source_id"])
        if stream in streams and event["ts"] <= streams[stream][0]:
            continue
        streams[stream] = (event["ts"], event["payload"])
        candidates = sorted(
            ((reliability[s[1]], ts, s[1], payload)
             for s, (ts, payload) in streams.items()),
            key=lambda c: (-c[0], -c[1], c[2]),
        )
        winner = candidates[0]
        old_payload = current_payload
        if old_payload is not None and winner[3] == old_payload:
            current_payload = winner[3]
            continue
        new = value("x", winner[3], winner[1], source=winner[2],
                    reliability=winner[0])
        old = None if old_payload is None else value("x", old_payload, 0)
        if brute_threshold(old, new, threshold):
            count += 1
        current_payload = winner[3]
    return count


# --- criterion 6: re-evaluation closure ------------------------------------------------------


def test_criterion_6_re_evaluation_closure():
    rng = random.Random(606)
    missed = 0
    spurious = 0
    notifications_seen = 0
    for _ in range(12):
        data = random_scenario(rng)
        scenario, violations = parse_scenario(data)
        assert not violations
        assembly = build_simulation(scenario)
        trace = assembly.simulation.run()
        records_state: dict[tuple, set] = {}
        triggered_queue = []
        for record in trace:
            if record.kind == "gate_evaluated":
                key = (record.payload["instance"], record.payload["gate"])
                records_state[key] = set(record.payload["used"])
            elif record.kind == "ContextNotification":
                data_payload = record.payload["data"]
                instance = data_payload["instance"]
                changed = {c["category"] for c in data_payload["changes"]}
                triggered_queue.append((instance, changed))
            elif record.kind == "re_evaluation_triggered":
                instance = record.payload["instance"]
                assert triggered_queue, "trigger without a notification"
                note_instance, changed = triggered_queue.pop(0)
                assert note_instance == instance
                expected = [
                    gate for (inst, gate), used in records_state.items()
                    if inst == instance and used & changed
                ]
                actual = record.payload["gates"]
                missed += len(set(expected) - set(actual))
                spurious += len(set(actual) - set(expected))
                notifications_seen += 1
            elif record.kind == "notification_dropped":
                if triggered_queue:
                    triggered_queue.pop(0)
            elif record.kind == "unbound":
                gone = record.payload["instance"]
                for key in [k for k in records_state if k[0] == gone]:
                    del records_state[key]
    report(6, "re-evaluated records are exactly those whose relevant context "
              "intersects the changed categories",
           missed == 0 and spurious == 0 and notifications_seen >= 20,
           f"{notifications_seen} notifications checked, "
           f"missed {missed}, spurious {spurious}")


# --- criterion 7: rule DSL -------------------------------------------------------------------


def test_criterion_7_rule_dsl():
    sla_rule_text = (
        "RULE Delivery SLA\n"
        "WHEN executionTimeConstraint < estimatedDeliveryTime\n"
        "    AND maxSLAFineAmount < estimatedSLAFine\n"
        "THEN start process.compensation.deliveryVariant\n"
        "END"
    )
    rule = parse_rule(sla_rule_text)
    verbatim_ok = (
        rule.name == "Delivery SLA"
        and rule.condition == And((
            Comparison(Ref("executionTimeConstraint"), "<",
                       Ref("estimatedDeliveryTime")),
            Comparison(Ref("maxSLAFineAmount"), "<", Ref("estimatedSLAFine")),
        ))
        and rule.action == StartCompensation("process.compensation.deliveryVariant")
    )
    from .test_rule_dsl import random_action, random_cond
    from ctxflow.rule_dsl import Rule, referenced_categories

    rng = random.Random(707)
    roundtrip_failures = 0
    for i in range(200):
        condition = random_cond(rng)
        rule = Rule(
            rule_id=f"gen{i}", name=f"gen{i}", condition=condition,
            action=random_action(rng),
            referenced_categories=referenced_categories(condition),
        )
        if parse_rule(pretty_print(rule), rule_id=rule.rule_id) != rule:
            roundtrip_failures += 1
    report(7, "reference SLA rule parses verbatim and 200 generated rules round-trip",
           verbatim_ok and roundtrip_failures == 0,
           f"roundtrip failures {roundtrip_failures}")


# --- criterion 8: lifecycle hygiene -----------------------------------------------------------


def hygiene_scenario():
    return {
        "seed": 7,
        "limits": {"max_steps": 50000, "poll_budget": 8},
        "catalog": [
            {"id": "root", "kind": "text", "requires_value": False},
            {"id": "weather", "kind": "text", "parent": "root"},
        ],
        "masters": [{"model_id": "m", "categories": ["root", "weather"]}],
        "sources": [{
            "id": "w", "mode": "poll", "interval": 4, "reliability": 0.9,
            "provides": ["weather"],
            "poll": {"weather": [[0, "w0"]]},
            "timeline": [[t, "weather", f"w{t}"] for t in range(2, 40)],
        }],
        "rules": [],
        "process_models": [{
            "model_id": "flow", "context_master": "m",
            "nodes": [
                {"type": "start"},
                {"type": "task", "name": "work", "duration": 3},
                {"type": "end"},
            ],
        }],
        "thresholds": {"flow": [{"category": "weather", "kind": "any-change"}]},
        "instances": [
            {"id": f"p{i}", "model": "flow", "principal": f"op{i}",
             "start_tick": 2 * i}
            for i in range(10)
        ],
    }


def test_criterion_8_lifecycle_hygiene():
    data = hygiene_scenario()
    scenario, violations = parse_scenario(data)
    assert not violations
    master_before = canonical_json(scenario.masters["m"].to_payload())
    assembly = build_simulation(scenario)
    trace = assembly.simulation.run()
    master_after = canonical_json(assembly.context.masters["m"].to_payload())

    shutdown_seq = {}
    for record in trace:
        if record.kind == "ShutdownModel":
            shutdown_seq.setdefault(record.payload["data"]["instance"], record.seq)
    assert len(shutdown_seq) == 10

    stray = []
    dropped_late = 0
    records = list(trace)
    for i, record in enumerate(records):
        if record.kind not in MESSAGE_KINDS:
            continue
        instance = record.payload["data"].get("instance")
        if instance is None or instance not in shutdown_seq:
            continue
        if record.seq <= shutdown_seq[instance]:
            continue
        if record.kind == "ContextNotification":
            explicitly_dropped = any(
                later.kind == "notification_dropped"
                and later.payload["instance"] == instance
                and later.seq > record.seq
                for later in records[i:]
            )
            if explicitly_dropped:
                dropped_late += 1
                continue
        stray.append((record.seq, record.kind, instance))

    report(8, "master byte-identical after 10 lifecycles; shut-down instances "
              "receive nothing but explicitly dropped late notifications",
           master_before == master_after and not stray and dropped_late > 0,
           f"stray {len(stray)}, dropped late notifications {dropped_late}")
