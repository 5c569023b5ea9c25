import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxflow import context_engine
from ctxflow.context_engine import (
    CatalogEntry,
    CauseEffectRelation,
    ContextEngine,
    DerivationAgent,
    NotificationThreshold,
    apply_staleness,
    check_threshold,
    compile_arithmetic,
    resolve_conflict,
    topological_order,
)
from ctxflow.errors import DuplicateRegistration, KindMismatch, UnknownMaster
from ctxflow.model import (
    ContextCategory,
    ContextIntersection,
    MasterContextModel,
    relevant_subgraph,
)
from ctxflow.scenario import build_simulation, parse_scenario
from ctxflow.sources import SourceDescriptor
from ctxflow.trace import canonical_json

from .conftest import FakeSim, value
from .scenario_gen import random_scenario
from .test_trace_digests import SCENARIOS as PINNED_SCENARIOS


# --- resolve_conflict ----------------------------------------------------------


def test_certified_source_beats_social_feed():
    certified = value("weather", "clear", 10, source="certified", reliability=0.9)
    social = value("weather", "storm", 10, source="social", reliability=0.4)
    assert resolve_conflict([social, certified]) == certified


def test_single_candidate_wins():
    v = value("weather", "clear", 1)
    assert resolve_conflict([v]) is v


def test_all_delivery_orders_agree():
    candidates = [
        value("w", "a", 5, source="s1", reliability=0.7),
        value("w", "b", 9, source="s2", reliability=0.7),
        value("w", "c", 9, source="s0", reliability=0.7),
        value("w", "d", 2, source="s3", reliability=0.9),
    ]
    winners = {
        resolve_conflict(list(order)).payload
        for order in itertools.permutations(candidates)
    }
    assert len(list(itertools.permutations(candidates))) == 24
    assert winners == {"d"}


def test_resolution_is_a_total_order(rng):
    def key(v):
        return (-v.reliability, -v.ts, v.source_id, v.value_id, repr(v.payload))

    pool = [
        value("w", f"p{i}", rng.randint(0, 9), source=f"s{rng.randint(0, 3)}",
              reliability=rng.choice([0.2, 0.5, 0.9]))
        for i in range(30)
    ]
    for _ in range(200):
        a, b, c = rng.sample(pool, 3)
        # antisymmetry: a pairwise winner never loses the reversed pair
        assert resolve_conflict([a, b]) == resolve_conflict([b, a])
        # transitivity along the explicit key order
        ordered = sorted([a, b, c], key=key)
        assert resolve_conflict([a, b, c]) == ordered[0]


# --- check_threshold --------------------------------------------------------------


def delta(theta, min_reliability=0.0):
    return NotificationThreshold("eta", "numeric-delta", theta, min_reliability)


def test_delivery_time_jump_transgresses():
    old = value("eta", 40, 1)
    new = value("eta", 72, 5)
    assert check_threshold(old, new, delta(4)) is True


def test_unchanged_payload_under_any_change():
    t = NotificationThreshold("weather", "any-change")
    old = value("weather", "clear", 1)
    new = value("weather", "clear", 5)
    assert check_threshold(old, new, t) is False


def test_first_value_always_notifies():
    assert check_threshold(None, value("eta", 40, 1), delta(4)) is True


def test_small_delta_suppressed():
    assert check_threshold(value("eta", 40, 1), value("eta", 43, 2), delta(4)) is False


def test_min_reliability_gates():
    t = delta(1, min_reliability=0.8)
    old = value("eta", 40, 1)
    new = value("eta", 80, 2, reliability=0.5)
    assert check_threshold(old, new, t) is False


def test_numeric_threshold_on_text_payload_rejected():
    with pytest.raises(KindMismatch):
        check_threshold(value("eta", "soon", 1), value("eta", "late", 2), delta(4))


def test_threshold_brute_force_agreement(rng):
    def brute(old, new, t):
        if new.reliability < t.min_reliability:
            return False
        if old is None:
            return True
        if t.kind == "numeric-delta":
            return abs(new.payload - old.payload) > t.theta
        return new.payload != old.payload

    for _ in range(500):
        t = NotificationThreshold(
            "c", rng.choice(["numeric-delta", "any-change"]),
            theta=rng.uniform(0.5, 10),
            min_reliability=rng.choice([0.0, 0.5, 0.9]),
        )
        old = None if rng.random() < 0.2 else value(
            "c", rng.randint(0, 20), rng.randint(0, 5),
            reliability=rng.choice([0.4, 0.95]))
        new = value("c", rng.randint(0, 20), rng.randint(6, 9),
                    reliability=rng.choice([0.4, 0.95]))
        assert check_threshold(old, new, t) == brute(old, new, t)


# --- apply_staleness ------------------------------------------------------------------


def test_value_within_window_is_fresh():
    result = apply_staleness(value("w", "x", 10), now=12, max_age=5, decay=0.5)
    assert result.fresh is True
    assert result.effective_reliability == 0.9


def test_old_value_depreciates():
    v = value("w", "x", 0, reliability=0.8)
    result = apply_staleness(v, now=100, max_age=5, decay=0.5)
    assert result.fresh is False
    assert result.effective_reliability == pytest.approx(0.4)
    assert v.reliability == 0.8  # untouched


def test_identity_decay_keeps_reliability():
    result = apply_staleness(value("w", "x", 0, reliability=0.7),
                             now=100, max_age=5, decay=1.0)
    assert result.fresh is False
    assert result.effective_reliability == pytest.approx(0.7)


# --- engine fixtures ---------------------------------------------------------------


def mini_catalog():
    return {
        "root": CatalogEntry(ContextCategory("root", "root"), requires_value=False),
        "x": CatalogEntry(ContextCategory("x", "x", "numeric"), parent="root"),
        "y": CatalogEntry(ContextCategory("y", "y", "numeric"), parent="root"),
        "z": CatalogEntry(ContextCategory("z", "z", "numeric"), parent="root"),
        "w": CatalogEntry(ContextCategory("w", "w", "text"), parent="root"),
    }


def mini_master(catalog, categories=("root", "x", "y", "w")):
    g = ContextIntersection()
    for cat_id in categories:
        level = 1 if catalog[cat_id].parent is None else 2
        g.add_category(catalog[cat_id].category, level)
    for cat_id in categories:
        parent = catalog[cat_id].parent
        if parent is not None:
            g.add_edge(parent, cat_id)
    return MasterContextModel("mini", g, ["root"])


def make_engine(sim, relations=(), agents=(), categories=("root", "x", "y", "w")):
    catalog = mini_catalog()
    sources = {
        "certified": SourceDescriptor("certified", "push", 0.9,
                                      provided_categories=("x", "w", "z")),
        "social": SourceDescriptor("social", "push", 0.4,
                                   provided_categories=("w",)),
    }
    return ContextEngine(
        sim, catalog, {"mini": mini_master(catalog, categories)}, sources,
        relations=relations, agents=agents,
    )


def register_active(engine, instance="p1", thresholds=None):
    model_id = engine.register_instance(instance, "mini", thresholds or {})
    engine.registrations[instance].active = True
    return engine.instances[model_id]


def push(engine, sim, category, payload, ts, source="certified"):
    sim.tick = max(sim.tick, ts)
    engine.handle_source_event({
        "source_id": source, "category_id": category,
        "payload": payload, "ts": ts,
    })


# --- registration ------------------------------------------------------------------


def test_registration_instantiates_from_master():
    sim = FakeSim()
    engine = make_engine(sim)
    model = register_active(engine)
    assert model.intersection.category_ids() == ["root", "x", "y", "w"]
    assert model.intersection.step == 0


def test_shared_registration_binds_one_model():
    sim = FakeSim()
    engine = make_engine(sim)
    model = register_active(engine, "p1")
    engine.register_instance("p2", "mini", {}, share_with=model.model_id)
    assert model.bound_instances == ["p1", "p2"]
    assert len(engine.instances) == 1


def test_duplicate_registration_rejected():
    sim = FakeSim()
    engine = make_engine(sim)
    register_active(engine, "p1")
    with pytest.raises(DuplicateRegistration):
        engine.register_instance("p1", "mini", {})


def test_unknown_master_rejected():
    engine = make_engine(FakeSim())
    with pytest.raises(UnknownMaster):
        engine.register_instance("p1", "nope", {})


# --- ingestion and notifications ------------------------------------------------------


def test_push_updates_value_and_notifies():
    sim = FakeSim()
    engine = make_engine(sim)
    model = register_active(engine, thresholds={
        "w": NotificationThreshold("w", "any-change"),
    })
    push(engine, sim, "w", "clear", 2)
    push(engine, sim, "w", "thunderstorm, road washed out", 8)
    assert model.intersection.values["w"].payload == "thunderstorm, road washed out"
    notes = [p for (_, _, k, p) in sim.sent if k == "ContextNotification"]
    assert len(notes) == 2  # first value, then the change
    assert notes[1]["changes"][0]["category"] == "w"


def test_identical_push_is_swallowed():
    sim = FakeSim()
    engine = make_engine(sim)
    model = register_active(engine, thresholds={
        "w": NotificationThreshold("w", "any-change"),
    })
    push(engine, sim, "w", "clear", 2)
    sent_before = len(sim.sent)
    push(engine, sim, "w", "clear", 2)  # same ts, same payload
    assert len(sim.sent) == sent_before
    assert model.intersection.values["w"].ts == 2
    assert sim.records("value_rejected")


def test_reliability_wins_across_sources():
    sim = FakeSim()
    engine = make_engine(sim)
    model = register_active(engine)
    push(engine, sim, "w", "clear", 5, source="certified")
    push(engine, sim, "w", "storm", 7, source="social")
    assert model.intersection.values["w"].payload == "clear"
    push(engine, sim, "w", "sleet", 9, source="certified")
    assert model.intersection.values["w"].payload == "sleet"


def test_linear_relation_propagates_with_causing_ts():
    relation = CauseEffectRelation(
        "double-up", "x", "y", {"type": "linear", "a": 2, "b": 1},
    )
    sim = FakeSim()
    engine = make_engine(sim, relations=[relation])
    model = register_active(engine)
    push(engine, sim, "x", 5, 3)
    assert model.intersection.values["y"].payload == 11
    push(engine, sim, "x", 10, 6)
    derived = model.intersection.values["y"]
    assert derived.payload == 21
    assert derived.causing_ts == 6
    assert derived.ts == 6
    assert derived.source_id == "double-up"


def test_cascade_keeps_root_timestamp():
    relations = [
        CauseEffectRelation("r1", "x", "y", {"type": "linear", "a": 1, "b": 1}),
        CauseEffectRelation("r2", "y", "z", {"type": "linear", "a": 1, "b": 1}),
    ]
    sim = FakeSim()
    engine = make_engine(sim, relations=relations,
                         categories=("root", "x", "y", "z", "w"))
    model = register_active(engine)
    push(engine, sim, "x", 1, 9)
    assert model.intersection.values["z"].payload == 3
    assert model.intersection.values["z"].causing_ts == 9
    assert model.intersection.values["y"].causing_ts == 9


def test_relation_arithmetic_fault_becomes_engine_error():
    relation = CauseEffectRelation(
        "inverse", "x", "y", {"type": "expr", "expr": "100 / x"},
    )
    sim = FakeSim()
    engine = make_engine(sim, relations=[relation])
    model = register_active(engine)
    push(engine, sim, "x", 4, 1)
    assert model.intersection.values["y"].payload == 25
    push(engine, sim, "x", 0, 2)
    assert [r.payload for r in sim.records("engine_error")] == [{
        "error": "ZeroDivisionError", "detail": "division by zero",
        "model": model.model_id, "relation": "inverse",
    }]
    assert model.intersection.values["x"].payload == 0
    # the derived value is dropped; the effect keeps its last good value
    assert model.intersection.values["y"].payload == 25


def test_propagation_is_order_independent(rng):
    relation = CauseEffectRelation(
        "sum", "x", "y", {"type": "expr", "expr": "3 * x - 2"},
    )
    events = [
        ("certified", "x", 4, 2),
        ("certified", "x", 9, 6),
        ("certified", "w", "a", 3),
        ("social", "w", "b", 5),
    ]
    finals = set()
    for order in itertools.permutations(events):
        sim = FakeSim()
        engine = make_engine(sim, relations=[relation])
        model = register_active(engine)
        for source, cat, payload, ts in order:
            engine.handle_source_event({
                "source_id": source, "category_id": cat,
                "payload": payload, "ts": ts,
            })
        finals.add(canonical_json(model.intersection.to_payload()))
    assert len(finals) == 1


def test_aggregate_agent_windows():
    agent = DerivationAgent("avg", "aggregate", ("x",), ("y",),
                            {"window": 3, "reducer": "mean"})
    sim = FakeSim()
    engine = make_engine(sim, agents=[agent])
    model = register_active(engine)
    for ts, payload in ((1, 3), (2, 6), (3, 9), (4, 12)):
        push(engine, sim, "x", payload, ts)
    assert model.intersection.values["y"].payload == pytest.approx((6 + 9 + 12) / 3)


def test_compose_and_split_agents():
    compose = DerivationAgent("pair", "compose", ("x", "w"), ("z",), {})
    sim = FakeSim()
    engine = make_engine(sim, agents=[compose],
                         categories=("root", "x", "w", "z"))
    # z is numeric in the catalog; replace with a record category for compose
    engine.catalog["z"] = CatalogEntry(
        ContextCategory("z", "z", "record"), parent="root")
    model = engine.register_instance("p1", "mini", {})
    model = engine.instances[model]
    model.intersection.categories["z"] = engine.catalog["z"].category
    engine.registrations["p1"].active = True
    push(engine, sim, "x", 5, 1)
    push(engine, sim, "w", "hi", 2)
    assert model.intersection.values["z"].payload == {"x": 5, "w": "hi"}


def test_filter_agent_forwards_matching_values_only():
    agent = DerivationAgent("spike", "filter", ("x",), ("y",),
                            {"op": ">", "value": 10})
    sim = FakeSim()
    engine = make_engine(sim, agents=[agent])
    model = register_active(engine)
    push(engine, sim, "x", 4, 1)
    assert "y" not in model.intersection.values
    push(engine, sim, "x", 15, 2)
    assert model.intersection.values["y"].payload == 15


def test_translate_agent_maps_payloads():
    agent = DerivationAgent("label", "translate", ("w",), ("z",),
                            {"map": {"clear": 0, "storm": 2}, "default": 1})
    sim = FakeSim()
    engine = make_engine(sim, agents=[agent],
                         categories=("root", "x", "y", "z", "w"))
    model = register_active(engine)
    push(engine, sim, "w", "storm", 1)
    assert model.intersection.values["z"].payload == 2
    push(engine, sim, "w", "sleet", 2)
    assert model.intersection.values["z"].payload == 1  # default


def test_null_translate_entry_derives_nothing():
    agent = DerivationAgent("label", "translate", ("w",), ("z",),
                            {"map": {"clear": 0, "fog": None}, "default": 1})
    sim = FakeSim()
    engine = make_engine(sim, agents=[agent],
                         categories=("root", "x", "y", "z", "w"))
    model = register_active(engine)
    push(engine, sim, "w", "clear", 1)
    push(engine, sim, "w", "fog", 2)
    assert model.intersection.values["z"].payload == 0
    assert sim.records("engine_error") == []


def test_split_agent_fans_out_record_fields():
    split = DerivationAgent("burst", "split", ("w",), ("x", "y"),
                            {"fan_out": {"load": "x", "speed": "y"}})
    sim = FakeSim()
    engine = make_engine(sim, agents=[split])
    engine.catalog["w"] = CatalogEntry(
        ContextCategory("w", "w", "record"), parent="root")
    model_id = engine.register_instance("p1", "mini", {})
    model = engine.instances[model_id]
    model.intersection.categories["w"] = engine.catalog["w"].category
    engine.registrations["p1"].active = True
    push(engine, sim, "w", {"load": 7, "speed": 3}, 2)
    assert model.intersection.values["x"].payload == 7
    assert model.intersection.values["y"].payload == 3


def test_extension_can_carry_initial_values(master):
    from ctxflow.model import Additions, extend

    adds = Additions(
        categories=[(ContextCategory("eta", "eta", "numeric"), 2)],
        edges=[("processObject", "eta")],
        values=[value("eta", 40, 3)],
    )
    g = extend(master.intersection, adds)
    assert g.values["eta"].payload == 40
    assert g.step == master.intersection.step + 1


def test_topological_order_rejects_cycles():
    relations = [
        CauseEffectRelation("a", "x", "y", {"type": "linear", "a": 1, "b": 0}),
        CauseEffectRelation("b", "y", "x", {"type": "linear", "a": 1, "b": 0}),
    ]
    with pytest.raises(ValueError):
        topological_order(relations)


def test_nodes_sharing_an_id_all_run():
    relations = [
        CauseEffectRelation("r", "y", "z", {"type": "linear", "a": 1, "b": 1}),
        CauseEffectRelation("r", "x", "y", {"type": "linear", "a": 1, "b": 1}),
        CauseEffectRelation("r", "w", "root", {"type": "lookup", "table": {}}),
    ]
    assert topological_order(relations) == [relations[1], relations[0], relations[2]]


def test_arithmetic_expressions_are_sandboxed():
    assert compile_arithmetic("2 * x + 1")(5) == 11
    with pytest.raises(ValueError):
        compile_arithmetic("__import__('os')")


# (stream, ts, reliability, payload) of one write to category x
WRITES = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5),
                            st.sampled_from((0.2, 0.5, 0.9)), st.integers(0, 2)),
                  max_size=16)


@settings(max_examples=200, deadline=None)
@given(n_streams=st.integers(1, 3), writes=WRITES, batch=st.integers(1, 4))
def test_apply_value_keeps_the_winner_and_the_changes(n_streams, writes, batch):
    """Writes, stale ones included, over one to three streams of a category:
    the current value is the winner over the streams' latest values, and
    ``changed`` maps the category to (batch start, current) exactly when the
    two differ by ``==``."""
    engine = make_engine(FakeSim())
    model = register_active(engine)
    values = model.intersection.values
    latest = {}  # source -> the stream's latest accepted value
    for start in range(0, len(writes), batch):
        changed = {}
        before = values.get("x")
        for stream, ts, reliability, payload in writes[start:start + batch]:
            source = f"s{stream % n_streams}"
            v = value("x", payload, ts, source=source, reliability=reliability)
            engine._apply_value(model, v, changed)
            if source not in latest or ts > latest[source].ts:
                latest[source] = v
            if not latest:
                assert "x" not in values and changed == {}
                continue
            winner = resolve_conflict(list(latest.values()))
            assert values["x"] == winner
            assert changed == ({} if winner == before else {"x": (before, winner)})


# --- one propagation per message ---------------------------------------------------


def poll(engine, sim, category, payload, ts, model=None):
    """One PollResponse from the certified source: a refresh reaches every
    model that holds the category, an administered fetch only ``model``."""
    sim.tick = max(sim.tick, ts)
    message = {"source": "certified", "purpose": "refresh", "values": [
        {"category_id": category, "payload": payload, "ts": ts, "reliability": 0.9},
    ]}
    if model is not None:
        message.update(purpose="administer", model=model.model_id)
    engine.handle_poll_response(message)


def test_one_refresh_derives_once_for_every_model():
    calls = []

    def double(x):
        calls.append(x)
        return 2 * x

    agent = DerivationAgent("double", "expr", ("x",), ("y",), {"apply": double})
    sim = FakeSim()
    engine = make_engine(sim, agents=[agent])
    first, second = register_active(engine, "p1"), register_active(engine, "p2")
    poll(engine, sim, "x", 5, 1)
    assert calls == [5]
    assert first.intersection.values["y"] is second.intersection.values["y"]
    assert first.intersection.values["y"].payload == 10


def test_shared_fault_is_written_once_per_model():
    relation = CauseEffectRelation(
        "inverse", "x", "y", {"type": "expr", "expr": "100 / x"},
    )
    sim = FakeSim()
    engine = make_engine(sim, relations=[relation])
    models = [register_active(engine, "p1"), register_active(engine, "p2")]
    poll(engine, sim, "x", 4, 1)
    start = len(sim.trace_log)
    poll(engine, sim, "x", 0, 2)
    written = [(r.kind, r.payload["model"], r.payload.get("category"))
               for r in list(sim.trace_log)[start:]]
    assert written == [
        ("value_updated", "ctx.p1", "x"), ("engine_error", "ctx.p1", None),
        ("value_updated", "ctx.p2", "x"), ("engine_error", "ctx.p2", None),
    ]
    for model in models:
        assert model.intersection.values["x"].payload == 0
        assert model.intersection.values["y"].payload == 25


def test_compose_shares_nothing_when_a_later_input_differs():
    compose = DerivationAgent("pair", "compose", ("x", "w"), ("z",), {})
    sim = FakeSim()
    engine = make_engine(sim, agents=[compose],
                         categories=("root", "x", "w", "z"))
    engine.catalog["z"] = CatalogEntry(
        ContextCategory("z", "z", "record"), parent="root")
    models = [register_active(engine, "p1"), register_active(engine, "p2")]
    for model, label in zip(models, ("calm", "gale")):
        model.intersection.categories["z"] = engine.catalog["z"].category
        poll(engine, sim, "w", label, 1, model=model)
    poll(engine, sim, "x", 5, 2)
    assert [m.intersection.values["z"].payload for m in models] == [
        {"x": 5, "w": "calm"}, {"x": 5, "w": "gale"},
    ]


def test_aggregate_reads_each_models_own_history():
    agent = DerivationAgent("avg", "aggregate", ("x",), ("y",),
                            {"window": 3, "reducer": "mean"})
    sim = FakeSim()
    engine = make_engine(sim, agents=[agent])
    first, second = register_active(engine, "p1"), register_active(engine, "p2")
    poll(engine, sim, "x", 3, 1, model=first)
    poll(engine, sim, "x", 30, 1, model=second)
    poll(engine, sim, "x", 9, 2)
    assert first.intersection.values["y"].payload == 6
    assert second.intersection.values["y"].payload == pytest.approx(19.5)


def test_equal_but_distinct_inputs_derive_apart():
    """The memo matches inputs by identity: ``1 == 1.0``, so the two polled
    values compare equal, yet each translates by its own repr."""
    agent = DerivationAgent("name", "translate", ("x",), ("w",),
                            {"map": {"1": "int", "1.0": "float"}, "default": None})
    sim = FakeSim()
    engine = make_engine(sim, agents=[agent])
    first, second = register_active(engine, "p1"), register_active(engine, "p2")
    poll(engine, sim, "x", 1, 1, model=first)
    poll(engine, sim, "x", 1.0, 1, model=second)
    assert first.intersection.values["x"] == second.intersection.values["x"]
    assert [m.intersection.values["w"].payload for m in (first, second)] == ["int", "float"]


def reference_derive(self, model, position, node):
    """``ContextEngine._derive`` without its memo: always computes."""
    g = model.intersection
    inputs = [g.values.get(cat) for cat in node.inputs]
    if any(v is None for v in inputs):
        return []
    values, err = ContextEngine._compute(node, inputs, g)
    if err is not None:
        self.sim.trace(self.POOL, "engine_error", {
            "error": type(err).__name__, "detail": str(err),
            "model": model.model_id,
            "relation": node.node_id,
        })
    return values


def trace_and_computes(data):
    scenario, violations = parse_scenario(data)
    assert not violations, violations[:3]
    computes = 0
    compute = ContextEngine._compute

    def counted(*args):
        nonlocal computes
        computes += 1
        return compute(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ContextEngine, "_compute", staticmethod(counted))
        text = build_simulation(scenario).simulation.run().to_text()
    return text, computes


def computes_with_and_without_memo(data):
    """``_compute`` calls with the engine's ``_derive`` and with the
    reference, whose trace must be byte-identical."""
    text, computes = trace_and_computes(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ContextEngine, "_derive", reference_derive)
        reference_text, reference_computes = trace_and_computes(data)
    assert text == reference_text
    return computes, reference_computes


@pytest.mark.parametrize("name", sorted(PINNED_SCENARIOS))
def test_derivation_memo_matches_reference_on_pinned_scenarios(name):
    computes, reference_computes = computes_with_and_without_memo(PINNED_SCENARIOS[name]())
    assert computes <= reference_computes


@pytest.mark.parametrize("jitter", (0, 2))
@pytest.mark.parametrize("seed", range(40))
def test_derivation_memo_matches_reference_on_random_scenarios(seed, jitter):
    # four instances share each refresh poll, so the memo always hits
    computes, reference_computes = computes_with_and_without_memo(
        random_scenario(random.Random(seed), jitter=jitter, n_instances=4))
    assert computes < reference_computes


# --- read path -------------------------------------------------------------------


def test_context_request_returns_relevant_subgraph():
    sim = FakeSim()
    engine = make_engine(sim)
    model = register_active(engine)
    push(engine, sim, "x", 4, 2)
    engine.handle_context_request({
        "model": model.model_id, "categories": ["x"], "correlation": "q1",
    })
    snapshots = [p for (_, _, k, p) in sim.sent if k == "ContextSnapshot"]
    assert snapshots[-1]["correlation"] == "q1"
    graph = snapshots[-1]["graph"]
    assert graph["levels"] == [["root"], ["x"]]
    assert graph["values"]["x"]["payload"] == 4


def test_context_request_administers_missing_category():
    sim = FakeSim()
    engine = make_engine(sim)
    model = register_active(engine)  # model lacks z; certified provides it
    engine.handle_context_request({
        "model": model.model_id, "categories": ["z"], "correlation": "q1",
    })
    assert "z" in model.intersection.categories
    assert sim.records("model_extended")
    polls = [p for (_, _, k, p) in sim.sent if k == "PollRequest"]
    assert polls and polls[-1]["categories"] == ["z"]
    engine.handle_poll_response({
        "source": "certified", "purpose": "administer", "model": model.model_id,
        "values": [{"category_id": "z", "payload": 7, "ts": sim.now,
                    "reliability": 0.9}],
        "absent": [],
    })
    snapshots = [p for (_, _, k, p) in sim.sent if k == "ContextSnapshot"]
    assert snapshots[-1]["graph"]["values"]["z"]["payload"] == 7


def test_concurrent_requests_extend_once():
    sim = FakeSim()
    engine = make_engine(sim)
    model = register_active(engine)
    for correlation in ("q1", "q2"):
        engine.handle_context_request({
            "model": model.model_id, "categories": ["z"],
            "correlation": correlation,
        })
    assert len(sim.records("model_extended")) == 1
    polls = [p for (_, _, k, p) in sim.sent if k == "PollRequest"]
    assert len(polls) == 1
    engine.handle_poll_response({
        "source": "certified", "purpose": "administer", "model": model.model_id,
        "values": [{"category_id": "z", "payload": 7, "ts": sim.now,
                    "reliability": 0.9}],
        "absent": [],
    })
    snapshots = [p for (_, _, k, p) in sim.sent if k == "ContextSnapshot"]
    # q2 finds z in the model but still unvalued and joins q1's fetch
    assert [s["correlation"] for s in snapshots] == ["q1", "q2"]
    assert [s["graph"]["values"]["z"]["payload"] for s in snapshots] == [7, 7]


def test_category_listed_twice_is_fetched_and_answered_once():
    sim = FakeSim()
    engine = make_engine(sim)
    model = register_active(engine)
    engine.handle_context_request({
        "model": model.model_id, "categories": ["z", "z"], "correlation": "q1",
    })
    [extended] = sim.records("model_extended")
    assert extended.payload["added"] == [{"category": "z", "level": 2}]
    assert list(engine.pending_fetches) == [(model.model_id, "z")]
    held = engine.pending_fetches[(model.model_id, "z")]
    assert [pending.correlation for pending in held] == ["q1", "q1"]
    engine.handle_poll_response({
        "source": "certified", "purpose": "administer", "model": model.model_id,
        "values": [{"category_id": "z", "payload": 7, "ts": sim.now,
                    "reliability": 0.9}],
        "absent": [],
    })
    assert [k for (_, _, k, _) in sim.sent] == ["PollRequest", "ContextSnapshot"]
    assert sim.sent[-1][3]["graph"]["values"]["z"]["payload"] == 7
    assert not engine.pending_fetches


def test_closing_model_drops_its_in_flight_fetches():
    sim = FakeSim()
    engine = make_engine(sim)
    model = register_active(engine)
    engine.handle_context_request({
        "model": model.model_id, "categories": ["z"], "correlation": "q1",
    })
    assert list(engine.pending_fetches) == [(model.model_id, "z")]
    engine.shutdown_model("p1")
    assert sim.records("model_closed")
    assert engine.pending_fetches == {}
    sim.sent.clear()
    engine.handle_poll_response({
        "source": "certified", "purpose": "administer", "model": model.model_id,
        "values": [{"category_id": "z", "payload": 7, "ts": sim.now,
                    "reliability": 0.9}],
        "absent": [],
    })
    assert sim.sent == []
    assert engine.pending_fetches == {}


def test_shared_missing_parent_is_added_once():
    sim = FakeSim()
    engine = make_engine(sim)
    engine.catalog.update({
        "region": CatalogEntry(ContextCategory("region", "region"), parent="root",
                               requires_value=False),
        "temp": CatalogEntry(ContextCategory("temp", "temp", "numeric"), parent="region"),
        "wind": CatalogEntry(ContextCategory("wind", "wind", "numeric"), parent="region"),
    })
    engine.sources["station"] = SourceDescriptor(
        "station", "push", 0.9, provided_categories=("temp", "wind"))
    model = register_active(engine)
    engine.handle_context_request({
        "model": model.model_id, "categories": ["temp", "wind"], "correlation": "q1",
    })
    [extended] = sim.records("model_extended")
    assert extended.payload["added"] == [
        {"category": "region", "level": 2},
        {"category": "temp", "level": 3},
        {"category": "wind", "level": 3},
    ]
    assert sorted(model.intersection.edges) == sorted(
        [("root", c) for c in ("x", "y", "w", "region")]
        + [("region", "temp"), ("region", "wind")])


def test_repeated_request_same_tick_identical_snapshot():
    sim = FakeSim()
    engine = make_engine(sim)
    model = register_active(engine)
    push(engine, sim, "x", 4, 2)
    for correlation in ("q1", "q2"):
        engine.handle_context_request({
            "model": model.model_id, "categories": ["x"],
            "correlation": correlation,
        })
    snapshots = [p for (_, _, k, p) in sim.sent if k == "ContextSnapshot"]
    a, b = snapshots[-2], snapshots[-1]
    assert a["graph"] == b["graph"] and a["freshness"] == b["freshness"]


def test_unsourced_category_reported_missing():
    sim = FakeSim()
    engine = make_engine(sim)
    model = register_active(engine)
    before = model.intersection.to_payload()
    engine.handle_context_request({
        "model": model.model_id, "categories": ["nope"], "correlation": "q1",
    })
    snapshots = [p for (_, _, k, p) in sim.sent if k == "ContextSnapshot"]
    assert snapshots[-1]["missing"] == ["nope"]
    assert model.intersection.to_payload() == before


def request(engine, sim, model, categories, correlation):
    """One ContextRequest; returns the snapshot it got, if answered at once."""
    start = len(sim.sent)
    engine.handle_context_request({
        "model": model.model_id, "categories": list(categories),
        "correlation": correlation,
    })
    replies = [p for (_, _, k, p) in sim.sent[start:] if k == "ContextSnapshot"]
    return replies[-1] if replies else None


def add_station(engine):
    """A third catalog level, region -> temp, that a push of temp extends into."""
    engine.catalog.update({
        "region": CatalogEntry(ContextCategory("region", "region"), parent="root",
                               requires_value=False),
        "temp": CatalogEntry(ContextCategory("temp", "temp", "numeric"), parent="region"),
    })
    engine.sources["station"] = SourceDescriptor(
        "station", "push", 0.9, provided_categories=("temp",))


def test_repeated_read_works_out_the_closure_once(monkeypatch):
    calls = []

    def counted(g, categories):
        calls.append(list(categories))
        return relevant_subgraph(g, categories)

    monkeypatch.setattr(context_engine, "relevant_subgraph", counted)
    sim = FakeSim()
    engine = make_engine(sim)
    model = register_active(engine)
    push(engine, sim, "x", 4, 2)
    first = request(engine, sim, model, ["x"], "q1")
    push(engine, sim, "x", 9, 3)
    second = request(engine, sim, model, ["x"], "q2")
    assert calls == [["x"]]
    assert second["graph"]["levels"] is first["graph"]["levels"]
    assert second["graph"]["edges"] is first["graph"]["edges"]
    assert [s["graph"]["values"]["x"]["payload"] for s in (first, second)] == [4, 9]


def test_read_after_an_extension_sees_the_new_graph():
    sim = FakeSim()
    engine = make_engine(sim)
    add_station(engine)
    model = register_active(engine)
    push(engine, sim, "x", 4, 2)
    first = request(engine, sim, model, ["x"], "q1")
    assert first["graph"]["levels"] == [["root"], ["x"]]
    push(engine, sim, "temp", 20, 3, source="station")  # extends by region, temp
    assert sim.records("model_extended")
    second = request(engine, sim, model, ["x"], "q2")
    assert second["graph"] == relevant_subgraph(model.intersection, ["x"]).to_payload()
    assert second["graph"]["levels"] == [["root"], ["x"], []]
    assert second["graph"]["step"] == 1
    third = request(engine, sim, model, ["x", "temp"], "q3")
    assert third["graph"]["levels"] == [["root"], ["region", "x"], ["temp"]]
    assert third["graph"]["edges"] == [["region", "temp"], ["root", "region"], ["root", "x"]]
    assert third["graph"]["values"]["temp"]["payload"] == 20


def test_closed_model_leaves_no_read_memo():
    sim = FakeSim()
    engine = make_engine(sim)
    model = register_active(engine)
    push(engine, sim, "x", 4, 2)
    request(engine, sim, model, ["x"], "q1")
    assert model.intersection in engine.reads
    engine.shutdown_model("p1")
    del model
    gc.collect()
    assert len(engine.reads) == 0


@pytest.mark.parametrize("seed", range(6))
def test_every_snapshot_matches_the_uncached_subgraph(seed):
    rng = random.Random(seed)
    sim = FakeSim()
    engine = make_engine(sim)
    add_station(engine)
    engine.staleness = (4, 0.5) if seed % 2 else None
    models = [register_active(engine, "p1"), register_active(engine, "p2")]
    pushed = {"x": 0, "w": "calm", "temp": 0}
    for step in range(60):
        ts = step + 1
        op = rng.random()
        if op < 0.3:
            category = rng.choice(sorted(pushed))
            payload = ts if category != "w" else rng.choice(["calm", "gale"])
            push(engine, sim, category, payload, ts,
                 source="station" if category == "temp" else "certified")
            continue
        model = rng.choice(models)
        if op < 0.4 and "z" not in model.intersection.categories:
            # administered: extend by z, then answer the fetch
            assert request(engine, sim, model, ["z"], f"c{step}") is None
            sim.tick = ts
            poll(engine, sim, "z", ts, ts, model=model)
            reply = sim.sent[-1][3]
            categories = ["z"]
        else:
            # a few requests over and over, so most reads repeat one
            categories = rng.choice([["x"], ["y", "x"], ["w", "x", "root"],
                                     sorted(model.intersection.categories)])
            reply = request(engine, sim, model, categories, f"c{step}")
        assert reply["correlation"] == f"c{step}"
        expected = relevant_subgraph(model.intersection, categories).to_payload()
        assert reply["graph"] == expected
        assert reply["freshness"] == {
            c: engine.staleness is None or apply_staleness(
                model.intersection.values[c], sim.now, *engine.staleness).fresh
            for c in expected["values"]
        }


# --- shutdown -----------------------------------------------------------------------


def test_last_shutdown_closes_model_with_end_snapshot():
    sim = FakeSim()
    engine = make_engine(sim)
    model = register_active(engine)
    engine.shutdown_model("p1")
    assert model.model_id not in engine.instances
    [closed] = sim.records("model_closed")
    assert closed.payload["end_step"] == 0
    assert closed.payload["end"] == model.intersection.to_payload()


def test_sharing_instance_keeps_model_alive():
    sim = FakeSim()
    engine = make_engine(sim)
    model = register_active(engine, "p1")
    engine.register_instance("p2", "mini", {}, share_with=model.model_id)
    engine.shutdown_model("p1")
    assert model.model_id in engine.instances
    assert model.bound_instances == ["p2"]


def test_master_survives_lifecycles_byte_identical():
    sim = FakeSim()
    engine = make_engine(sim)
    before = canonical_json(engine.masters["mini"].to_payload())
    for i in range(10):
        instance = f"p{i}"
        model = register_active(engine, instance)
        push(engine, sim, "x", i, 2 * i + 1)
        engine.handle_context_request({
            "model": model.model_id, "categories": ["z"],
            "correlation": f"c{i}",
        })
        engine.shutdown_model(instance)
    assert canonical_json(engine.masters["mini"].to_payload()) == before
