import itertools
import random

import pytest

from ctxflow.errors import (
    DeletionRejected,
    EmptyBinding,
    InvalidMaster,
    KindMismatch,
    LevelViolation,
    StaleWrite,
    StepBudgetExceeded,
    UnknownCategory,
)
from ctxflow.model import (
    Additions,
    ContextCategory,
    ContextIntersection,
    extend,
    instantiate_from_master,
    is_subgraph,
    relevant_subgraph,
    update_value,
    validate_intersection,
)
from ctxflow.trace import canonical_json

from .conftest import methods_extension, value


# --- independent oracles -------------------------------------------------


def containment_oracle(a, b) -> bool:
    """Naive subgraph check by set containment of padded levels and edges."""
    levels_a = [set(level) for level in a.levels]
    levels_b = [set(level) for level in b.levels]
    while len(levels_a) < len(levels_b):
        levels_a.append(set())
    while len(levels_b) < len(levels_a):
        levels_b.append(set())
    if not all(la <= lb for la, lb in zip(levels_a, levels_b)):
        return False
    return set(a.edges) <= set(b.edges)


def ancestor_closure_oracle(g, requested) -> set:
    """Reachability over reversed edges, up to the first level."""
    reverse = {}
    for parent, child in g.edges:
        reverse.setdefault(child, set()).add(parent)
    closure = set()
    stack = list(requested)
    while stack:
        cat = stack.pop()
        if cat in closure:
            continue
        closure.add(cat)
        stack.extend(reverse.get(cat, ()))
    return closure


def random_master(rng: random.Random, max_levels=4, max_per_level=4):
    g = ContextIntersection()
    counter = itertools.count()
    n_levels = rng.randint(1, max_levels)
    for level in range(1, n_levels + 1):
        for _ in range(rng.randint(1, max_per_level)):
            cat_id = f"c{next(counter)}"
            g.add_category(ContextCategory(cat_id, cat_id, "numeric"), level)
    ids_by_level = [list(level) for level in g.levels]
    for hi in range(1, len(ids_by_level)):
        for child in ids_by_level[hi]:
            lo = rng.randrange(hi)
            parent = rng.choice(ids_by_level[lo])
            g.add_edge(parent, child)
    from ctxflow.model import MasterContextModel

    return MasterContextModel(
        model_id=f"m{rng.randrange(10**6)}",
        intersection=g,
        predefined_categories=list(g.levels[0]),
    ), counter


def random_additions(rng: random.Random, g, counter):
    adds = Additions()
    levels = {cat: g.level_of(cat) for cat in g.category_ids()}
    for _ in range(rng.randint(0, 3)):
        cat_id = f"c{next(counter)}"
        level = rng.randint(1, len(g.levels) + 1)
        adds.categories.append((ContextCategory(cat_id, cat_id, "numeric"), level))
        lower = [c for c, lvl in levels.items() if lvl < level]
        if level > 1 and lower:
            adds.edges.append((rng.choice(lower), cat_id))
        levels[cat_id] = level
    return adds


# --- validate_intersection -------------------------------------------------


def test_logistics_master_validates_clean(master):
    assert validate_intersection(master.intersection).ok
    assert master.validate().ok


def test_empty_intersection_validates_clean():
    assert validate_intersection(ContextIntersection()).ok


def test_upward_edge_reported():
    g = ContextIntersection()
    g.add_category(ContextCategory("top", "top"), 1)
    g.add_category(ContextCategory("leaf", "leaf"), 2)
    g.edges.append(("leaf", "top"))  # bypass add_edge to build the bad graph
    report = validate_intersection(g)
    assert [v.code for v in report.violations] == ["edge-level-order"]
    assert report.violations[0].subject == "leaf->top"


def test_overlapping_levels_reported():
    g = ContextIntersection()
    g.add_category(ContextCategory("a", "a"), 1)
    g.levels.append(["a"])
    report = validate_intersection(g)
    assert any(v.code == "overlapping-levels" for v in report.violations)


# --- instantiate_from_master -----------------------------------------------


def test_instance_starts_as_master_copy(master):
    inst = instantiate_from_master(master, ["p1"])
    assert inst.intersection.step == 0
    assert is_subgraph(inst.intersection, master.intersection)
    assert is_subgraph(master.intersection, inst.intersection)


def test_two_instantiations_are_distinct(master):
    a = instantiate_from_master(master, ["p1"])
    b = instantiate_from_master(master, ["p2"])
    assert a.model_id != b.model_id
    assert containment_oracle(a.intersection, b.intersection)
    assert containment_oracle(b.intersection, a.intersection)


def test_mutating_instance_leaves_master_untouched(master):
    before = canonical_json(master.to_payload())
    inst = instantiate_from_master(master, ["p1"])
    inst.apply_extension(methods_extension())
    update_value(inst.intersection, value("weather", "clear", 5))
    assert canonical_json(master.to_payload()) == before


def test_empty_binding_rejected(master):
    with pytest.raises(EmptyBinding):
        instantiate_from_master(master, [])


def test_invalid_master_rejected(master):
    master.intersection.edges.append(("weather", "geospatial"))
    with pytest.raises(InvalidMaster):
        instantiate_from_master(master, ["p1"])


# --- extend ------------------------------------------------------------------


def test_methods_extension_reaches_next_configuration(master):
    g_t = master.intersection
    g_t1 = extend(g_t, methods_extension())
    assert g_t1.step == g_t.step + 1
    assert is_subgraph(g_t, g_t1)
    assert validate_intersection(g_t1).ok
    assert "shippingMethod" in g_t1.category_ids()
    assert ("processObject", "packagingMethod") in g_t1.edges


def test_empty_extension_increments_step_only(master):
    g = master.intersection
    result = extend(g, Additions())
    assert result.step == g.step + 1
    assert containment_oracle(g, result) and containment_oracle(result, g)


def test_relocation_rejected(master):
    adds = Additions(categories=[(ContextCategory("weather", "weather"), 1)])
    with pytest.raises(DeletionRejected):
        extend(master.intersection, adds)


def test_readding_a_category_at_its_level_or_an_edge_changes_nothing(master):
    g = master.intersection
    levels, edges = [list(level) for level in g.levels], list(g.edges)
    result = extend(g, Additions(categories=[(g.categories["weather"], 2)],
                                 edges=[("geospatial", "weather")]))
    assert (result.levels, result.edges) == (levels, edges)


def test_upward_new_edge_rejected(master):
    adds = Additions(edges=[("weather", "geospatial")])
    with pytest.raises(LevelViolation):
        extend(master.intersection, adds)


def test_step_budget_enforced(master):
    g = master.intersection
    g2 = extend(g, Additions(), k=1)
    with pytest.raises(StepBudgetExceeded):
        extend(g2, Additions(), k=1)


def test_random_extension_sequences_stay_subgraphs(rng):
    for _ in range(50):
        master, counter = random_master(rng)
        inst = instantiate_from_master(master, ["p"])
        snapshots = [inst.intersection.clone()]
        for _ in range(10):
            inst.apply_extension(random_additions(rng, inst.intersection, counter))
            snapshots.append(inst.intersection.clone())
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert containment_oracle(earlier, later)
            assert is_subgraph(earlier, later)
            assert validate_intersection(later).ok


# --- is_subgraph ---------------------------------------------------------------


def test_extension_pair_is_subgraph(master):
    g_t = master.intersection
    g_t1 = extend(g_t, methods_extension())
    assert is_subgraph(g_t, g_t1)
    assert not is_subgraph(g_t1, g_t)


def test_subgraph_reflexive(master):
    assert is_subgraph(master.intersection, master.intersection)


def test_subgraph_agrees_with_oracle_on_random_pairs(rng):
    graphs = []
    for _ in range(12):
        master, counter = random_master(rng)
        g = master.intersection
        if rng.random() < 0.7:
            g = extend(g, random_additions(rng, g, counter))
        graphs.append(g)
    for a in graphs:
        for b in graphs:
            assert is_subgraph(a, b) == containment_oracle(a, b)


# --- update_value ---------------------------------------------------------------


def test_weather_update_replaces_current(master):
    inst = instantiate_from_master(master, ["p1"])
    g = inst.intersection
    update_value(g, value("weather", "clear", 3))
    update_value(g, value("weather", "thunderstorm, road washed out", 8))
    assert g.values["weather"].payload == "thunderstorm, road washed out"
    assert [v.payload for v in g.history["weather"]] == ["clear"]


def test_writes_to_clone_or_extension_leave_original_untouched(master):
    g = instantiate_from_master(master, ["p1"]).intersection
    update_value(g, value("weather", "clear", 3))
    update_value(g, value("weather", "fog", 4))
    before = (canonical_json(g.to_payload()),
              {cat: dict(s) for cat, s in g.streams.items()},
              {cat: list(h) for cat, h in g.history.items()})
    for copy in (g.clone(), extend(g, methods_extension())):
        update_value(copy, value("weather", "rain", 9))
        update_value(copy, value("weather", "hail", 9, source="radar"))
        update_value(copy, value("traffic", "jam", 9))
        assert (canonical_json(g.to_payload()),
                {cat: dict(s) for cat, s in g.streams.items()},
                {cat: list(h) for cat, h in g.history.items()}) == before
    # the original stream still accepts a timestamp the copies already passed
    update_value(g, value("weather", "sun", 5))


def test_equal_ts_redelivery_is_stale(master):
    g = instantiate_from_master(master, ["p1"]).intersection
    update_value(g, value("weather", "clear", 3))
    with pytest.raises(StaleWrite):
        update_value(g, value("weather", "clear", 3))
    assert g.values["weather"].payload == "clear"
    assert "weather" not in g.history


def test_out_of_order_updates_converge(master):
    expected = None
    for order in itertools.permutations([3, 1, 2]):
        g = instantiate_from_master(master, ["p1"]).intersection
        for ts in order:
            try:
                update_value(g, value("weather", f"w{ts}", ts))
            except StaleWrite:
                pass
        final = g.values["weather"].payload
        if expected is None:
            expected = final
        assert final == expected
    assert expected == "w3"


def test_unknown_category_and_kind_mismatch(master):
    g = instantiate_from_master(master, ["p1"]).intersection
    with pytest.raises(UnknownCategory):
        update_value(g, value("nope", "x", 1))
    numeric = ContextIntersection()
    numeric.add_category(ContextCategory("eta", "eta", "numeric"), 1)
    with pytest.raises(KindMismatch):
        update_value(numeric, value("eta", "soon", 1))


def test_stream_monotonicity_across_interleavings(rng, master):
    for _ in range(30):
        g = instantiate_from_master(master, ["p1"]).intersection
        events = [value("traffic", f"t{i}", rng.randint(0, 20)) for i in range(6)]
        rng.shuffle(events)
        seen: dict[str, int] = {}
        for event in events:
            try:
                update_value(g, event)
            except StaleWrite:
                assert event.ts <= seen[event.value_id]
                continue
            assert event.ts > seen.get(event.value_id, -1)
            seen[event.value_id] = event.ts


# --- relevant_subgraph -----------------------------------------------------------


def test_weather_request_pulls_in_geospatial(master):
    sub = relevant_subgraph(master.intersection, ["weather"])
    assert sub.category_ids() == ["geospatial", "weather"]
    assert sub.edges == [("geospatial", "weather")]
    assert is_subgraph(sub, master.intersection)


def test_full_request_is_identity(master):
    g = master.intersection
    sub = relevant_subgraph(g, g.category_ids())
    assert containment_oracle(sub, g) and containment_oracle(g, sub)


def test_extension_leaf_closure_matches_oracle(master):
    g = extend(master.intersection, methods_extension())
    sub = relevant_subgraph(g, ["packagingMethod"])
    assert set(sub.category_ids()) == ancestor_closure_oracle(g, ["packagingMethod"])
    assert sub.edges == [("processObject", "packagingMethod")]


def test_relevant_subgraph_random_closure(rng):
    for _ in range(25):
        master, _ = random_master(rng)
        g = master.intersection
        cats = g.category_ids()
        requested = rng.sample(cats, rng.randint(1, len(cats)))
        sub = relevant_subgraph(g, requested)
        assert set(sub.category_ids()) == ancestor_closure_oracle(g, requested)
        assert is_subgraph(sub, g)


def test_relevant_subgraph_payload_after_an_extension(master):
    g = extend(master.intersection, Additions(
        categories=[(ContextCategory("region", "region"), 2),
                    (ContextCategory("temp", "temp", "numeric"), 3)],
        edges=[("geospatial", "region"), ("region", "temp")]))
    for category, payload, ts in (("weather", "clear", 2), ("weather", "fog", 3),
                                  ("geospatial", "eu", 3), ("temp", 20, 4),
                                  ("traffic", "jam", 4)):
        update_value(g, value(category, payload, ts))
    # a level without a closure category stays as an empty list; current
    # values of the closure (ancestors included) ride along, history does not
    sub = relevant_subgraph(g, ["weather"])
    assert sub.to_payload() == {
        "levels": [["geospatial"], ["weather"], []],
        "edges": [["geospatial", "weather"]],
        "values": {c: g.values[c].to_payload() for c in ("geospatial", "weather")},
        "step": 1,
    }
    assert sub.history == {}
    payload = relevant_subgraph(g, ["weather", "temp"]).to_payload()
    assert payload["levels"] == [["geospatial"], ["region", "weather"], ["temp"]]
    assert payload["edges"] == [["geospatial", "region"], ["geospatial", "weather"],
                                ["region", "temp"]]
    assert sorted(payload["values"]) == ["geospatial", "temp", "weather"]


def test_relevant_subgraph_unknown_category(master):
    with pytest.raises(UnknownCategory):
        relevant_subgraph(master.intersection, ["nope"])


# --- lifecycle bookkeeping --------------------------------------------------------


def test_close_records_end_configuration(master):
    inst = instantiate_from_master(master, ["p1"])
    start = inst.intersection.clone()
    inst.apply_extension(methods_extension())
    assert [start.step, inst.intersection.step] == [0, 1]
    assert is_subgraph(start, inst.intersection)


def test_history_is_bounded(master):
    g = instantiate_from_master(master, ["p1"]).intersection
    for ts in range(1, 20):
        update_value(g, value("traffic", f"t{ts}", ts))
    assert len(g.history["traffic"]) == g.history_limit
    assert g.values["traffic"].payload == "t19"
