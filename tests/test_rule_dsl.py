import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxflow.errors import MissingContext, RuleSyntaxError, RuleTypeError
from ctxflow.rule_dsl import (
    OPERATORS,
    And,
    BreakRollback,
    Comparison,
    Continue,
    Fresh,
    Not,
    Num,
    Or,
    Ref,
    SelectVariant,
    StartCompensation,
    Str,
    comparable,
    evaluate_condition,
    parse_rule,
    pretty_print,
    value_kind,
)

DELIVERY_SLA = """RULE Delivery SLA
WHEN executionTimeConstraint < estimatedDeliveryTime
    AND maxSLAFineAmount < estimatedSLAFine
THEN start process.compensation.deliveryVariant
END"""


def test_delivery_sla_parses_to_expected_ast():
    rule = parse_rule(DELIVERY_SLA)
    assert rule.name == "Delivery SLA"
    assert rule.condition == And((
        Comparison(Ref("executionTimeConstraint"), "<", Ref("estimatedDeliveryTime")),
        Comparison(Ref("maxSLAFineAmount"), "<", Ref("estimatedSLAFine")),
    ))
    assert rule.action == StartCompensation("process.compensation.deliveryVariant")
    assert rule.referenced_categories == (
        "estimatedDeliveryTime",
        "estimatedSLAFine",
        "executionTimeConstraint",
        "maxSLAFineAmount",
    )


def test_delivery_sla_roundtrips():
    rule = parse_rule(DELIVERY_SLA)
    assert parse_rule(pretty_print(rule)) == rule


def test_single_line_constant_rule():
    rule = parse_rule("RULE T WHEN 1 < 2 THEN continue END")
    assert rule.name == "T"
    assert rule.condition == Comparison(Num(1), "<", Num(2))
    assert rule.action == Continue()
    assert evaluate_condition(rule.condition, {}, now=0) is True


def test_actions_parse():
    assert parse_rule("RULE a WHEN 1 < 2 THEN selectVariant(shipping, truck) END").action == \
        SelectVariant("shipping", "truck")
    assert parse_rule("RULE a WHEN 1 < 2 THEN break END").action == BreakRollback(None)
    assert parse_rule("RULE a WHEN 1 < 2 THEN rollback(start) END").action == \
        BreakRollback("start")
    assert parse_rule("RULE a WHEN 1 < 2 THEN rollback(shipping) END").action == \
        BreakRollback("shipping")


def test_fresh_and_boolean_structure():
    rule = parse_rule(
        'RULE guard\n'
        'WHEN NOT weather == "clear" AND (x < 3 OR fresh(weather, 10))\n'
        'THEN break\nEND'
    )
    assert rule.condition == And((
        Not(Comparison(Ref("weather"), "==", Str("clear"))),
        Or((
            Comparison(Ref("x"), "<", Num(3)),
            Fresh("weather", 10),
        )),
    ))
    assert "weather" in rule.referenced_categories
    assert "x" in rule.referenced_categories


def test_syntax_error_carries_position():
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule("RULE bad\nWHEN a <\nTHEN continue\nEND")
    assert err.value.line == 3


def test_missing_name_rejected():
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule("RULE\nWHEN 1 < 2\nTHEN continue\nEND")
    assert str(err.value) == "rule name is empty (line 1, column 5)"
    assert (err.value.line, err.value.column) == (1, 5)


@pytest.mark.parametrize("text, column", [("", 1), ("  WHEN x > 1 THEN continue END", 3)])
def test_rule_without_its_head_rejected(text, column):
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule(text)
    assert str(err.value) == f"rule must begin with RULE (line 1, column {column})"


@pytest.mark.parametrize("condition, action, message, line, column", [
    ("a < 3 & b", "continue", "unexpected character '&'", 2, 12),
    (None, "continue", "expected 'WHEN', found 'THEN'", 2, 1),
    ("(a < 3", "continue", "expected ')', found 'THEN'", 3, 1),
    ("fresh(a 3)", "continue", "expected ',', found '3'", 2, 14),
    ("fresh(a, -3)", "continue", "fresh() takes a non-negative integer age", 2, 15),
    ("a 3", "continue", "expected a comparison operator, found '3'", 2, 8),
    ("< 3", "continue", "expected an operand, found '<'", 2, 6),
    ("a < 3", "selectVariant(WHEN, v)", "expected gate id, found 'WHEN'", 3, 20),
    ("a < 3", "selectVariant(g, END)", "expected variant id, found 'END'", 3, 23),
    ("a < 3", "rollback(THEN)", "expected rollback target, found 'THEN'", 3, 15),
    ("a < 3", "frobnicate", "expected an action, found 'frobnicate'", 3, 6),
], ids=["character", "no-when", "no-paren", "no-comma", "negative-age", "no-operator",
        "no-operand", "keyword-gate", "keyword-variant", "keyword-target", "unknown-action"])
def test_syntax_error_names_its_line_and_column(condition, action, message, line, column):
    when = "" if condition is None else f"WHEN {condition}\n"
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule(f"RULE x\n{when}THEN {action}\nEND")
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


def test_type_errors_rejected_at_parse():
    with pytest.raises(RuleTypeError):
        parse_rule('RULE t WHEN "a" < 5 THEN continue END')
    with pytest.raises(RuleTypeError):
        parse_rule('RULE t WHEN "a" < "b" THEN continue END')
    # text equality is fine
    parse_rule('RULE t WHEN "a" == "b" THEN continue END')


LONG_LITERAL = "9" * 5000  # more digits than the interpreter converts by default


@pytest.mark.parametrize("condition", [
    f"eta < {LONG_LITERAL}",
    f"fresh(eta, {LONG_LITERAL})",
], ids=["operand", "fresh-age"])
def test_number_literal_too_long_is_a_syntax_error(condition):
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule(f"RULE t\nWHEN {condition}\nTHEN continue\nEND")
    assert (err.value.line, err.value.column) == (2, condition.index("9") + 6)


def test_trailing_garbage_rejected():
    with pytest.raises(RuleSyntaxError):
        parse_rule("RULE t WHEN 1 < 2 THEN continue END END")


def test_evaluation_against_environment():
    rule = parse_rule(DELIVERY_SLA)
    env = {
        "executionTimeConstraint": (48, 0),
        "estimatedDeliveryTime": (72, 5),
        "maxSLAFineAmount": (10000, 0),
        "estimatedSLAFine": (25000, 5),
    }
    assert evaluate_condition(rule.condition, env, now=6) is True
    env["estimatedDeliveryTime"] = (40, 5)
    assert evaluate_condition(rule.condition, env, now=6) is False


def test_evaluation_fresh_predicate():
    cond = parse_rule("RULE t WHEN fresh(weather, 5) THEN continue END").condition
    assert evaluate_condition(cond, {"weather": ("clear", 10)}, now=12) is True
    assert evaluate_condition(cond, {"weather": ("clear", 10)}, now=16) is False


@pytest.mark.parametrize("condition, env, expected", [
    ("eta < 5 OR weather == \"storm\"", {"eta": (9, 0), "weather": ("storm", 0)}, True),
    ("eta < 5 OR weather == \"storm\"", {"eta": (9, 0), "weather": ("clear", 0)}, False),
    ("eta < 5 OR weather == \"storm\"", {"eta": (3, 0)}, True),  # stops at the first true term
    ("NOT eta < 5", {"eta": (3, 0)}, False),
    ("NOT eta < 5", {"eta": (9, 0)}, True),
    ("NOT fresh(eta, 2)", {"eta": (9, 0)}, True),
    ("fresh(eta, 2) OR weather == \"storm\"", {"eta": (9, 9), "weather": ("clear", 0)}, True),
    ("fresh(eta, 2)", {"eta": (9, 0), "weather": ("clear", 10)}, False),
    ("fresh(eta, 2)", {"weather": ("clear", 10)}, MissingContext),
    ("NOT fresh(eta, 2)", {}, MissingContext),
])
def test_evaluation_of_or_not_and_fresh(condition, env, expected):
    cond = parse_rule(f"RULE t WHEN {condition} THEN continue END").condition
    if expected is MissingContext:
        with pytest.raises(MissingContext):
            evaluate_condition(cond, env, now=10)
    else:
        assert evaluate_condition(cond, env, now=10) is expected


def test_evaluation_missing_reference():
    cond = parse_rule("RULE t WHEN eta < 5 THEN continue END").condition
    with pytest.raises(MissingContext):
        evaluate_condition(cond, {}, now=0)


def test_runtime_kind_mismatch():
    cond = parse_rule("RULE t WHEN eta < 5 THEN continue END").condition
    with pytest.raises(RuleTypeError):
        evaluate_condition(cond, {"eta": ("soon", 0)}, now=0)


# --- generated round-trip ----------------------------------------------------


def random_operand(rng):
    roll = rng.random()
    if roll < 0.5:
        return Ref(rng.choice(["weather", "eta", "fine", "load", "speedLimit"]))
    if roll < 0.8:
        if rng.random() < 0.5:
            return Num(rng.randint(-50, 50))
        return Num(round(rng.uniform(-10, 10), 3))
    return Str(rng.choice(["clear", "storm", "eco premium", 'quo"ted']))


def random_comparison(rng):
    left = random_operand(rng)
    right = random_operand(rng)
    texty = isinstance(left, Str) or isinstance(right, Str)
    if texty:
        # keep literal pairs type-consistent and equality-only
        if isinstance(left, Num):
            left = Ref("label")
        if isinstance(right, Num):
            right = Ref("label")
        op = rng.choice(["==", "!="])
    else:
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
    return Comparison(left, op, right)


def random_atom(rng, depth):
    roll = rng.random()
    if depth > 2 or roll < 0.55:
        return random_comparison(rng)
    if roll < 0.65:
        return Fresh(rng.choice(["weather", "eta"]), rng.randint(0, 99))
    if roll < 0.8:
        return Not(random_atom(rng, depth + 1))
    return random_cond(rng, depth + 1)


def random_conj(rng, depth):
    terms = [random_atom(rng, depth) for _ in range(rng.randint(1, 3))]
    return terms[0] if len(terms) == 1 else And(tuple(terms))


def random_cond(rng, depth=0):
    terms = [random_conj(rng, depth) for _ in range(rng.randint(1, 3))]
    return terms[0] if len(terms) == 1 else Or(tuple(terms))


def random_action(rng):
    return rng.choice([
        Continue(),
        SelectVariant("shipping", "truck"),
        BreakRollback(None),
        BreakRollback("start"),
        BreakRollback("packaging"),
        StartCompensation("process.compensation.deliveryVariant"),
        StartCompensation("redo"),
    ])


def test_two_hundred_generated_rules_roundtrip():
    rng = random.Random(7)
    from ctxflow.rule_dsl import Rule, referenced_categories

    for i in range(200):
        condition = random_cond(rng)
        rule = Rule(
            rule_id=f"r{i}",
            name=f"r{i}",
            condition=condition,
            action=random_action(rng),
            referenced_categories=referenced_categories(condition),
        )
        reparsed = parse_rule(pretty_print(rule), rule_id=rule.rule_id)
        assert reparsed == rule, pretty_print(rule)


# --- compiled evaluation against the recursive interpreter ---------------------


def reference_condition(condition, env: dict, now: int) -> bool:
    """The recursive interpreter conditions were evaluated with before they
    were compiled; kept here as the oracle for the compiled closures."""
    if isinstance(condition, Or):
        return any(reference_condition(t, env, now) for t in condition.terms)
    if isinstance(condition, And):
        return all(reference_condition(t, env, now) for t in condition.terms)
    if isinstance(condition, Not):
        return not reference_condition(condition.term, env, now)
    if isinstance(condition, Fresh):
        if condition.category not in env:
            raise MissingContext(f"no value for {condition.category!r}")
        _, ts = env[condition.category]
        return now - ts <= condition.max_age
    left = _reference_resolve(condition.left, env)
    right = _reference_resolve(condition.right, env)
    if not comparable(value_kind(left), condition.op, value_kind(right)):
        raise RuleTypeError(f"cannot compare {type(left).__name__} with "
                            f"{type(right).__name__} under {condition.op!r}")
    return OPERATORS[condition.op](left, right)


def _reference_resolve(operand, env: dict):
    if isinstance(operand, Ref):
        if operand.name not in env:
            raise MissingContext(f"no value for {operand.name!r}")
        payload, _ = env[operand.name]
        return payload
    return operand.value


def outcome_of(evaluate, *args):
    """What a call gives: ("value", result) or ("raised", class, text)."""
    try:
        return "value", evaluate(*args)
    except (MissingContext, RuleTypeError) as err:
        return "raised", type(err), str(err)


NAMES = ("a", "b", "c")
# payloads and literals are drawn mostly from small pools, so that equal
# values, where ``<`` and ``<=`` part, come up often
NUMBERS = st.sampled_from([0, 1, 2, 1.0, 2.5, -1])
TEXTS = st.sampled_from(["1", "a", "b", ""])
PAYLOADS = st.one_of(
    NUMBERS, TEXTS, st.sampled_from([True, False, {}, [], None, math.inf, math.nan]),
    st.integers(-5, 40), st.floats(allow_nan=True, width=32), st.text(max_size=2),
)
ENVS = st.dictionaries(st.sampled_from(NAMES), st.tuples(PAYLOADS, st.integers(0, 20)))
OPS = st.sampled_from(sorted(OPERATORS))
REFS = st.builds(Ref, st.sampled_from(NAMES))
LITERALS = st.one_of(
    st.builds(Num, st.one_of(NUMBERS, st.just(True), st.floats(allow_nan=True, width=32))),
    st.builds(Str, st.one_of(TEXTS, st.text(max_size=2))),
)
ATOMS = st.one_of(
    st.builds(Comparison, REFS, OPS, LITERALS),
    st.builds(Comparison, LITERALS, OPS, REFS),
    st.builds(Comparison, REFS, OPS, REFS),
    st.builds(Comparison, LITERALS, OPS, LITERALS),
    st.builds(Fresh, st.sampled_from(NAMES), st.integers(0, 10)),
)
CONDITIONS = st.recursive(ATOMS, lambda inner: st.one_of(
    st.builds(Not, inner),
    st.builds(And, st.lists(inner, min_size=2, max_size=3).map(tuple)),
    st.builds(Or, st.lists(inner, min_size=2, max_size=3).map(tuple)),
), max_leaves=8)


def same(got, expected) -> bool:
    """Equal outcomes, and a result of the same type (``True`` is not ``1``)."""
    return got == expected and type(got[1]) is type(expected[1])


@settings(max_examples=400, deadline=None)
@given(condition=CONDITIONS, envs=st.lists(ENVS, min_size=1, max_size=3),
       now=st.integers(0, 25))
def test_compiled_condition_agrees_with_the_interpreter(condition, envs, now):
    # the first evaluation compiles; later ones reuse the closure on the node
    for env in envs:
        expected = outcome_of(reference_condition, condition, env, now)
        assert same(outcome_of(evaluate_condition, condition, env, now), expected), \
            (condition, env)


SAMPLE_VALUES = [0, 1, 2, -1, 1.0, 2.5, math.inf, math.nan, True, False,
                 "1", "a", "", {}, [], None]


def test_every_single_comparison_agrees_with_the_interpreter():
    # each operator, each side a category or a literal, over every pair of values
    for op in OPERATORS:
        for x in SAMPLE_VALUES:
            for y in SAMPLE_VALUES:
                env = {"a": (x, 0), "b": (y, 0)}
                literal = Str(y) if isinstance(y, str) else Num(y)
                for condition in (Comparison(Ref("a"), op, literal),
                                  Comparison(literal, op, Ref("a")),
                                  Comparison(Ref("a"), op, Ref("b")),
                                  Comparison(Ref("a"), op, Ref("c"))):
                    expected = outcome_of(reference_condition, condition, env, 0)
                    assert same(outcome_of(evaluate_condition, condition, env, 0), expected), \
                        (condition, env)


@pytest.mark.parametrize("payload, error", [
    (True, "cannot compare bool with int under '<'"),
    ({}, "cannot compare dict with int under '<'"),
    ("1", "cannot compare str with int under '<'"),
    (None, "cannot compare NoneType with int under '<'"),
])
def test_compiled_comparison_raises_the_interpreters_type_error(payload, error):
    cond = parse_rule("RULE t WHEN eta < 5 THEN continue END").condition
    assert evaluate_condition(cond, {"eta": (1.0, 0)}, now=0) is True  # compiles
    with pytest.raises(RuleTypeError) as err:
        evaluate_condition(cond, {"eta": (payload, 0)}, now=0)
    assert str(err.value) == error


def test_compiled_closure_is_kept_out_of_equality_and_repr():
    rule = parse_rule(DELIVERY_SLA)
    before = repr(rule.condition)
    env = {c: (1, 0) for c in rule.referenced_categories}
    evaluate_condition(rule.condition, env, now=0)
    assert rule.condition.compiled is not None
    assert repr(rule.condition) == before
    assert rule.condition == parse_rule(DELIVERY_SLA).condition
    assert hash(rule.condition) == hash(parse_rule(DELIVERY_SLA).condition)
