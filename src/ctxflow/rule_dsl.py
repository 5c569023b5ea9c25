"""WHEN/THEN rule language: parser, AST, evaluator, printer.

A condition is compiled once, on its first evaluation, into a closure that
is kept on its node; later evaluations only call the closure.

Grammar (newlines inside the condition are plain whitespace; the rule
name runs from RULE to the end of its line or to the WHEN keyword):

    rule    := "RULE" name "WHEN" cond "THEN" action "END"
    cond    := conj ("OR" conj)*
    conj    := atom ("AND" atom)*
    atom    := "NOT" atom | "(" cond ")" | operand cmp operand
               | "fresh" "(" ident "," integer ")"
    cmp     := "<" | "<=" | ">" | ">=" | "==" | "!="
    operand := ident | number | string
    action  := "continue" | "selectVariant" "(" ident "," ident ")"
               | "break" | "rollback" "(" ("start" | ident) ")"
               | "start" dotted-name

``pretty_print`` emits canonical text that reparses to an equal rule.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import MissingContext, RuleSyntaxError, RuleTypeError

# --- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Str:
    value: str


@dataclass(frozen=True)
class Condition:
    """A condition node.  ``compiled`` is the closure ``evaluate_condition``
    builds for it on first use; it takes no part in equality or repr."""

    compiled: object = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Comparison(Condition):
    left: object
    op: str
    right: object


@dataclass(frozen=True)
class And(Condition):
    terms: tuple


@dataclass(frozen=True)
class Or(Condition):
    terms: tuple


@dataclass(frozen=True)
class Not(Condition):
    term: object


@dataclass(frozen=True)
class Fresh(Condition):
    category: str
    max_age: int


@dataclass(frozen=True)
class Continue:
    pass


@dataclass(frozen=True)
class SelectVariant:
    gate_id: str
    variant_id: str


@dataclass(frozen=True)
class BreakRollback:
    # None means a bare break: reset to the gate under evaluation
    target: str | None


@dataclass(frozen=True)
class StartCompensation:
    process_ref: str


@dataclass(frozen=True)
class Rule:
    rule_id: str
    name: str
    condition: object
    action: object
    referenced_categories: tuple[str, ...]
    required_freshness: dict = field(default_factory=dict, compare=False)


# comparison operator -> function; also the filter agent's ``op``
OPERATORS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}


def value_kind(value) -> str:
    """The kind a payload or literal compares as: numeric, text or record."""
    if isinstance(value, str):
        return "text"
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    return "numeric" if numeric else "record"


def comparable(left: str, op: str, right: str) -> bool:
    """Whether values of two kinds meet under ``op`` without a RuleTypeError.

    Numbers compare with numbers under every operator, text and enum values
    with each other under ``==`` and ``!=`` only, and records never.
    """
    if left == right == "numeric":
        return True
    return left in ("text", "enum") and right in ("text", "enum") and op in ("==", "!=")


# --- tokenizer ---------------------------------------------------------------

# one match per token, with the whitespace before it
_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<number>-?\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<op><=|>=|==|!=|<|>)
  | (?P<punct>[(),.])
)""", re.VERBOSE)

_KEYWORDS = {
    "RULE", "WHEN", "THEN", "END", "AND", "OR", "NOT", "fresh",
    "continue", "selectVariant", "break", "rollback", "start",
}
_NOT_NAMES = _KEYWORDS - {"start"}  # words no gate, variant or process name may be


class _Token(NamedTuple):
    kind: str  # number | ident | string | op | punct | eof
    text: str
    pos: int


# builds a _Token from a (kind, text, pos) tuple in C, skipping the
# Python-level __new__ that would cost more than the regex match
_make_token = tuple.__new__


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    last_nl = text.rfind("\n", 0, pos)
    return line, pos - last_nl


def _tokenize(text: str, start: int) -> list[_Token]:
    tokens, pos = [], start
    for match in _TOKEN_RE.finditer(text, start):
        if match.start() != pos:
            break  # the search skipped a character no token starts with
        kind = match.lastgroup
        tokens.append(_make_token(_Token, (kind, match.group(kind), match.start(kind))))
        pos = match.end()
    rest = text[pos:].lstrip()
    if rest:
        line, col = _line_col(text, len(text) - len(rest))
        raise RuleSyntaxError(f"unexpected character {rest[0]!r}", line, col)
    tokens.append(_Token("eof", "", len(text)))
    return tokens


# --- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, tokens: list[_Token]):
        self.text = text
        self.tokens = tokens
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def next(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def fail(self, message: str, token: _Token | None = None):
        token = token or self.peek()
        line, col = _line_col(self.text, token.pos)
        raise RuleSyntaxError(message, line, col)

    def expect_word(self, word: str) -> _Token:
        token = self.peek()
        if token.kind == "ident" and token.text == word:
            return self.next()
        self.fail(f"expected {word!r}, found {token.text or 'end of input'!r}")

    def expect_punct(self, char: str) -> _Token:
        token = self.peek()
        if token.kind == "punct" and token.text == char:
            return self.next()
        self.fail(f"expected {char!r}, found {token.text or 'end of input'!r}")

    def at_word(self, word: str) -> bool:
        token = self.peek()
        return token.kind == "ident" and token.text == word

    # cond := conj ("OR" conj)*
    def parse_cond(self):
        terms = [self.parse_conj()]
        while self.at_word("OR"):
            self.next()
            terms.append(self.parse_conj())
        return terms[0] if len(terms) == 1 else Or(tuple(terms))

    def parse_conj(self):
        terms = [self.parse_atom()]
        while self.at_word("AND"):
            self.next()
            terms.append(self.parse_atom())
        return terms[0] if len(terms) == 1 else And(tuple(terms))

    def parse_atom(self):
        token = self.peek()
        if self.at_word("NOT"):
            self.next()
            return Not(self.parse_atom())
        if token.kind == "punct" and token.text == "(":
            self.next()
            inner = self.parse_cond()
            self.expect_punct(")")
            return inner
        if self.at_word("fresh"):
            self.next()
            self.expect_punct("(")
            name = self.parse_plain_ident("category name")
            self.expect_punct(",")
            age_token = self.peek()
            if age_token.kind != "number" or "." in age_token.text or age_token.text.startswith("-"):
                self.fail("fresh() takes a non-negative integer age")
            self.next()
            self.expect_punct(")")
            return Fresh(name, self.integer(age_token))
        left = self.parse_operand()
        op_token = self.peek()
        if op_token.kind != "op":
            self.fail(f"expected a comparison operator, found {op_token.text or 'end of input'!r}")
        self.next()
        right = self.parse_operand()
        return self.typed_comparison(left, op_token.text, right, op_token)

    def typed_comparison(self, left, op, right, token) -> Comparison:
        # a category's kind is known only from the catalog: take it to match the other side
        lk, rk = (None if isinstance(o, Ref) else value_kind(o.value) for o in (left, right))
        if (lk or rk) and not comparable(lk or rk, op, rk or lk):
            line, col = _line_col(self.text, token.pos)
            raise RuleTypeError(f"cannot compare {lk or 'a category'} with "
                                f"{rk or 'a category'} under {op!r} (line {line}, column {col})")
        return Comparison(left, op, right)

    def parse_operand(self):
        token = self.peek()
        if token.kind == "number":
            self.next()
            if "." in token.text:
                return Num(float(token.text))
            return Num(self.integer(token))
        if token.kind == "string":
            self.next()
            return Str(_unquote(token.text))
        if token.kind == "ident":
            if token.text in _KEYWORDS:
                self.fail(f"keyword {token.text!r} cannot be used as an operand")
            self.next()
            return Ref(token.text)
        self.fail(f"expected an operand, found {token.text or 'end of input'!r}")

    def integer(self, token: _Token) -> int:
        try:
            return int(token.text)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            self.fail(f"number literal of {len(token.text)} characters is too long", token)

    def parse_plain_ident(self, what: str) -> str:
        token = self.peek()
        if token.kind != "ident" or token.text in _NOT_NAMES:
            self.fail(f"expected {what}, found {token.text or 'end of input'!r}")
        self.next()
        return token.text

    def parse_action(self):
        if self.at_word("continue"):
            self.next()
            return Continue()
        if self.at_word("break"):
            self.next()
            return BreakRollback(None)
        if self.at_word("selectVariant"):
            self.next()
            self.expect_punct("(")
            gate = self.parse_plain_ident("gate id")
            self.expect_punct(",")
            variant = self.parse_plain_ident("variant id")
            self.expect_punct(")")
            return SelectVariant(gate, variant)
        if self.at_word("rollback"):
            self.next()
            self.expect_punct("(")
            target = self.parse_plain_ident("rollback target")
            self.expect_punct(")")
            return BreakRollback(target)
        if self.at_word("start"):
            self.next()
            parts = [self.parse_plain_ident("process reference")]
            while self.peek().kind == "punct" and self.peek().text == ".":
                self.next()
                parts.append(self.parse_plain_ident("process reference"))
            return StartCompensation(".".join(parts))
        self.fail(f"expected an action, found {self.peek().text or 'end of input'!r}")


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


_HEAD = re.compile(r"\s*RULE[ \t]+")
_NAME_STOP = re.compile(r"\bWHEN\b|\n")


def parse_rule(text: str, rule_id: str | None = None) -> Rule:
    """Parse one rule statement; raises RuleSyntaxError / RuleTypeError."""
    head = _HEAD.match(text)
    if head is None:
        line, col = _line_col(text, len(text) - len(text.lstrip()))
        raise RuleSyntaxError("rule must begin with RULE", line, col)
    stop = _NAME_STOP.search(text, head.end())
    name_end = stop.start() if stop else len(text)
    name = text[head.end():name_end].strip()
    if not name:
        line, col = _line_col(text, head.end())
        raise RuleSyntaxError("rule name is empty", line, col)
    parser = _Parser(text, _tokenize(text, name_end))
    parser.expect_word("WHEN")
    condition = parser.parse_cond()
    parser.expect_word("THEN")
    action = parser.parse_action()
    parser.expect_word("END")
    if parser.peek().kind != "eof":
        parser.fail(f"unexpected trailing input {parser.peek().text!r}")
    return Rule(
        rule_id=rule_id if rule_id is not None else name,
        name=name,
        condition=condition,
        action=action,
        referenced_categories=referenced_categories(condition),
    )


def atoms(condition) -> list:
    """The comparisons and ``fresh`` tests of a condition, left to right."""
    found, stack = [], [condition]
    while stack:
        node = stack.pop()
        if isinstance(node, (And, Or)):
            stack.extend(reversed(node.terms))
        elif isinstance(node, Not):
            stack.append(node.term)
        else:
            found.append(node)
    return found


def mistyped(condition, kind_of):
    """Describe each comparison in ``condition`` that would raise RuleTypeError.

    ``kind_of`` maps a referenced category to its kind, or to None when
    unknown; a comparison with an unknown side is not judged.
    """
    for atom in atoms(condition):
        if isinstance(atom, Comparison):
            left, right = (kind_of(side.name) if isinstance(side, Ref) else value_kind(side.value)
                           for side in (atom.left, atom.right))
            if None not in (left, right) and not comparable(left, atom.op, right):
                yield f"cannot compare {left} with {right} under {atom.op!r}"


def referenced_categories(condition) -> tuple[str, ...]:
    """Sorted, de-duplicated context references appearing in a condition."""
    found: set[str] = set()
    for atom in atoms(condition):
        if isinstance(atom, Fresh):
            found.add(atom.category)
        else:
            found.update(o.name for o in (atom.left, atom.right) if isinstance(o, Ref))
    return tuple(sorted(found))


# --- printer -----------------------------------------------------------------


def pretty_print(rule: Rule) -> str:
    return (
        f"RULE {rule.name}\n"
        f"WHEN {_print_cond(rule.condition)}\n"
        f"THEN {_print_action(rule.action)}\n"
        f"END"
    )


def _print_cond(node) -> str:
    if isinstance(node, Or):
        return " OR ".join(_print_conj(term) for term in node.terms)
    return _print_conj(node)


def _print_conj(node) -> str:
    if isinstance(node, And):
        return " AND ".join(_print_atom(term) for term in node.terms)
    return _print_atom(node)


def _print_atom(node) -> str:
    if isinstance(node, Comparison):
        return f"{_print_operand(node.left)} {node.op} {_print_operand(node.right)}"
    if isinstance(node, Fresh):
        return f"fresh({node.category}, {node.max_age})"
    if isinstance(node, Not):
        return f"NOT {_print_atom(node.term)}"
    return f"({_print_cond(node)})"


def _print_operand(operand) -> str:
    if isinstance(operand, Ref):
        return operand.name
    if isinstance(operand, Num):
        return repr(operand.value)
    return _quote(operand.value)


def _print_action(action) -> str:
    if isinstance(action, Continue):
        return "continue"
    if isinstance(action, SelectVariant):
        return f"selectVariant({action.gate_id}, {action.variant_id})"
    if isinstance(action, BreakRollback):
        if action.target is None:
            return "break"
        return f"rollback({action.target})"
    return f"start {action.process_ref}"


# --- evaluation --------------------------------------------------------------

# comparison operator -> the operator with its sides swapped
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
# literal kind -> the payload types that meet it without a kind check; any
# other type (bool, an int subclass) takes the checked path
_PLAIN_TYPES = {"numeric": (int, float), "text": (str,)}


def evaluate_condition(condition, env: dict, now: int) -> bool:
    """Evaluate against ``env`` mapping category -> (payload, ts).

    ``fresh(c, n)`` holds when the value for ``c`` is at most ``n`` ticks
    old at ``now``.  Unknown references raise MissingContext; comparisons
    between incompatible runtime kinds raise RuleTypeError.  The condition
    is compiled on its first evaluation and the closure kept on its node.
    """
    compiled = condition.compiled
    if compiled is None:
        compiled = _compile(condition)
    return compiled(env, now)


def _compile(node):
    """Compile ``node`` to a closure ``(env, now) -> bool`` and keep it on the node.

    ``OR`` and ``AND`` stop at the first term that decides them, left to right.
    """
    if isinstance(node, (Or, And)):
        terms = tuple(term.compiled or _compile(term) for term in node.terms)
        if isinstance(node, Or):
            def compiled(env, now):
                for term in terms:
                    if term(env, now):
                        return True
                return False
        else:
            def compiled(env, now):
                for term in terms:
                    if not term(env, now):
                        return False
                return True
    elif isinstance(node, Not):
        term = node.term.compiled or _compile(node.term)

        def compiled(env, now):
            return not term(env, now)
    elif isinstance(node, Fresh):
        category, max_age = node.category, node.max_age

        def compiled(env, now):
            if category not in env:
                raise MissingContext(f"no value for {category!r}")
            _, ts = env[category]
            return now - ts <= max_age
    else:
        compiled = _compile_comparison(node)
    object.__setattr__(node, "compiled", compiled)
    return compiled


def _compile_comparison(node: Comparison):
    op, apply = node.op, OPERATORS[node.op]
    left, right = _operand(node.left), _operand(node.right)

    def checked(env, now):
        a, b = left(env), right(env)
        if not comparable(value_kind(a), op, value_kind(b)):
            raise RuleTypeError(f"cannot compare {type(a).__name__} with "
                                f"{type(b).__name__} under {op!r}")
        return apply(a, b)

    if isinstance(node.left, Ref) == isinstance(node.right, Ref):
        return checked
    # one category against one literal: a payload of a plain type that the
    # literal's kind always meets under ``op`` is compared at once
    ref, literal = (node.left, node.right) if isinstance(node.left, Ref) else (node.right, node.left)
    kind = value_kind(literal.value)
    if not comparable(kind, op, kind):
        return checked
    name, value, plain = ref.name, literal.value, _PLAIN_TYPES[kind]
    fast = apply if ref is node.left else OPERATORS[_MIRRORED[op]]

    def ref_literal(env, now):
        try:
            payload = env[name][0]
        except KeyError:
            raise MissingContext(f"no value for {name!r}") from None
        if type(payload) in plain:
            return fast(payload, value)
        return checked(env, now)
    return ref_literal


def _operand(operand):
    """A function from ``env`` to the operand's value."""
    if isinstance(operand, Ref):
        name = operand.name

        def payload(env):
            if name not in env:
                raise MissingContext(f"no value for {name!r}")
            return env[name][0]
        return payload
    value = operand.value
    return lambda env: value
