"""Propagation nodes (cause-effect relations and derivation agents): their
kinds, the kind rules the parser checks, their order and the derivation memo."""

from __future__ import annotations

import ast
import operator
import sys
from dataclasses import dataclass, field

from .model import CONTAINERS, MAX_NESTING, ContextValue, nests_deeper
from .rule_dsl import OPERATORS, comparable, value_kind

_EXPR_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.USub: operator.neg,
    ast.UAdd: operator.pos,
}


def compile_arithmetic(expr: str):
    """Compile a small arithmetic expression over ``x`` (no eval).

    Bad shapes are rejected by walking the syntax tree; the expression is
    never evaluated here, so ``100 / x`` compiles and only a call at
    ``x == 0`` raises.
    """

    def build(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPS:
            op, left, right = _EXPR_OPS[type(node.op)], build(node.left), build(node.right)
            return lambda x: op(left(x), right(x))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_OPS:
            op, operand = _EXPR_OPS[type(node.op)], build(node.operand)
            return lambda x: op(operand(x))
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return lambda x: node.value
        if isinstance(node, ast.Name) and node.id == "x":
            return lambda x: x
        raise ValueError(f"disallowed construct in arithmetic expression: {ast.dump(node)}")

    return build(ast.parse(expr, mode="eval").body)


REDUCERS = {
    "min": min,
    "max": max,
    "mean": lambda xs: sum(xs) / len(xs),
    "count": len,
    "last": lambda xs: xs[-1],
}

@dataclass(frozen=True)
class DerivationAgent:
    """One propagation node: a cause-effect relation or a derivation agent.

    ``kind`` picks the node's function in ``DERIVE``; ``spec`` holds every
    field that function reads.  The agent kinds read the fields that the
    scenario shape table (``scenario.SCENARIO``) lists with their defaults.
    """

    node_id: str
    kind: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    spec: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in DERIVE:
            raise ValueError(f"unknown node kind {self.kind!r}")
        if not self.inputs or not self.outputs:
            raise ValueError("a node needs at least one input and one output")
        if len(self.outputs) > 1 and self.kind != "split":
            raise ValueError("only a split writes more than one output")


def CauseEffectRelation(relation_id: str, cause: str, effect: str,
                        function: dict) -> DerivationAgent:
    """f: X -> Y between two categories, as a one-input, one-output node.

    ``function`` is ``{"type": "linear", "a", "b"}``, ``{"type": "lookup",
    "table", "default"?}`` or ``{"type": "expr", "expr"}``.  A lookup runs
    as a translate over ``table``; an expr is compiled here, once.
    """
    if cause == effect:
        raise ValueError("cause and effect categories must differ")
    spec = dict(function)
    if function["type"] == "lookup":
        spec.update(map=function["table"], default=function.get("default"))
    elif function["type"] == "expr":
        spec["apply"] = compile_arithmetic(function["expr"])
    return DerivationAgent(relation_id, function["type"], (cause,), (effect,), spec)


# Each node kind maps the current values of its inputs (and, for an
# aggregate, the input's history in graph ``g``) to (category, payload) pairs.


def _linear(node, inputs, g):
    return [(node.outputs[0], node.spec["a"] * inputs[0].payload + node.spec["b"])]


def _expr(node, inputs, g):
    return [(node.outputs[0], node.spec["apply"](inputs[0].payload))]


def _translate(node, inputs, g):
    """Map a payload, a number by its repr; a null result derives nothing."""
    payload = inputs[0].payload
    out = node.spec["map"].get(payload if isinstance(payload, str) else repr(payload),
                               node.spec["default"])
    return [] if out is None else [(node.outputs[0], out)]


def _filter(node, inputs, g):
    payload = inputs[0].payload
    if not OPERATORS[node.spec["op"]](payload, node.spec["value"]):
        return []
    return [(node.outputs[0], payload)]


def _aggregate(node, inputs, g):
    window = [*g.history.get(node.inputs[0], ()), inputs[0]][-node.spec["window"]:]
    return [(node.outputs[0], REDUCERS[node.spec["reducer"]]([v.payload for v in window]))]


def _compose(node, inputs, g):
    return [(node.outputs[0], {v.category_id: v.payload for v in inputs})]


def _split(node, inputs, g):
    """Fan a record payload out to several categories."""
    record = inputs[0].payload
    if not isinstance(record, dict):
        return []
    return [(category, record[fan_field])
            for fan_field, category in sorted(node.spec["fan_out"].items())
            if fan_field in record]


DERIVE = {
    "linear": _linear, "lookup": _translate, "expr": _expr,
    "filter": _filter, "translate": _translate, "aggregate": _aggregate,
    "compose": _compose, "split": _split,
}

_NEWEST = operator.attrgetter("ts", "value_id")
_RELIABILITY = operator.attrgetter("reliability")


def derive(node: DerivationAgent, inputs: list[ContextValue], g):
    """The node's derived values and no fault, or no values and the fault."""
    try:
        derived = DERIVE[node.kind](node, inputs, g)
        # the trace writes each payload as text, and the interpreter
        # refuses an int of more decimal digits than its limit (0: none);
        # 10 ** limit has more than 3 * limit bits
        limit = sys.get_int_max_str_digits()
        for _, payload in derived:
            if (limit and isinstance(payload, int) and payload.bit_length() > 3 * limit
                    and abs(payload) >= 10 ** limit):
                raise OverflowError(f"derived integer exceeds {limit} decimal digits")
    except ArithmeticError as err:
        # the traceback holds this frame, its inputs and the graph in a
        # cycle; the memo keeps the fault, so drop it
        return [], err.with_traceback(None)
    # the newest input stamps the derived values, one derived stream per
    # cause stream: when conflict resolution flips the current cause
    # between sources, the derived side mirrors it instead of fighting
    # the per-stream timestamp monotonicity guard
    cause = max(inputs, key=_NEWEST)
    reliability = min(map(_RELIABILITY, inputs))
    causing_ts = cause.ts if cause.causing_ts is None else cause.causing_ts
    return [
        ContextValue(f"{category}@{node.node_id}:{cause.value_id}", category, payload,
                     cause.ts, node.node_id, reliability, causing_ts=causing_ts)
        for category, payload in derived
    ], None


class Propagation:
    """A context engine's nodes, in topological order, and their derivation memo."""

    def __init__(self, nodes):
        self.nodes = tuple(nodes)
        # the values before the current one that the deepest aggregate reads
        self.history = max((node.spec["window"] - 1 for node in self.nodes
                            if node.kind == "aggregate"), default=0)
        # per node: (inputs, values, fault) of its last derivation
        self.memo: list[tuple | None] = [None] * len(self.nodes)

    def run(self, g, changed: dict):
        """Yield (node, values, fault) for each node in turn that ``changed`` reaches and
        whose inputs all hold a value in ``g``; apply its values to both before the next."""
        for position, node in enumerate(self.nodes):
            if changed.keys().isdisjoint(node.inputs):
                continue
            inputs = []
            for cat in node.inputs:
                if (current := g.values.get(cat)) is None:
                    break
                inputs.append(current)
            else:  # every input holds a value
                # a node other than an aggregate (which reads history too) reuses
                # its last derivation while its inputs are the very same values, not
                # equal ones (1 == True == 1.0): every model they reach shares them
                last = self.memo[position]
                if (node.kind == "aggregate" or last is None
                        or any(map(operator.is_not, last[0], inputs))):
                    last = self.memo[position] = (inputs, *derive(node, inputs, g))
                yield node, last[1], last[2]


def topological_order(nodes):
    """Order propagation nodes so producers precede consumers; reject cycles.

    Nodes are told apart by position, so two that share an id both run.  A
    depth-first walk in declaration order, on a stack of its own: a long
    chain is ordered whichever end of it is declared first.
    """
    produced_by: dict[str, list[int]] = {}
    for position, node in enumerate(nodes):
        for cat in node.outputs:
            produced_by.setdefault(cat, []).append(position)

    def upstream(position):
        return (up for cat in nodes[position].inputs for up in produced_by.get(cat, ()))

    ordered, done = [], {}  # position -> whether its producers are all ordered
    for root in range(len(nodes)):
        if root in done:
            continue
        done[root] = False
        stack = [(root, upstream(root))]
        while stack:
            position, producers = stack[-1]
            for producer in producers:
                if producer not in done:
                    done[producer] = False
                    stack.append((producer, upstream(producer)))
                    break
                if done[producer] is False:
                    raise ValueError("cause-effect/agent graph contains a cycle")
            else:
                stack.pop()
                done[position] = True
                ordered.append(nodes[position])
    return ordered


# whether a node of each kind can read a first input of a catalog kind;
# a kind missing here reads any kind
_READS = {
    "linear": lambda kind, spec: kind == "numeric",
    "expr": lambda kind, spec: kind == "numeric",
    "filter": lambda kind, spec: comparable(kind, spec["op"], value_kind(spec["value"])),
    "aggregate": lambda kind, spec: not (spec["reducer"] == "mean" and kind != "numeric"
                                         or spec["reducer"] in ("min", "max") and kind == "record"),
}

# the catalog kind a node of each kind writes, given its first input's kind
# (None: not catalogued); a lookup or translate writes its table's values,
# checked one by one, and a split the fields of a record, unknown at parse
_WRITES = {
    "linear": lambda kind, spec: "numeric",
    "expr": lambda kind, spec: "numeric",
    "filter": lambda kind, spec: kind,
    "aggregate": lambda kind, spec: "numeric" if spec["reducer"] in ("mean", "count") else kind,
    "compose": lambda kind, spec: "record",
}


def mistyped(node: DerivationAgent, catalog) -> list[str]:
    """Why ``node`` cannot run on the categories of ``catalog`` (category id ->
    entry holding its ``category``) it names; one not catalogued is not checked."""
    problems = []
    source, target = catalog.get(node.inputs[0]), catalog.get(node.outputs[0])
    kind = source and source.category.value_kind
    reads = _READS.get(node.kind)
    if reads and kind and not reads(kind, node.spec):
        problems.append(f"a {node.kind} node cannot read the {kind} input {node.inputs[0]!r}")
    if target is None:
        return problems
    output, into = target.category, f"the {target.category.value_kind} output {node.outputs[0]!r}"
    if node.kind in ("lookup", "translate"):
        for key, payload in [*node.spec["map"].items(), (None, node.spec["default"])]:
            what = "its default" if key is None else f"its value for {key!r}"
            if type(payload) in CONTAINERS and nests_deeper(payload, MAX_NESTING):
                problems.append(f"{what} is nested too deeply")
            elif payload is not None and not output.accepts(payload):
                problems.append(f"a {node.kind} node cannot write {what} into {into}")
    written = node.kind in _WRITES and _WRITES[node.kind](kind, node.spec)
    if written and not _holds(output.value_kind, written):
        problems.append(f"a {node.kind} node writes a {written} value into {into}")
    return problems


def _holds(kind: str, written: str) -> bool:
    """Whether a category of ``kind`` holds the payloads of one of ``written``;
    text and enum categories both hold strings."""
    return kind == written or {kind, written} == {"text", "enum"}
