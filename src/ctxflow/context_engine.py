"""Context engine: owns the context cloud and feeds the rules engine.

Ingests pushed and polled source events, resolves multi-source conflicts,
runs derivation agents and cause-and-effect propagation to quiescence,
and emits threshold-gated change notifications.  One logical writer per
instance model; everything observable happens in message-arrival order.
"""

from __future__ import annotations

import ast
import operator
import sys
import weakref
from dataclasses import dataclass, field

from .errors import (
    DeletionRejected,
    DuplicateRegistration,
    KindMismatch,
    LevelViolation,
    StaleWrite,
    StepBudgetExceeded,
    UnknownMaster,
    UnknownModel,
    UnknownRegistration,
    UnknownSharedModel,
)
from .model import (
    Additions,
    ContextCategory,
    ContextValue,
    InstanceContextModel,
    MasterContextModel,
    clone_instance_model,
    instantiate_from_master,
    recent_values,
    relevant_subgraph,
    update_value,
)
from .rule_dsl import OPERATORS
from .sources import SourceDescriptor

DEFAULT_POLL_BUDGET = 16


# --- pure operations ---------------------------------------------------------


def resolve_conflict(candidates: list[ContextValue]) -> ContextValue:
    """Deterministic winner among conflicting values for one category.

    Order: reliability (certified sources win), then recency, then source
    id; trailing keys make the order total on arbitrary candidate lists.
    """
    if not candidates:
        raise ValueError("resolve_conflict needs at least one candidate")
    return min(
        candidates,
        key=lambda v: (-v.reliability, -v.ts, v.source_id, v.value_id, repr(v.payload)),
    )


THRESHOLD_KINDS = ("numeric-delta", "any-change")


@dataclass(frozen=True)
class NotificationThreshold:
    category_id: str
    kind: str
    theta: float | None = None
    min_reliability: float = 0.0

    def __post_init__(self):
        if self.kind not in THRESHOLD_KINDS:
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        if self.kind == "numeric-delta" and (self.theta is None or self.theta <= 0):
            raise ValueError("numeric-delta thresholds need theta > 0")


def check_threshold(old: ContextValue | None, new: ContextValue,
                    t: NotificationThreshold) -> bool:
    """Gate a change notification.

    True iff the change transgresses the threshold (first-ever values
    always do) and the new value is reliable enough.
    """
    if new.reliability < t.min_reliability:
        return False
    if old is None:
        return True
    if t.kind == "numeric-delta":
        for v in (old, new):
            if not isinstance(v.payload, (int, float)) or isinstance(v.payload, bool):
                raise KindMismatch(
                    f"numeric-delta threshold on non-numeric payload {v.payload!r}"
                )
        return abs(new.payload - old.payload) > t.theta
    return new.payload != old.payload


@dataclass(frozen=True)
class StalenessResult:
    fresh: bool
    effective_reliability: float


def apply_staleness(v: ContextValue, now: int, max_age: int,
                    decay: float) -> StalenessResult:
    """Depreciate information older than ``max_age`` ticks.

    Never mutates the value; a stale value keeps its payload but carries
    ``reliability * decay``.
    """
    if max_age < 1:
        raise ValueError("max_age must be at least one tick")
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must lie in (0, 1]")
    fresh = now - v.ts <= max_age
    return StalenessResult(fresh, v.reliability if fresh else v.reliability * decay)


# --- propagation nodes ---------------------------------------------------------

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
            constant = node.value
            return lambda x: constant
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
    window = recent_values(g, node.inputs[0], node.spec["window"])
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


def topological_order(nodes):
    """Order propagation nodes so producers precede consumers; reject cycles.

    Nodes are told apart by position, so two that share an id both run.
    """
    produced_by: dict[str, list[int]] = {}
    for position, node in enumerate(nodes):
        for cat in node.outputs:
            produced_by.setdefault(cat, []).append(position)
    ordered, done, visiting = [], set(), set()

    def visit(position):
        if position in done:
            return
        if position in visiting:
            raise ValueError("cause-effect/agent graph contains a cycle")
        visiting.add(position)
        for cat in nodes[position].inputs:
            for upstream in produced_by.get(cat, ()):
                visit(upstream)
        visiting.discard(position)
        done.add(position)
        ordered.append(nodes[position])

    for position in range(len(nodes)):
        visit(position)
    return ordered


# --- engine state --------------------------------------------------------------


@dataclass
class CatalogEntry:
    category: ContextCategory
    parent: str | None = None
    requires_value: bool = True


def catalog_chain(catalog: dict[str, CatalogEntry], category: str) -> list[str]:
    """Ancestor chain from the topmost catalogued parent down to ``category``.

    A category's level is its 1-based position in this chain.
    """
    chain = []
    cursor: str | None = category
    while cursor is not None:
        chain.append(cursor)
        cursor = catalog[cursor].parent
    chain.reverse()
    return chain


@dataclass
class Registration:
    instance_id: str
    model_id: str
    thresholds: dict[str, NotificationThreshold]
    active: bool = False
    init_rounds: int = 0
    init_outstanding: set = field(default_factory=set)
    failed: bool = False


@dataclass
class PendingRequest:
    correlation: str
    model_id: str
    instance_id: str
    requested: list[str]
    outstanding: set = field(default_factory=set)
    unavailable: list[str] = field(default_factory=list)


class ContextEngine:
    """Message-driven owner of the context cloud."""

    POOL = "context"

    def __init__(self, sim, catalog: dict[str, CatalogEntry],
                 masters: dict[str, MasterContextModel],
                 sources: dict[str, SourceDescriptor],
                 relations=(), agents=(),
                 poll_budget: int = DEFAULT_POLL_BUDGET,
                 max_config_steps: int | None = None,
                 staleness: tuple[int, float] | None = None):
        self.sim = sim
        self.catalog = catalog
        self.masters = masters
        self.sources = sources
        self.propagation = topological_order([*relations, *agents])
        self.poll_budget = poll_budget
        self.max_config_steps = max_config_steps
        self.staleness = staleness
        self.instances: dict[str, InstanceContextModel] = {}
        self.registrations: dict[str, Registration] = {}
        # (model_id, category) -> requests waiting on an administered fetch
        self.pending_fetches: dict[tuple[str, str], list[PendingRequest]] = {}
        # model graph (held weakly) -> requested categories -> (sorted
        # closure, levels payload, edges payload); see _snapshot_payload
        self.reads: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # per propagation node: (inputs, values, fault) of its last derivation
        self.derived: list[tuple | None] = [None] * len(self.propagation)

    # -- registration / initialization ---------------------------------------

    def register_instance(self, instance_id: str, master_id: str,
                          thresholds: dict[str, NotificationThreshold],
                          share_with: str | None = None,
                          copy_from: str | None = None) -> str:
        if instance_id in self.registrations:
            raise DuplicateRegistration(f"instance {instance_id!r} already registered")
        if share_with is not None:
            if share_with not in self.instances:
                raise UnknownSharedModel(f"no live instance model {share_with!r}")
            model = self.instances[share_with]
            model.bound_instances.append(instance_id)
            self.sim.trace(self.POOL, "model_shared", {
                "model": model.model_id,
                "instance": instance_id,
                "bound": sorted(model.bound_instances),
            })
        else:
            model_id = f"ctx.{instance_id}"
            if copy_from is not None:
                if copy_from not in self.instances:
                    raise UnknownModel(f"no live instance model {copy_from!r} to copy")
                model = clone_instance_model(self.instances[copy_from], [instance_id],
                                             model_id)
                origin = {"master": model.master_id, "copy_of": copy_from}
            else:
                if master_id not in self.masters:
                    raise UnknownMaster(f"no master model {master_id!r}")
                model = instantiate_from_master(self.masters[master_id], [instance_id],
                                                model_id, k=self.max_config_steps)
                origin = {"master": master_id}
            self.instances[model_id] = model
            self.sim.trace(self.POOL, "model_instantiated", {
                "model": model_id,
                **origin,
                "instance": instance_id,
                "categories": sorted(model.intersection.category_ids()),
            })
        self.registrations[instance_id] = Registration(
            instance_id=instance_id,
            model_id=model.model_id,
            thresholds=dict(thresholds),
        )
        return model.model_id

    def handle_register(self, payload: dict):
        instance = payload["instance"]
        thresholds = {
            t["category_id"]: NotificationThreshold(
                category_id=t["category_id"],
                kind=t["kind"],
                theta=t.get("theta"),
                min_reliability=t.get("min_reliability", 0.0),
            )
            for t in payload.get("thresholds", [])
        }
        try:
            self.register_instance(
                instance,
                payload.get("master", ""),
                thresholds,
                share_with=payload.get("share_with"),
                copy_from=payload.get("copy_from"),
            )
        except (DuplicateRegistration, UnknownMaster, UnknownSharedModel,
                UnknownModel) as err:
            self.sim.trace(self.POOL, "engine_error", {
                "error": type(err).__name__, "detail": str(err), "instance": instance,
            })
            self.sim.send(self.POOL, "rules", "ContextSnapshot", {
                "instance": instance, "phase": "init", "status": "error",
                "detail": type(err).__name__,
            })
            return
        self._continue_initialization(instance)

    def _unvalued_requirements(self, model: InstanceContextModel) -> list[str]:
        out = []
        for cat in model.intersection.category_ids():
            entry = self.catalog.get(cat)
            required = entry.requires_value if entry else True
            if required and cat not in model.intersection.values:
                out.append(cat)
        return out

    def _continue_initialization(self, instance_id: str):
        reg = self.registrations.get(instance_id)
        if reg is None or reg.active or reg.failed:
            return
        model = self.instances[reg.model_id]
        missing = self._unvalued_requirements(model)
        if not missing:
            self._finish_initialization(reg, model)
            return
        if reg.init_outstanding:
            return  # waiting on poll responses
        if reg.init_rounds >= self.poll_budget:
            reg.failed = True
            self.sim.trace(self.POOL, "init_timeout", {
                "instance": instance_id,
                "model": model.model_id,
                "rounds": reg.init_rounds,
                "unvalued": sorted(missing),
            })
            self.sim.send(self.POOL, "rules", "ContextSnapshot", {
                "instance": instance_id, "model": model.model_id,
                "phase": "init", "status": "timeout",
                "unvalued": sorted(missing),
            })
            return
        reg.init_rounds += 1
        by_source: dict[str, list[str]] = {}
        for cat in missing:
            source = self._best_source_for(cat)
            if source is not None:
                by_source.setdefault(source, []).append(cat)
        for source_id, cats in by_source.items():
            reg.init_outstanding.add(source_id)
            self.sim.send(self.POOL, "external", "PollRequest", {
                "source": source_id,
                "categories": sorted(cats),
                "purpose": "init",
                "instance": instance_id,
                "model": model.model_id,
            })
        if not by_source:
            # nothing pollable; burn a round per tick until budget or propagation fills it
            self.sim.timer(self.POOL, {"kind": "init_round", "instance": instance_id},
                           self.sim.now + 1)

    def _finish_initialization(self, reg: Registration, model: InstanceContextModel):
        reg.active = True
        self.sim.send(self.POOL, "rules", "ContextSnapshot", self._snapshot_payload(
            model, model.intersection.category_ids(),
            instance=reg.instance_id, phase="init"))

    def _best_source_for(self, category: str) -> str | None:
        best = None
        for source in self.sources.values():
            if category not in source.provided_categories:
                continue
            key = (-source.reliability, source.source_id)
            if best is None or key < best[0]:
                best = (key, source.source_id)
        return best[1] if best else None

    # -- ingestion -------------------------------------------------------------

    def handle_source_event(self, payload: dict):
        source_id = payload["source_id"]
        if source_id not in self.sources:
            self.sim.trace(self.POOL, "engine_error", {
                "error": "UnknownSource", "detail": source_id,
            })
            return
        category = payload["category_id"]
        if category not in self.catalog:
            self.sim.trace(self.POOL, "engine_error", {
                "error": "UnknownCategory", "detail": category,
            })
            return
        descriptor = self.sources[source_id]
        value = ContextValue(
            value_id=f"{category}@{source_id}",
            category_id=category,
            payload=payload["payload"],
            ts=payload["ts"],
            source_id=source_id,
            reliability=descriptor.reliability,
            cost=descriptor.cost_per_value,
        )
        for model in list(self.instances.values()):
            if (category in model.intersection.categories
                    or category in self._administer_extension(model, [category])):
                self._ingest(model, [value])

    def handle_poll_response(self, payload: dict):
        source_id = payload["source"]
        values = [
            ContextValue(
                value_id=f"{item['category_id']}@{source_id}",
                category_id=item["category_id"],
                payload=item["payload"],
                ts=item["ts"],
                source_id=source_id,
                reliability=item["reliability"],
                cost=item.get("cost", 0.0),
            )
            for item in payload.get("values", [])
        ]
        purpose = payload.get("purpose", "refresh")
        if purpose == "refresh":
            for model in list(self.instances.values()):
                relevant = [v for v in values if v.category_id in model.intersection.categories]
                if relevant:
                    self._ingest(model, relevant)
            return
        model = self.instances.get(payload.get("model", ""))
        if model is None:
            return  # model shut down while the poll was in flight
        self._ingest(model, values)
        if purpose == "init":
            reg = self.registrations.get(payload.get("instance", ""))
            if reg is not None:
                reg.init_outstanding.discard(source_id)
                self._continue_initialization(reg.instance_id)
        elif purpose == "administer":
            arrived = {v.category_id for v in values}
            absent = set(payload.get("absent", []))
            for category in sorted(arrived | absent):
                self._resolve_fetch(model.model_id, category,
                                    available=category in arrived)

    def handle_timer(self, payload: dict):
        kind = payload.get("kind")
        if kind == "init_round":
            self._continue_initialization(payload["instance"])
        elif kind == "poll":
            self._scheduled_poll(payload["source"])

    def _scheduled_poll(self, source_id: str):
        descriptor = self.sources.get(source_id)
        if descriptor is None or descriptor.mode != "poll":
            return
        wanted = []
        for category in descriptor.provided_categories:
            for model in self.instances.values():
                if category in model.intersection.categories:
                    wanted.append(category)
                    break
        if wanted:
            self.sim.send(self.POOL, "external", "PollRequest", {
                "source": source_id,
                "categories": sorted(wanted),
                "purpose": "refresh",
            })
        self.sim.timer(self.POOL, {"kind": "poll", "source": source_id},
                       self.sim.now + descriptor.poll_interval)

    def _ingest(self, model: InstanceContextModel, values: list[ContextValue]):
        """Apply values, propagate to quiescence and notify the rules engine.

        The rules engine hears of every category whose current value changed
        identity, as a pre-batch vs post-quiescence pair.  Propagation is
        keyed on identity so the derived state always mirrors whatever
        conflict resolution made current, regardless of arrival order.
        """
        changed: dict[str, tuple[ContextValue | None, ContextValue]] = {}
        for value in values:
            self._apply_value(model, value, changed)
        for position, node in enumerate(self.propagation):
            if changed.keys().isdisjoint(node.inputs):
                continue
            for value in self._derive(model, position, node):
                self._apply_value(model, value, changed)
        self._notify(model, changed)

    def _apply_value(self, model: InstanceContextModel, value: ContextValue,
                     changed: dict):
        g = model.intersection
        category = value.category_id
        if category not in g.categories:
            return
        entry = changed.get(category)
        old = g.values.get(category) if entry is None else entry[0]
        try:
            update_value(g, value)
        except StaleWrite:
            self.sim.trace(self.POOL, "value_rejected", {
                "model": model.model_id,
                "category": category,
                "stream": value.value_id,
                "ts": value.ts,
                "reason": "stale",
            })
            return
        except KindMismatch as err:
            self.sim.trace(self.POOL, "engine_error", {
                "error": "KindMismatch", "detail": str(err),
                "model": model.model_id,
            })
            return
        # Values are compared by identity: a stream's timestamps strictly
        # rise, so two distinct values held by one model are never equal.
        streams = g.streams[category]
        current = value
        if len(streams) > 1:
            current = resolve_conflict(list(streams.values()))
            if current is not value:
                g.values[category] = current
        self.sim.trace(self.POOL, "value_updated", {
            "model": model.model_id,
            "category": category,
            "value": current.to_payload(),
        })
        if current is old:
            changed.pop(category, None)  # batch restored the old value
        else:
            changed[category] = (old, current)

    def _derive(self, model: InstanceContextModel, position: int,
                node: DerivationAgent) -> list[ContextValue]:
        g = model.intersection
        inputs = []
        for cat in node.inputs:
            current = g.values.get(cat)
            if current is None:
                return []
            inputs.append(current)
        # a node other than an aggregate (which also reads the model's history)
        # reuses its last derivation while its inputs are the very same values,
        # not equal ones (1 == True == 1.0), so every model they reach shares
        # its values; a fault is still written once per model
        last = self.derived[position]
        if (node.kind == "aggregate" or last is None
                or any(map(operator.is_not, last[0], inputs))):
            last = self.derived[position] = (inputs, *self._compute(node, inputs, g))
        _, values, err = last
        if err is not None:
            self.sim.trace(self.POOL, "engine_error", {
                "error": type(err).__name__, "detail": str(err),
                "model": model.model_id,
                "relation": node.node_id,
            })
        return values

    @staticmethod
    def _compute(node: DerivationAgent, inputs: list[ContextValue], g):
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
            # cycle; ``self.derived`` keeps the fault, so drop it
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

    # -- notifications ----------------------------------------------------------

    def _notify(self, model: InstanceContextModel, changed: dict):
        if not changed:
            return
        for instance_id in model.bound_instances:
            reg = self.registrations[instance_id]
            if not reg.active:
                continue
            changes = []
            for category, (old, new) in changed.items():
                threshold = reg.thresholds.get(category)
                if threshold is None:
                    continue
                if old is not None and new.payload == old.payload:
                    continue  # batch reverted the payload; no net change
                try:
                    transgressed = check_threshold(old, new, threshold)
                except KindMismatch:
                    transgressed = False
                if transgressed:
                    changes.append({
                        "category": category,
                        "value": new.to_payload(),
                    })
            if changes:
                self.sim.send(self.POOL, "rules", "ContextNotification", {
                    "model": model.model_id,
                    "instance": reg.instance_id,
                    "step": model.intersection.step,
                    "changes": changes,
                })

    # -- read path / administration ----------------------------------------------

    def handle_context_request(self, payload: dict):
        model_id = payload["model"]
        correlation = payload["correlation"]
        model = self.instances.get(model_id)
        if model is None:
            self.sim.send(self.POOL, "rules", "ContextSnapshot", {
                "correlation": correlation, "status": "error",
                "detail": "UnknownModel", "model": model_id,
            })
            return
        requested = list(payload["categories"])
        pending = PendingRequest(
            correlation=correlation,
            model_id=model_id,
            instance_id=payload.get("instance", ""),
            requested=requested,
        )
        extendable = []
        for category in requested:
            if category in model.intersection.categories:
                continue
            if category not in self.catalog:
                pending.unavailable.append(category)
                continue
            if self._best_source_for(category) is None:
                self.sim.trace(self.POOL, "admin_no_source", {
                    "model": model_id, "category": category,
                })
                pending.unavailable.append(category)
                continue
            extendable.append(category)
        if extendable:
            self._administer_extension(model, extendable)
        g = model.intersection
        for category in requested:
            if category not in g.categories:
                if category in extendable:
                    pending.unavailable.append(category)
                continue
            if category in g.values:
                continue
            # a category this request added, or one an earlier request's
            # fetch is still filling: wait for the fetch
            if category in extendable or (model_id, category) in self.pending_fetches:
                pending.outstanding.add(category)
                self._request_fetch(model, category, pending)
        self._try_reply(pending)

    def _administer_extension(self, model: InstanceContextModel,
                              categories: list[str]) -> list[str]:
        """Extend a model with catalogued categories; one step per call."""
        additions = Additions()
        queued: set[str] = set()
        for category in categories:
            if category in model.intersection.categories or category not in self.catalog:
                continue
            chain = catalog_chain(self.catalog, category)
            for level, ancestor in enumerate(chain, start=1):
                if ancestor in model.intersection.categories or ancestor in queued:
                    continue
                queued.add(ancestor)
                anc_entry = self.catalog[ancestor]
                additions.categories.append((anc_entry.category, level))
                if anc_entry.parent is not None:
                    additions.edges.append((anc_entry.parent, ancestor))
        if not additions.categories:
            return []
        try:
            added = model.apply_extension(additions)
        except (StepBudgetExceeded, LevelViolation, DeletionRejected) as err:
            self.sim.trace(self.POOL, "extension_rejected", {
                "model": model.model_id,
                "categories": [c.category_id for c, _ in additions.categories],
                "error": type(err).__name__,
                "detail": str(err),
            })
            return []
        self.sim.trace(self.POOL, "model_extended", {
            "model": model.model_id,
            "step": model.intersection.step,
            "added": [{"category": cat, "level": level} for cat, level in added],
        })
        return [cat for cat, _ in added]

    def _request_fetch(self, model: InstanceContextModel, category: str,
                       pending: PendingRequest):
        key = (model.model_id, category)
        if key in self.pending_fetches:
            # a fetch is already in flight; requests share it
            self.pending_fetches[key].append(pending)
            return
        self.pending_fetches[key] = [pending]
        source = self._best_source_for(category)
        self.sim.send(self.POOL, "external", "PollRequest", {
            "source": source,
            "categories": [category],
            "purpose": "administer",
            "model": model.model_id,
        })

    def _resolve_fetch(self, model_id: str, category: str, available: bool):
        for pending in self.pending_fetches.pop((model_id, category), []):
            if category not in pending.outstanding:
                continue  # the request listed the category twice
            pending.outstanding.discard(category)
            if not available:
                pending.unavailable.append(category)
            self._try_reply(pending)

    def _try_reply(self, pending: PendingRequest):
        if pending.outstanding:
            return
        model = self.instances[pending.model_id]
        available = [c for c in pending.requested
                     if c in model.intersection.categories
                     and c not in pending.unavailable]
        self.sim.send(self.POOL, "rules", "ContextSnapshot", self._snapshot_payload(
            model, available, correlation=pending.correlation,
            instance=pending.instance_id, phase="reply",
            missing=sorted(set(pending.unavailable))))

    def _snapshot_payload(self, model: InstanceContextModel, categories: list[str],
                          **fields) -> dict:
        """An ``ok`` snapshot, with ``fields``, of the current values of the
        requested categories and their ancestors.

        The sorted closure and its ``levels`` and ``edges`` payload depend
        only on the graph, so ``self.reads`` keeps them per model graph and
        request, and a memo is used only while ``model.intersection`` is its
        graph: an extension replaces the graph, and a replaced or closed
        model's graph takes its memo with it.  Snapshots of one graph share
        those lists.  A miss replies with the values of the subgraph payload
        it builds; a hit walks the closure for them.
        """
        g = model.intersection
        shapes = self.reads.get(g)
        if shapes is None:
            shapes = self.reads[g] = {}
        key = tuple(categories)
        shape = shapes.get(key)
        if shape is None:
            sub = relevant_subgraph(g, categories)
            graph = sub.to_payload()
            levels, edges, values = graph["levels"], graph["edges"], graph["values"]
            shapes[key] = (sorted(sub.categories), levels, edges)
        else:
            closure, levels, edges = shape
            values = {c: g.values[c].to_payload() for c in closure if c in g.values}
        graph = {"levels": levels, "edges": edges, "values": values, "step": g.step}
        now = self.sim.now
        if self.staleness is None:
            freshness = dict.fromkeys(values, True)
        else:
            max_age, decay = self.staleness
            freshness = {c: apply_staleness(g.values[c], now, max_age, decay).fresh
                         for c in values}
        return {"model": model.model_id, "graph": graph, "freshness": freshness,
                "now": now, "status": "ok", **fields}

    # -- shutdown ------------------------------------------------------------------

    def shutdown_model(self, instance_id: str):
        reg = self.registrations.pop(instance_id, None)
        if reg is None:
            raise UnknownRegistration(f"no registration for instance {instance_id!r}")
        model = self.instances.get(reg.model_id)
        if model is None:
            return
        if instance_id in model.bound_instances:
            model.bound_instances.remove(instance_id)
        if not model.bound_instances:
            del self.instances[model.model_id]
            # requests waiting on the model's fetches are never answered
            for key in [k for k in self.pending_fetches if k[0] == model.model_id]:
                del self.pending_fetches[key]
            self.sim.trace(self.POOL, "model_closed", {
                "model": model.model_id,
                "end_step": model.intersection.step,
                "end": model.intersection.to_payload(),
            })

    def handle_shutdown_model(self, payload: dict):
        try:
            self.shutdown_model(payload["instance"])
        except UnknownRegistration as err:
            self.sim.trace(self.POOL, "engine_error", {
                "error": "UnknownRegistration", "detail": str(err),
            })

    # -- dispatch --------------------------------------------------------------------

    def handle_message(self, kind: str, payload: dict):
        self.HANDLERS[kind](self, payload)

    # exactly the kinds CHANNELS delivers to the context pool
    HANDLERS = {
        "Register": handle_register,
        "SourceEvent": handle_source_event,
        "PollResponse": handle_poll_response,
        "ContextRequest": handle_context_request,
        "ShutdownModel": handle_shutdown_model,
    }
