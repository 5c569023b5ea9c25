"""Scenario files: loading, validation, and assembly into a simulation.

A scenario is a single JSON document bundling the category catalog, the
master context model, process models, rule texts, thresholds,
cause-effect relations, derivation agents, scripted sources and the
instances to start.  ``validate`` reports every violation; ``build``
wires the four pools together and returns a runnable simulation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from operator import itemgetter

from . import process_engine
from .choreography import CHANNELS, DEFAULT_MAX_STEPS, LatencyConfig, Simulation
from .context_engine import (
    DEFAULT_POLL_BUDGET,
    REDUCERS,
    THRESHOLD_KINDS,
    CatalogEntry,
    CauseEffectRelation,
    ContextEngine,
    DerivationAgent,
    NotificationThreshold,
    catalog_chain,
    topological_order,
)
from .errors import RuleSyntaxError, RuleTypeError, ScenarioParseError
from .model import (
    VALUE_KINDS,
    ContextCategory,
    ContextIntersection,
    MasterContextModel,
    Violation,
)
from .process_engine import (
    EndNode,
    GateNode,
    ProcessEngine,
    ProcessModel,
    StartNode,
    SubprocessNode,
    TaskNode,
)
from .rule_dsl import (
    OPERATORS,
    BreakRollback,
    Rule,
    SelectVariant,
    StartCompensation,
    comparable,
    mistyped,
    parse_rule,
    value_kind,
)
from .rules_engine import RulesEngine
from .sources import (
    SOURCE_MODES,
    ExternalSystems,
    MirrorSpec,
    ScriptedSource,
    SourceDescriptor,
    TimelineEntry,
)


@dataclass
class Scenario:
    seed: int = 0
    max_steps: int = DEFAULT_MAX_STEPS
    poll_budget: int = DEFAULT_POLL_BUDGET
    max_config_steps: int | None = None
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    deny_principals: list[str] = field(default_factory=list)
    catalog: dict[str, CatalogEntry] = field(default_factory=dict)
    masters: dict[str, MasterContextModel] = field(default_factory=dict)
    # the relations, then the agents, in declaration order
    propagation: list[DerivationAgent] = field(default_factory=list)
    sources: dict[str, ScriptedSource] = field(default_factory=dict)
    process_models: dict[str, ProcessModel] = field(default_factory=dict)
    rules: dict[str, Rule] = field(default_factory=dict)
    # process model -> category -> its threshold, held by the context pool
    thresholds: dict[str, dict[str, NotificationThreshold]] = field(default_factory=dict)
    # {"id", "model", "principal", "start_tick", "share_with"} per instance
    instances: list[dict] = field(default_factory=list)
    # model id -> the gates (by id) and task names an instance of it runs,
    # those of the sub-processes it runs inline included
    runs: dict[str, tuple[dict[str, GateNode], set[str]]] = field(
        default_factory=dict, init=False)


def load_scenario_data(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as err:
        raise ScenarioParseError(f"cannot read scenario {path}: {err}") from err


# How deep, in arrays and objects, a document's process models may reach.
# They are the one section whose shape nests without end: a gate inside a
# gate's variant is three levels deeper, so this admits about 100 nested
# gates, which the walk reads in about 430 frames.  That is far enough
# below the interpreter's recursion limit that the verdict does not depend
# on the caller's stack.  Rule conditions have their own bound
# (``rule_dsl.MAX_CONDITION_NESTING``); other values are never walked
# recursively.
MAX_NESTING = 320
_CONTAINERS = (dict, list)


def _nests_deeper(data, bound: int) -> bool:
    """Whether ``data`` nests arrays and objects more than ``bound`` deep."""
    level, todo = 0, [data] if type(data) in _CONTAINERS else []
    while todo:
        level += 1
        if level > bound:
            return True
        todo = [value for container in todo
                for value in (container.values() if type(container) is dict else container)
                if type(value) in _CONTAINERS]
    return False


def _shown(value) -> str:
    """``repr(value)`` for a violation's detail, unless ``value`` nests deeper
    than ``MAX_NESTING``: printing it could then meet the recursion limit."""
    return "a value nested too deeply" if _nests_deeper(value, MAX_NESTING) else repr(value)


def parse_scenario(data) -> tuple[Scenario, list[Violation]]:
    """Build a typed scenario from any JSON value, collecting every violation.

    A document whose process models reach deeper than ``MAX_NESTING``, or
    with a rule condition nested deeper than ``MAX_CONDITION_NESTING``, is
    one violation on ``scenario``."""
    too_deep = [Violation("scenario-invalid", "scenario", "nested too deeply")]
    # process_models sits one level below the document
    if type(data) is dict and _nests_deeper(data.get("process_models"), MAX_NESTING - 1):
        return Scenario(), too_deep
    violations: list[Violation] = []

    def bad(code, subject, detail):
        violations.append(Violation(code, subject, detail))

    try:
        doc = SCENARIO.walk(data, "", "", "scenario-invalid", bad)
        if doc is _BAD:
            return Scenario(), violations
        limits, channels = doc["limits"], doc["latency"]["channels"]
        for key in [key for key in channels if tuple(key.split("->")) not in CHANNELS]:
            bad("latency-invalid", f"latency.channels[{key}]", "names none of the six channels")
            del channels[key]
        scenario = Scenario(
            seed=doc["seed"], max_steps=limits["max_steps"], poll_budget=limits["poll_budget"],
            max_config_steps=limits["max_config_steps"], latency=LatencyConfig(**doc["latency"]),
            deny_principals=doc["auth"]["deny"], instances=doc["instances"],
        )
        for parse in (_parse_catalog, _parse_masters, _parse_sources, _parse_propagation,
                      _parse_rules, _parse_process_models, _parse_thresholds, _check_instances,
                      _check_mirrors):
            parse(doc, scenario, bad)
        _bind_rules(scenario, bad)
    except RecursionError:  # a rule nested too deeply; or, as a safety net, a deep caller
        return Scenario(), too_deep
    return scenario, violations


# --- the shape table -------------------------------------------------------------
#
# ``SCENARIO`` maps each record field to (shape, default[, violation code]);
# a row without a code reports under the code of the row holding it, and a
# field whose default is null also accepts null.  One walk reads the document
# against it and hands the section parsers typed values with every default
# filled in.  An unfit value is reported and replaced by its default, or
# dropped from its list or object; a record then still lacking a field is
# dropped.  A violation names the field (``limits.poll_budget``), object entry
# (``latency.channels[a->b]``) or list record (``catalog[3]``) at fault; a
# list or object of the wrong type, or a bad plain element of a list, is
# reported on the record holding it.

_BAD = object()
REQUIRED = object()  # the field has no default


def _name(path) -> str:
    """Print a path: a string, or (parent path, "." or "[", key) built lazily."""
    if type(path) is str:
        return path
    parent, sep, key = path
    head = _name(parent)
    return f"{head}[{key}]" if sep == "[" else f"{head}.{key}" if head else key


class _Leaf:
    """A plain value of one of ``types`` that ``extra``, if given, accepts."""

    def __init__(self, types, what, extra=None):
        self.types, self.what, self.extra = frozenset(types), what, extra

    def walk(self, value, path, owner, code, bad):
        if type(value) in self.types and (self.extra is None or self.extra(value)):
            return value
        bad(code, _name(path), f"{_shown(value)} is not {self.what}")
        return _BAD


class _Many:
    """A list, or with ``keyed`` an object with free keys, of one shape."""

    def __init__(self, item, keyed=False):
        self.item, self.keyed = item, keyed
        self.named = keyed or isinstance(item, _Record)

    def walk(self, value, path, owner, code, bad):
        item, keyed, named = self.item, self.keyed, self.named
        if not value and type(value) is (dict if keyed else list):
            return {} if keyed else []
        if type(value) is not (dict if keyed else list):
            where = f"{_name(path)}: " if path != owner else ""
            bad(code, _name(owner),
                f"{where}{_shown(value)} is not {'an object' if keyed else 'a list'}")
            return _BAD
        values = value.values() if keyed else value
        if type(item) is _Leaf and set(map(type, values)) <= item.types and (
                item.extra is None or all(map(item.extra, values))) and (
                not keyed or all(type(key) is str for key in value)):
            return dict(value) if keyed else list(value)  # plain values that all fit
        walk, out = item.walk, {} if keyed else []
        if keyed:
            for key, element in value.items():
                if type(key) is not str:  # only a document built in code has such keys
                    bad(code, _name((path, "[", key)), f"key {key!r} is not a string")
                    continue
                typed = walk(element, (path, "[", key), owner, code, bad)
                if typed is not _BAD:
                    out[key] = typed
            return out
        append = out.append
        for key, element in enumerate(value):
            typed = walk(element, (path, "[", key) if named else owner, owner, code, bad)
            if typed is not _BAD:
                append(typed)
        return out


class _Record:
    """An object with named fields; field ``tag`` picks more from ``variants``.

    With ``text``, a bare string stands for an object holding it in that field.
    """

    def __init__(self, fields, tag=None, variants=(), text=None):
        self.tag, self.text = tag, text
        self.fields = self._rows(fields)
        self.variants = {key: self._rows(rows) for key, rows in dict(variants).items()}

    @staticmethod
    def _rows(fields):
        rows = []
        for name, (shape, default, *code) in fields.items():
            types, extra = getattr(shape, "types", frozenset()), getattr(shape, "extra", None)
            if default is None and types:  # null is accepted where the default is null
                types |= {type(None)}
                extra = extra and (lambda value, fits=extra: value is None or fits(value))
            rows.append((name, shape, types, extra, default, code[0] if code else None))
        return rows

    def walk(self, value, path, owner, code, bad):
        if type(value) is not dict:
            if self.text is None or type(value) is not str:
                bad(code, _name(path) or "scenario", f"{_shown(value)} is not an object")
                return _BAD
            value = {self.text: value}
        out, get, ok = {}, value.get, True
        for name, shape, types, extra, default, row_code in self.fields:
            item = get(name, default)
            # the check of _Leaf.walk, inline: most fields are plain values that fit
            if type(item) in types and (extra is None or extra(item)):
                out[name] = item
            elif not self._read(name, shape, default, row_code or code, item, out, path, bad):
                ok = False
        if ok and self.tag is not None:
            variant = self.variants.get(out[self.tag], ())
            for name, shape, types, extra, default, row_code in variant:
                item = get(name, default)
                if type(item) in types and (extra is None or extra(item)):
                    out[name] = item
                elif not self._read(name, shape, default, row_code or code, item, out, path, bad):
                    ok = False
        return out if ok else _BAD

    @staticmethod
    def _read(name, shape, default, code, item, out, path, bad) -> bool:
        """Store field ``name`` holding ``item``, which is no plain value that fits."""
        where = (path, ".", name)
        if item is None is default:
            typed = None
        elif item is REQUIRED:
            bad(code, _name(where), "missing")
            typed = _BAD
        else:
            typed = shape.walk(item, where, path or where, code, bad)
        if typed is _BAD and item is not default and default is not REQUIRED:
            # the unfit value is reported already: fall back to the default quietly
            typed = default if type(default) not in (dict, list) else shape.walk(
                default, where, path or where, code, lambda *_: None)
        if typed is _BAD:
            return False
        out[name] = typed
        return True


def _one_of(values):
    """A string naming a member of ``values``."""
    return _Leaf((str,), "one of " + " | ".join(values), values.__contains__)


def _entry(*shapes):
    """A list of fixed length holding plain values, one leaf per position."""
    checks = [(shape.types, shape.extra) for shape in shapes]

    def fits(value):
        if len(value) != len(checks):
            return False
        for (types, extra), item in zip(checks, value):
            if type(item) not in types or extra is not None and not extra(item):
                return False
        return True
    return _Leaf((list,), f"[{', '.join(shape.what for shape in shapes)}]", fits)


ANY = _Leaf((str, int, float, bool, type(None), list, dict), "a JSON value")
TEXT = _Leaf((str,), "a string")
INT = _Leaf((int,), "an integer")
COUNT = _Leaf((int,), "a non-negative integer", (0).__le__)
POSITIVE = _Leaf((int,), "an integer of at least 1", (1).__le__)
NUMBER = _Leaf((int, float), "a number")
NAMES = _Many(TEXT)

_NODES = {
    "start": lambda raw: StartNode(),
    "end": lambda raw: EndNode(),
    "task": lambda raw: TaskNode(raw["name"], raw["duration"]),
    "subprocess": lambda raw: SubprocessNode(raw["model"]),
    "gate": lambda raw: GateNode(
        raw["id"], {variant: _build_nodes(branch) for variant, branch in raw["variants"].items()},
        raw["default"], raw["rules"]),
}
_NODE = _Record({"type": (_one_of(_NODES), REQUIRED, "model-bad-node")}, "type", {
    "task": {"name": (TEXT, "task"), "duration": (COUNT, 1, "model-bad-duration")},
    "subprocess": {"model": (TEXT, "")},
    "gate": {"id": (TEXT, ""), "default": (TEXT, ""), "rules": (NAMES, [])},
})
# a gate's branches are node lists: the node shape refers to itself
_NODE.variants["gate"] += _Record._rows({"variants": (_Many(_Many(_NODE), keyed=True), {})})

_FUNCTIONS = {
    "linear": {"a": (NUMBER, REQUIRED), "b": (NUMBER, REQUIRED)},
    "lookup": {"table": (_Many(ANY, keyed=True), REQUIRED), "default": (ANY, None)},
    "expr": {"expr": (TEXT, REQUIRED)},
}
_SPECS = {
    "filter": {"op": (_one_of(OPERATORS), REQUIRED), "value": (ANY, REQUIRED)},
    "translate": {"map": (_Many(ANY, keyed=True), {}), "default": (ANY, None)},
    "aggregate": {"window": (POSITIVE, 4), "reducer": (_one_of(REDUCERS), "last")},
    "compose": {},
    "split": {"fan_out": (_Many(TEXT, keyed=True), {})},
}

SCENARIO = _Record({
    "seed": (INT, 0, "seed-invalid"),
    "limits": (_Record({
        "max_steps": (COUNT, DEFAULT_MAX_STEPS), "poll_budget": (COUNT, DEFAULT_POLL_BUDGET),
        "max_config_steps": (COUNT, None),
    }), {}, "limits-invalid"),
    "latency": (_Record({
        "default": (COUNT, 1), "jitter": (COUNT, 0), "channels": (_Many(COUNT, keyed=True), {}),
    }), {}, "latency-invalid"),
    "auth": (_Record({"deny": (NAMES, [])}), {}, "auth-invalid"),
    "catalog": (_Many(_Record({
        "id": (_Leaf((str,), "a non-empty string", len), REQUIRED, "catalog-missing-id"),
        "name": (TEXT, None), "kind": (_one_of(VALUE_KINDS), "text", "catalog-bad-kind"),
        "unit": (TEXT, None), "parent": (TEXT, None),
        "requires_value": (_Leaf((bool,), "true or false"), True),
    })), [], "catalog-invalid"),
    "masters": (_Many(_Record({
        "model_id": (TEXT, ""), "categories": (NAMES, []), "predefined": (NAMES, None),
    })), [], "master-invalid"),
    "cause_effects": (_Many(_Record({
        "id": (TEXT, ""), "cause": (TEXT, ""), "effect": (TEXT, ""),
        "function": (_Record({"type": (_one_of(_FUNCTIONS), REQUIRED)}, "type", _FUNCTIONS),
                     REQUIRED, "relation-bad-function"),
    })), [], "relation-invalid"),
    "agents": (_Many(_Record({
        "id": (TEXT, ""), "kind": (_one_of(_SPECS), REQUIRED), "inputs": (NAMES, []),
        "output": (TEXT, None), "outputs": (NAMES, None),
    }, "kind", {kind: {"spec": (_Record(spec), {})} for kind, spec in _SPECS.items()})),
        [], "agent-invalid"),
    "sources": (_Many(_Record({
        "id": (TEXT, ""), "mode": (_one_of(SOURCE_MODES), "push"), "reliability": (NUMBER, 1.0),
        "cost": (NUMBER, 0.0), "interval": (INT, 1), "provides": (NAMES, []),
        "poll": (_Many(_Many(_entry(COUNT, ANY)), keyed=True), {}),
        "timeline": (_Many(_entry(COUNT, TEXT, ANY)), []),
        "mirrors": (_Many(_Record({
            "model": (TEXT, REQUIRED), "gate": (TEXT, REQUIRED), "category": (TEXT, REQUIRED),
            "trigger": (_Leaf((str,), "decision or task:<name>",
                              lambda v: v == "decision" or v.startswith("task:")), "decision"),
        })), []),
    })), [], "source-invalid"),
    "rules": (_Many(_Record({
        "text": (TEXT, ""), "id": (TEXT, None),
        "required_freshness": (_Many(COUNT, keyed=True), {}),
    }, text="text")), [], "rule-invalid"),
    "process_models": (_Many(_Record({
        "model_id": (TEXT, ""), "nodes": (_Many(_NODE), []),
        "compensation_refs": (_Many(TEXT, keyed=True), {}),
        "execution_time_constraint": (COUNT, None), "context_master": (TEXT, None),
    })), [], "model-invalid"),
    "thresholds": (_Many(_Many(_Record({
        "category": (TEXT, ""), "kind": (_one_of(THRESHOLD_KINDS), "any-change"),
        "theta": (NUMBER, None), "min_reliability": (NUMBER, 0.0),
    })), keyed=True), {}, "threshold-invalid"),
    "instances": (_Many(_Record({
        "id": (TEXT, ""), "model": (TEXT, ""), "principal": (TEXT, ""),
        "start_tick": (COUNT, 0), "share_with": (TEXT, None),
    })), [], "instance-invalid"),
})


# --- section parsers: typed values in, model objects and cross-checks out -------------


def _kind(scenario, category):
    """The catalog kind of ``category``, None when it is not catalogued."""
    entry = scenario.catalog.get(category)
    return entry and entry.category.value_kind


def _known(scenario, bad, code, subject, categories) -> bool:
    """Report each of ``categories`` missing from the catalog."""
    unknown = [cat for cat in categories if cat not in scenario.catalog]
    for cat in unknown:
        bad(code, subject, f"{cat!r} not in catalog")
    return not unknown


def _parse_catalog(doc, scenario, bad):
    for entry in doc["catalog"]:
        cat_id = entry["id"]
        if cat_id in scenario.catalog:
            bad("catalog-duplicate", cat_id, "duplicate catalog id")
            continue
        name = cat_id if entry["name"] is None else entry["name"]
        scenario.catalog[cat_id] = CatalogEntry(
            ContextCategory(cat_id, name, entry["kind"], entry["unit"]),
            entry["parent"], entry["requires_value"])
    for cat_id, entry in scenario.catalog.items():
        seen = {cat_id}
        cursor = entry.parent
        while cursor is not None:
            if cursor not in scenario.catalog:
                bad("catalog-unknown-parent", cat_id, f"parent {cursor!r} not in catalog")
                entry.parent = None
                break
            if cursor in seen:
                bad("catalog-parent-cycle", cat_id, "parent chain forms a cycle")
                entry.parent = None
                break
            seen.add(cursor)
            cursor = scenario.catalog[cursor].parent


def _parse_masters(doc, scenario, bad):
    # a model keeps the values before the current one that the deepest aggregate reads
    history = max((entry["spec"]["window"] - 1 for entry in doc["agents"]
                   if entry["kind"] == "aggregate"), default=0)
    for entry in doc["masters"]:
        model_id, categories = entry["model_id"], entry["categories"]
        graph = ContextIntersection(history_limit=history)
        ok = _known(scenario, bad, "master-unknown-category", model_id, categories)
        for cat_id in categories:
            parent = scenario.catalog[cat_id].parent if cat_id in scenario.catalog else None
            if parent is not None and parent not in categories:
                bad("master-missing-parent", model_id,
                    f"{cat_id!r} listed without its parent {parent!r}")
                ok = False
        if not ok:
            continue
        for cat_id in categories:
            graph.add_category(scenario.catalog[cat_id].category,
                               len(catalog_chain(scenario.catalog, cat_id)))
        for cat_id in categories:
            parent = scenario.catalog[cat_id].parent
            if parent is not None:
                graph.add_edge(parent, cat_id)
        predefined = entry["predefined"]
        if predefined is None:
            predefined = list(graph.levels[0]) if graph.levels else []
        master = MasterContextModel(model_id=model_id, intersection=graph,
                                    predefined_categories=predefined)
        for violation in master.validate().violations:
            bad(violation.code, f"{model_id}:{violation.subject}", violation.detail)
        scenario.masters[model_id] = master


def _parse_sources(doc, scenario, bad):
    for entry in doc["sources"]:
        source_id, provides = entry["id"], tuple(entry["provides"])
        _known(scenario, bad, "source-unknown-category", source_id, provides)
        try:
            scenario.sources[source_id] = ScriptedSource(
                descriptor=SourceDescriptor(source_id, entry["mode"], entry["reliability"],
                                            entry["cost"], entry["interval"], provides),
                timeline=[TimelineEntry(*item) for item in entry["timeline"]],
                poll_table=entry["poll"],
                mirrors=[MirrorSpec(m["model"], m["gate"], m["category"], m["trigger"])
                         for m in entry["mirrors"]],
            )
        except ValueError as err:
            bad("source-invalid", source_id, str(err))


# whether a node of each kind can read a first input of a catalog kind;
# a kind missing here reads any kind
_READS = {
    "linear": lambda kind, spec: kind == "numeric",
    "expr": lambda kind, spec: kind == "numeric",
    "filter": lambda kind, spec: comparable(kind, spec["op"], value_kind(spec["value"])),
    "aggregate": lambda kind, spec: not (spec["reducer"] == "mean" and kind != "numeric"
                                         or spec["reducer"] in ("min", "max") and kind == "record"),
}


def _parse_propagation(doc, scenario, bad):
    """One node per relation and per agent; the violation codes stay per section."""
    relations = [(entry["id"], entry["function"]["type"], (entry["cause"],), (entry["effect"],),
                  entry["function"]) for entry in doc["cause_effects"]]
    agents = []
    for entry in doc["agents"]:
        outputs = entry["outputs"]
        if outputs is None:
            outputs = [] if entry["output"] is None else [entry["output"]]
        agents.append((entry["id"], entry["kind"], tuple(entry["inputs"]), tuple(outputs),
                       entry["spec"]))
    for section, entries in (("relation", relations), ("agent", agents)):
        for node_id, kind, inputs, outputs, spec in entries:
            _known(scenario, bad, f"{section}-unknown-category", node_id, inputs + outputs)
            try:
                if section == "relation":
                    node = CauseEffectRelation(node_id, *inputs, *outputs, spec)
                else:
                    node = DerivationAgent(node_id, kind, inputs, outputs, spec)
            except (ValueError, SyntaxError) as err:
                # a relation fails on a cause that is its effect, else on its expr
                code = "invalid" if section == "agent" or inputs == outputs else "bad-function"
                bad(f"{section}-{code}", node_id, str(err))
                continue
            reads, input_kind = _READS.get(kind), _kind(scenario, inputs[0])
            if reads and input_kind is not None and not reads(input_kind, spec):
                bad(f"{section}-kind-mismatch", node_id,
                    f"a {kind} node cannot read the {input_kind} input {inputs[0]!r}")
            scenario.propagation.append(node)
    try:
        topological_order(scenario.propagation)
    except ValueError as err:
        bad("propagation-cycle", "cause_effects/agents", str(err))


def _parse_rules(doc, scenario, bad):
    kinds = {cat_id: entry.category.value_kind for cat_id, entry in scenario.catalog.items()}
    for entry in doc["rules"]:
        text, rule_id = entry["text"], entry["id"]
        try:
            rule = parse_rule(text, rule_id=rule_id)
        except (RuleSyntaxError, RuleTypeError) as err:
            bad("rule-parse-error", rule_id or text[:40], str(err))
            continue
        if entry["required_freshness"]:
            rule = replace(rule, required_freshness=entry["required_freshness"])
        if rule.rule_id in scenario.rules:
            bad("rule-duplicate", rule.rule_id, "duplicate rule id")
            continue
        _known(scenario, bad, "rule-unknown-category", rule.rule_id, rule.referenced_categories)
        if rule.required_freshness:  # a bound on an uncatalogued category would never apply
            _known(scenario, bad, "rule-unknown-category", rule.rule_id,
                   [c for c in rule.required_freshness if c not in rule.referenced_categories])
        for problem in mistyped(rule.condition, kinds.get):
            bad("rule-kind-mismatch", rule.rule_id, problem)
        scenario.rules[rule.rule_id] = rule


def _build_nodes(raw_nodes):
    return [_NODES[raw["type"]](raw) for raw in raw_nodes]


def _parse_process_models(doc, scenario, bad):
    models, own = scenario.process_models, {}  # model id -> (gates, tasks, inlined models)
    for entry in doc["process_models"]:
        model_id, nodes = entry["model_id"], _build_nodes(entry["nodes"])
        model = ProcessModel(model_id, nodes, entry["compensation_refs"],
                             entry["execution_time_constraint"], entry["context_master"])
        every = process_engine.walk_nodes(nodes)
        if not nodes or not isinstance(nodes[0], StartNode):
            bad("model-no-start", model_id, "first node must be start")
        if sum(1 for n in every if isinstance(n, StartNode)) != 1:
            bad("model-start-count", model_id, "exactly one start node required")
        if not any(isinstance(n, EndNode) for n in nodes):
            bad("model-no-end", model_id, "top-level sequence must contain end")
        own[model_id] = gates, tasks, inlined = {}, set(), []
        for node in every:
            if isinstance(node, TaskNode):
                tasks.add(node.name)
            elif isinstance(node, SubprocessNode):
                inlined.append(node.model_id)
            elif isinstance(node, GateNode):
                if node.gate_id in gates:
                    bad("model-duplicate-gate", model_id,
                        f"gate {node.gate_id!r} defined twice")
                gates[node.gate_id] = node
                if node.default_variant not in node.variants:
                    bad("model-bad-default", model_id,
                        f"gate {node.gate_id!r} default {node.default_variant!r} "
                        "is not a variant")
                for rule_id in node.rule_ids:
                    if rule_id not in scenario.rules:
                        bad("gate-unknown-rule", f"{model_id}:{node.gate_id}",
                            f"rule {rule_id!r} not declared")
        if model.context_master and model.context_master not in scenario.masters:
            bad("model-unknown-master", model_id,
                f"context master {model.context_master!r} not declared")
        models[model_id] = model
    # a subprocess runs inline, under the instance's own model: an instance
    # runs its model's nodes and those of every model they reach
    for model_id, model in models.items():
        for ref, target in model.compensation_refs.items():
            if target not in models:
                bad("model-unknown-compensation", model_id,
                    f"{ref!r} points at unknown model {target!r}")
        for target in own[model_id][2]:
            if target not in models:
                bad("model-unknown-subprocess", model_id, f"subprocess {target!r} not declared")
        gates, tasks, entered = {}, set(), [model_id]
        for current in entered:
            current_gates, current_tasks, inlined = own[current]
            for gate_id, gate in current_gates.items():
                if gates.setdefault(gate_id, gate) is not gate:
                    bad("model-duplicate-gate", model_id,
                        f"gate {gate_id!r} of inlined model {current!r} defined twice")
            tasks |= current_tasks
            entered += [target for target in dict.fromkeys(inlined)
                        if target in models and target not in entered]
        if any(model_id in own[current][2] for current in entered):
            # a chain back to its own model never ends
            bad("model-subprocess-cycle", model_id,
                "a chain of subprocess nodes returns to this model")
        scenario.runs[model_id] = gates, tasks


def _parse_thresholds(doc, scenario, bad):
    for model_id, entries in doc["thresholds"].items():
        if model_id not in scenario.process_models:
            bad("threshold-unknown-model", model_id, "no such process model")
        parsed = scenario.thresholds[model_id] = {}
        for entry in entries:
            category, kind = entry["category"], entry["kind"]
            if category not in scenario.catalog:
                bad("threshold-unknown-category", category, "not in catalog")
                continue
            if kind == "numeric-delta" and _kind(scenario, category) != "numeric":
                bad("threshold-kind-mismatch", category,
                    "numeric-delta threshold on a non-numeric category")
                continue
            try:
                parsed[category] = NotificationThreshold(category, kind, entry["theta"],
                                                         entry["min_reliability"])
            except ValueError as err:
                bad("threshold-invalid", category, str(err))


# the id a compensation child gets: its parent's id, ".comp", its number from 1
_COMP_CHILD = re.compile(r"(.+)\.comp[1-9][0-9]*")


def _check_instances(doc, scenario, bad):
    instances, models = scenario.instances, scenario.process_models
    ids = list(map(itemgetter("id"), instances))
    starts = dict(zip(ids, instances))
    if len(starts) < len(ids):
        seen = set()
        for instance_id in ids:
            if instance_id in seen:
                bad("instance-duplicate", instance_id, "duplicate instance id")
            seen.add(instance_id)
    for instance_id in [key for key in starts if ".comp" in key]:
        head = instance_id
        while match := _COMP_CHILD.fullmatch(head):
            head = match[1]
            if head in starts:
                bad("instance-reserved-id", instance_id,
                    f"a compensation child of {head!r} takes this id")
                break
    if not set(map(itemgetter("model"), instances)) <= models.keys():
        for start in instances:
            if start["model"] not in models:
                bad("instance-unknown-model", start["id"], f"no process model {start['model']!r}")
    # compensation children and inlined sub-processes run under another model's context
    for model_id in dict.fromkeys(map(itemgetter("model"), instances)):
        if model_id in models and not models[model_id].context_master:
            bad("model-no-master", model_id, "instances start it, yet it names no context_master")
    for start in [start for start in instances if start["share_with"] is not None]:
        target = starts.get(start["share_with"])
        if target is None:
            bad("instance-unknown-share", start["id"],
                f"share target {start['share_with']!r} not declared")
        elif target["start_tick"] >= start["start_tick"]:
            bad("instance-share-order", start["id"], "share target must start strictly earlier")


def _check_mirrors(doc, scenario, bad):
    """A mirror names a declared model, a gate and task its instances run, and a
    category its source provides; any other mirror would never fire."""
    for source in scenario.sources.values():
        for spec in source.mirrors:
            missing = []
            if spec.model_id in scenario.runs:
                gates, tasks = scenario.runs[spec.model_id]
                if spec.gate_id not in gates:
                    missing.append(f"gate {spec.gate_id!r}")
                task = spec.trigger.removeprefix("task:")
                if task != spec.trigger and task not in tasks:
                    missing.append(f"task {task!r}")
            else:
                missing.append(f"model {spec.model_id!r}")
            if spec.category_id not in source.descriptor.provided_categories:
                missing.append(f"provided category {spec.category_id!r}")
            for what in missing:
                bad("mirror-unknown-target", source.source_id,
                    f"mirror of {spec.model_id!r}: no {what}")


def _bind_rules(scenario, bad):
    """Action targets must exist in each process model that runs the rule's gate."""
    for model_id, (gates, _) in scenario.runs.items():
        refs = scenario.process_models[model_id].compensation_refs
        for gate in gates.values():
            for rule in filter(None, map(scenario.rules.get, gate.rule_ids)):
                action, rule_id = rule.action, rule.rule_id
                if isinstance(action, SelectVariant):
                    target = gates.get(action.gate_id)
                    if target is None:
                        bad("UnknownActionTarget", rule_id,
                            f"gate {action.gate_id!r} not in model {model_id!r}")
                    elif action.variant_id not in target.variants:
                        bad("UnknownActionTarget", rule_id,
                            f"variant {action.variant_id!r} not in gate "
                            f"{action.gate_id!r} of model {model_id!r}")
                elif isinstance(action, BreakRollback):
                    if action.target not in (None, "start") and action.target not in gates:
                        bad("UnknownActionTarget", rule_id,
                            f"rollback target {action.target!r} not in model {model_id!r}")
                elif isinstance(action, StartCompensation):
                    if action.process_ref not in refs:
                        bad("UnknownActionTarget", rule_id,
                            f"compensation ref {action.process_ref!r} not declared "
                            f"in model {model_id!r}")


@dataclass
class Assembly:
    simulation: Simulation
    process: ProcessEngine
    rules: RulesEngine
    context: ContextEngine
    externals: ExternalSystems
    scenario: Scenario


def build_simulation(scenario: Scenario, seed: int | None = None,
                     max_steps: int | None = None) -> Assembly:
    sim = Simulation(
        seed=scenario.seed if seed is None else seed,
        latency=scenario.latency,
        max_steps=scenario.max_steps if max_steps is None else max_steps,
    )
    externals = ExternalSystems(sim, scenario.sources)
    context = ContextEngine(
        sim,
        catalog=scenario.catalog,
        masters=scenario.masters,
        sources={s.source_id: s.descriptor for s in scenario.sources.values()},
        propagation=scenario.propagation,
        poll_budget=scenario.poll_budget,
        max_config_steps=scenario.max_config_steps,
        model_masters={
            m.model_id: m.context_master or "" for m in scenario.process_models.values()
        },
        model_thresholds=scenario.thresholds,
    )
    rules = RulesEngine(
        sim,
        gates={(model_id, gate_id): (
            [scenario.rules[rid] for rid in gate.rule_ids if rid in scenario.rules],
            gate.default_variant)
            for model_id, (gates, _) in scenario.runs.items() for gate_id, gate in gates.items()},
    )
    process = ProcessEngine(
        sim,
        models=scenario.process_models,
        deny_principals=scenario.deny_principals,
        mirror_emit=externals.emit_mirror,
    )
    for source in scenario.sources.values():
        process.register_mirrors(source.source_id, source.mirrors)
    sim.register_pool("process", process.handle_message, process.handle_timer)
    sim.register_pool("rules", rules.handle_message)
    sim.register_pool("context", context.handle_message, context.handle_timer)
    sim.register_pool("external", externals.handle_message, externals.handle_timer)
    externals.schedule_timeline()
    for source in scenario.sources.values():
        if source.descriptor.mode == "poll":
            sim.timer("context", {"kind": "poll", "source": source.source_id},
                      source.descriptor.poll_interval)
    process.pending_starts += len(scenario.instances)
    for start in scenario.instances:
        sim.timer("process", {
            "kind": "start_instance",
            "instance": start["id"],
            "model": start["model"],
            "principal": start["principal"],
            "share_with": start["share_with"],
        }, start["start_tick"])
    sim.is_quiescent = process.all_terminal
    return Assembly(sim, process, rules, context, externals, scenario)


def run_scenario_data(data: dict, seed: int | None = None,
                      max_steps: int | None = None) -> tuple[Assembly, bool]:
    """Validate, build and run; returns the assembly and completion flag."""
    scenario, violations = parse_scenario(data)
    if violations:
        raise ScenarioParseError(
            f"scenario has {len(violations)} validation violation(s); "
            f"first: {violations[0].code} on {violations[0].subject}"
        )
    assembly = build_simulation(scenario, seed=seed, max_steps=max_steps)
    assembly.simulation.run()
    return assembly, not assembly.simulation.truncated
