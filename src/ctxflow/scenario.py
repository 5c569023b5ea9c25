"""Scenario files: loading, validation, and assembly into a simulation.

A scenario is a single JSON document bundling the category catalog, the
master context model, process models, rule texts, thresholds,
cause-effect relations, derivation agents, scripted sources and the
instances to start.  ``validate`` reports every violation; ``build``
wires the four pools together and returns a runnable simulation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .choreography import (
    DEFAULT_MAX_STEPS,
    ExternalSystems,
    LatencyConfig,
    Simulation,
)
from .context_engine import (
    DEFAULT_POLL_BUDGET,
    CatalogEntry,
    CauseEffectRelation,
    ContextEngine,
    DerivationAgent,
    NotificationThreshold,
    catalog_chain,
    compile_arithmetic,
    topological_order,
)
from .errors import RuleSyntaxError, RuleTypeError, ScenarioParseError
from .model import (
    DEFAULT_HISTORY_LIMIT,
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
    BreakRollback,
    Rule,
    SelectVariant,
    StartCompensation,
    parse_rule,
)
from .rules_engine import RulesEngine
from .sources import MirrorSpec, ScriptedSource, SourceDescriptor, TimelineEntry


@dataclass
class InstanceStart:
    instance_id: str
    model_id: str
    principal: str
    start_tick: int = 0
    share_with: str | None = None


@dataclass
class Scenario:
    seed: int = 0
    max_steps: int = DEFAULT_MAX_STEPS
    poll_budget: int = DEFAULT_POLL_BUDGET
    max_config_steps: int | None = None
    history_limit: int = DEFAULT_HISTORY_LIMIT
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    staleness: tuple[int, float] | None = None
    deny_principals: list[str] = field(default_factory=list)
    catalog: dict[str, CatalogEntry] = field(default_factory=dict)
    masters: dict[str, MasterContextModel] = field(default_factory=dict)
    relations: list[CauseEffectRelation] = field(default_factory=list)
    agents: list[DerivationAgent] = field(default_factory=list)
    sources: dict[str, ScriptedSource] = field(default_factory=dict)
    process_models: dict[str, ProcessModel] = field(default_factory=dict)
    rules: dict[str, Rule] = field(default_factory=dict)
    thresholds: dict[str, list[dict]] = field(default_factory=dict)
    instances: list[InstanceStart] = field(default_factory=list)


def load_scenario_data(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as err:
        raise ScenarioParseError(f"cannot read scenario {path}: {err}") from err


def parse_scenario(data: dict) -> tuple[Scenario, list[Violation]]:
    """Build a typed scenario, collecting every violation found."""
    violations: list[Violation] = []

    def bad(code, subject, detail):
        violations.append(Violation(code, subject, detail))

    scenario = Scenario()
    scenario.seed = data.get("seed", 0)
    _parse_limits(data, scenario, bad)
    _parse_latency(data, scenario, bad)
    _parse_staleness(data, scenario, bad)
    _parse_auth(data, scenario, bad)

    _parse_catalog(data, scenario, bad)
    _parse_masters(data, scenario, bad)
    _parse_sources(data, scenario, bad)
    _parse_propagation(data, scenario, bad)
    _parse_rules(data, scenario, bad)
    _parse_process_models(data, scenario, bad)
    _parse_thresholds(data, scenario, bad)
    _parse_instances(data, scenario, bad)
    _bind_rules(scenario, bad)
    return scenario, violations


def _is_count(value) -> bool:
    """A non-negative int; bools and floats do not count."""
    return type(value) is int and value >= 0


# limits key -> Scenario attribute; ``max_config_steps`` may also be null
_LIMITS = {"max_steps": "max_steps", "poll_budget": "poll_budget",
           "history": "history_limit", "max_config_steps": "max_config_steps"}


def _parse_limits(data, scenario, bad):
    limits = data.get("limits", {})
    if not isinstance(limits, dict):
        bad("limits-invalid", "limits", "limits must be an object")
        return
    for key, attribute in _LIMITS.items():
        if key not in limits or (key == "max_config_steps" and limits[key] is None):
            continue
        value = limits[key]
        if not _is_count(value):
            bad("limits-invalid", f"limits.{key}", f"{value!r} is not a non-negative integer")
            continue
        setattr(scenario, attribute, value)


def _parse_staleness(data, scenario, bad):
    staleness = data.get("staleness")
    if staleness is None:
        return
    if not isinstance(staleness, dict):
        bad("staleness-invalid", "staleness", "staleness must be an object or null")
        return
    max_age, decay = staleness.get("max_age"), staleness.get("decay")
    if type(max_age) is not int or max_age < 1:
        bad("staleness-invalid", "staleness.max_age",
            f"{max_age!r} is not an integer of at least 1")
    elif type(decay) not in (int, float) or not 0 < decay <= 1:
        bad("staleness-invalid", "staleness.decay", f"{decay!r} is not a number in (0, 1]")
    else:
        scenario.staleness = (max_age, decay)


def _parse_auth(data, scenario, bad):
    auth = data.get("auth", {})
    deny = auth.get("deny", []) if isinstance(auth, dict) else None
    if not isinstance(deny, list) or not all(isinstance(name, str) for name in deny):
        bad("auth-invalid", "auth", "auth must be an object whose deny is a list of strings")
        return
    scenario.deny_principals = list(deny)


def _parse_latency(data, scenario, bad):
    latency = data.get("latency", {})
    if not isinstance(latency, dict) or not isinstance(latency.get("channels", {}), dict):
        bad("latency-invalid", "latency", "latency and latency.channels must be objects")
        return
    scenario.latency = LatencyConfig(
        default=latency.get("default", 1),
        channels=dict(latency.get("channels", {})),
        jitter=latency.get("jitter", 0),
    )
    ticks = {"latency.default": scenario.latency.default,
             "latency.jitter": scenario.latency.jitter}
    for channel, value in scenario.latency.channels.items():
        ticks[f"latency.channels[{channel}]"] = value
    for subject, value in ticks.items():
        if not _is_count(value):
            bad("latency-invalid", subject, f"{value!r} is not a non-negative integer")


def _parse_catalog(data, scenario, bad):
    for entry in data.get("catalog", []):
        cat_id = entry.get("id", "")
        if not cat_id:
            bad("catalog-missing-id", "?", "catalog entry without an id")
            continue
        if cat_id in scenario.catalog:
            bad("catalog-duplicate", cat_id, "duplicate catalog id")
            continue
        try:
            category = ContextCategory(
                category_id=cat_id,
                name=entry.get("name", cat_id),
                value_kind=entry.get("kind", "text"),
                unit=entry.get("unit"),
            )
        except ValueError as err:
            bad("catalog-bad-kind", cat_id, str(err))
            continue
        scenario.catalog[cat_id] = CatalogEntry(
            category=category,
            parent=entry.get("parent"),
            requires_value=entry.get("requires_value", True),
        )
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


def _parse_masters(data, scenario, bad):
    for entry in data.get("masters", []):
        model_id = entry.get("model_id", "")
        categories = entry.get("categories", [])
        graph = ContextIntersection(history_limit=scenario.history_limit)
        ok = True
        for cat_id in categories:
            if cat_id not in scenario.catalog:
                bad("master-unknown-category", model_id, f"{cat_id!r} not in catalog")
                ok = False
                continue
            parent = scenario.catalog[cat_id].parent
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
        predefined = entry.get("predefined")
        if predefined is None:
            predefined = list(graph.levels[0]) if graph.levels else []
        master = MasterContextModel(
            model_id=model_id,
            intersection=graph,
            predefined_categories=predefined,
        )
        report = master.validate()
        for violation in report.violations:
            bad(violation.code, f"{model_id}:{violation.subject}", violation.detail)
        scenario.masters[model_id] = master


def _parse_sources(data, scenario, bad):
    for entry in data.get("sources", []):
        source_id = entry.get("id", "")
        provides = tuple(entry.get("provides", []))
        for cat in provides:
            if cat not in scenario.catalog:
                bad("source-unknown-category", source_id, f"{cat!r} not in catalog")
        try:
            descriptor = SourceDescriptor(
                source_id=source_id,
                mode=entry.get("mode", "push"),
                reliability=entry.get("reliability", 1.0),
                cost_per_value=entry.get("cost", 0.0),
                poll_interval=entry.get("interval", 1),
                provided_categories=provides,
            )
        except ValueError as err:
            bad("source-invalid", source_id, str(err))
            continue
        timeline = [
            TimelineEntry(tick, category, payload)
            for tick, category, payload in entry.get("timeline", [])
        ]
        poll_table = {
            category: [tuple(pair) for pair in schedule]
            for category, schedule in entry.get("poll", {}).items()
        }
        mirrors = [
            MirrorSpec(
                model_id=m["model"],
                gate_id=m["gate"],
                category_id=m["category"],
                trigger=m.get("trigger", "decision"),
            )
            for m in entry.get("mirrors", [])
        ]
        try:
            scenario.sources[source_id] = ScriptedSource(
                descriptor=descriptor,
                timeline=timeline,
                poll_table=poll_table,
                mirrors=mirrors,
            )
        except ValueError as err:
            bad("source-invalid", source_id, str(err))


def _parse_propagation(data, scenario, bad):
    for entry in data.get("cause_effects", []):
        relation_id = entry.get("id", "")
        cause = entry.get("cause", "")
        effect = entry.get("effect", "")
        for cat in (cause, effect):
            if cat not in scenario.catalog:
                bad("relation-unknown-category", relation_id, f"{cat!r} not in catalog")
        function = entry.get("function", {})
        if function.get("type") == "expr":
            try:
                compile_arithmetic(function.get("expr", ""))
            except (ValueError, SyntaxError) as err:
                bad("relation-bad-function", relation_id, str(err))
                continue
        elif function.get("type") not in ("linear", "lookup"):
            bad("relation-bad-function", relation_id,
                f"unknown function type {function.get('type')!r}")
            continue
        try:
            scenario.relations.append(CauseEffectRelation(
                relation_id=relation_id,
                cause_category=cause,
                effect_category=effect,
                function=function,
            ))
        except ValueError as err:
            bad("relation-invalid", relation_id, str(err))
    for entry in data.get("agents", []):
        agent_id = entry.get("id", "")
        outputs = entry.get("outputs")
        if outputs is None:
            outputs = [entry["output"]] if "output" in entry else []
        inputs = entry.get("inputs", [])
        for cat in list(inputs) + list(outputs):
            if cat not in scenario.catalog:
                bad("agent-unknown-category", agent_id, f"{cat!r} not in catalog")
        try:
            scenario.agents.append(DerivationAgent(
                agent_id=agent_id,
                kind=entry.get("kind", ""),
                inputs=tuple(inputs),
                outputs=tuple(outputs),
                spec=entry.get("spec", {}),
            ))
        except ValueError as err:
            bad("agent-invalid", agent_id, str(err))
    try:
        topological_order(scenario.relations + scenario.agents)
    except ValueError as err:
        bad("propagation-cycle", "cause_effects/agents", str(err))


def _parse_rules(data, scenario, bad):
    for entry in data.get("rules", []):
        if isinstance(entry, str):
            text, rule_id, freshness = entry, None, {}
        else:
            text = entry.get("text", "")
            rule_id = entry.get("id")
            freshness = entry.get("required_freshness", {})
        try:
            rule = parse_rule(text, rule_id=rule_id)
        except (RuleSyntaxError, RuleTypeError) as err:
            bad("rule-parse-error", rule_id or text[:40], str(err))
            continue
        rule = Rule(
            rule_id=rule.rule_id,
            name=rule.name,
            condition=rule.condition,
            action=rule.action,
            referenced_categories=rule.referenced_categories,
            required_freshness=dict(freshness),
        )
        if rule.rule_id in scenario.rules:
            bad("rule-duplicate", rule.rule_id, "duplicate rule id")
            continue
        for cat in rule.referenced_categories:
            if cat not in scenario.catalog:
                bad("rule-unknown-category", rule.rule_id, f"{cat!r} not in catalog")
        scenario.rules[rule.rule_id] = rule


def _parse_nodes(raw_nodes, model_id, bad):
    nodes = []
    for raw in raw_nodes:
        node_type = raw.get("type")
        if node_type == "start":
            nodes.append(StartNode())
        elif node_type == "end":
            nodes.append(EndNode())
        elif node_type == "task":
            duration = raw.get("duration", 1)
            if duration < 0:
                bad("model-bad-duration", model_id,
                    f"task {raw.get('name')!r} has negative duration")
                duration = 0
            nodes.append(TaskNode(name=raw.get("name", "task"), duration=duration))
        elif node_type == "subprocess":
            nodes.append(SubprocessNode(model_id=raw.get("model", "")))
        elif node_type == "gate":
            variants = {
                variant: _parse_nodes(branch, model_id, bad)
                for variant, branch in raw.get("variants", {}).items()
            }
            nodes.append(GateNode(
                gate_id=raw.get("id", ""),
                variants=variants,
                default_variant=raw.get("default", ""),
                rule_ids=list(raw.get("rules", [])),
            ))
        else:
            bad("model-bad-node", model_id, f"unknown node type {node_type!r}")
    return nodes


def _parse_process_models(data, scenario, bad):
    for entry in data.get("process_models", []):
        model_id = entry.get("model_id", "")
        nodes = _parse_nodes(entry.get("nodes", []), model_id, bad)
        model = ProcessModel(
            model_id=model_id,
            nodes=nodes,
            compensation_refs=dict(entry.get("compensation_refs", {})),
            execution_time_constraint=entry.get("execution_time_constraint"),
            context_master=entry.get("context_master"),
        )
        if not nodes or not isinstance(nodes[0], StartNode):
            bad("model-no-start", model_id, "first node must be start")
        if sum(1 for n in _walk_nodes(nodes) if isinstance(n, StartNode)) != 1:
            bad("model-start-count", model_id, "exactly one start node required")
        if not any(isinstance(n, EndNode) for n in nodes):
            bad("model-no-end", model_id, "top-level sequence must contain end")
        gates = {}
        for node in _walk_nodes(nodes):
            if isinstance(node, GateNode):
                if node.gate_id in gates:
                    bad("model-duplicate-gate", model_id,
                        f"gate {node.gate_id!r} defined twice")
                gates[node.gate_id] = node
                if node.default_variant not in node.variants:
                    bad("model-bad-default", model_id,
                        f"gate {node.gate_id!r} default {node.default_variant!r} "
                        "is not a variant")
        if model.context_master and model.context_master not in scenario.masters:
            bad("model-unknown-master", model_id,
                f"context master {model.context_master!r} not declared")
        scenario.process_models[model_id] = model
    # second pass: cross-model references
    for model in scenario.process_models.values():
        for ref, target in model.compensation_refs.items():
            if target not in scenario.process_models:
                bad("model-unknown-compensation", model.model_id,
                    f"{ref!r} points at unknown model {target!r}")
        for node in _walk_nodes(model.nodes):
            if isinstance(node, SubprocessNode) and node.model_id not in scenario.process_models:
                bad("model-unknown-subprocess", model.model_id,
                    f"subprocess {node.model_id!r} not declared")


def _walk_nodes(nodes):
    for node in nodes:
        yield node
        if isinstance(node, GateNode):
            for branch in node.variants.values():
                yield from _walk_nodes(branch)


def _parse_thresholds(data, scenario, bad):
    for model_id, entries in data.get("thresholds", {}).items():
        if model_id not in scenario.process_models:
            bad("threshold-unknown-model", model_id, "no such process model")
        parsed = []
        for entry in entries:
            category = entry.get("category", "")
            catalog_entry = scenario.catalog.get(category)
            if catalog_entry is None:
                bad("threshold-unknown-category", category, "not in catalog")
                continue
            kind = entry.get("kind", "any-change")
            if kind == "numeric-delta" and catalog_entry.category.value_kind != "numeric":
                bad("threshold-kind-mismatch", category,
                    "numeric-delta threshold on a non-numeric category")
                continue
            try:
                NotificationThreshold(
                    category_id=category, kind=kind,
                    theta=entry.get("theta"),
                    min_reliability=entry.get("min_reliability", 0.0),
                )
            except ValueError as err:
                bad("threshold-invalid", category, str(err))
                continue
            parsed.append({
                "category_id": category,
                "kind": kind,
                "theta": entry.get("theta"),
                "min_reliability": entry.get("min_reliability", 0.0),
            })
        scenario.thresholds[model_id] = parsed


def _parse_instances(data, scenario, bad):
    starts = {}
    for entry in data.get("instances", []):
        instance_id = entry.get("id", "")
        if instance_id in starts:
            bad("instance-duplicate", instance_id, "duplicate instance id")
            continue
        model_id = entry.get("model", "")
        if model_id not in scenario.process_models:
            bad("instance-unknown-model", instance_id, f"no process model {model_id!r}")
        start = InstanceStart(
            instance_id=instance_id,
            model_id=model_id,
            principal=entry.get("principal", ""),
            start_tick=entry.get("start_tick", 0),
            share_with=entry.get("share_with"),
        )
        starts[instance_id] = start
        scenario.instances.append(start)
    for start in scenario.instances:
        if start.share_with is None:
            continue
        target = starts.get(start.share_with)
        if target is None:
            bad("instance-unknown-share", start.instance_id,
                f"share target {start.share_with!r} not declared")
        elif target.start_tick >= start.start_tick:
            bad("instance-share-order", start.instance_id,
                "share target must start strictly earlier")


def _bind_rules(scenario, bad):
    """Action targets must exist in the process model a rule attaches to."""
    for model in scenario.process_models.values():
        gates = model.gates()
        for gate in gates.values():
            for rule_id in gate.rule_ids:
                rule = scenario.rules.get(rule_id)
                if rule is None:
                    bad("gate-unknown-rule", f"{model.model_id}:{gate.gate_id}",
                        f"rule {rule_id!r} not declared")
                    continue
                action = rule.action
                if isinstance(action, SelectVariant):
                    target = gates.get(action.gate_id)
                    if target is None:
                        bad("UnknownActionTarget", rule_id,
                            f"gate {action.gate_id!r} not in model {model.model_id!r}")
                    elif action.variant_id not in target.variants:
                        bad("UnknownActionTarget", rule_id,
                            f"variant {action.variant_id!r} not in gate "
                            f"{action.gate_id!r} of model {model.model_id!r}")
                elif isinstance(action, BreakRollback):
                    if action.target not in (None, "start") and action.target not in gates:
                        bad("UnknownActionTarget", rule_id,
                            f"rollback target {action.target!r} not in model "
                            f"{model.model_id!r}")
                elif isinstance(action, StartCompensation):
                    if action.process_ref not in model.compensation_refs:
                        bad("UnknownActionTarget", rule_id,
                            f"compensation ref {action.process_ref!r} not declared "
                            f"in model {model.model_id!r}")


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
        relations=scenario.relations,
        agents=scenario.agents,
        poll_budget=scenario.poll_budget,
        max_config_steps=scenario.max_config_steps,
        staleness=scenario.staleness,
    )
    gate_rules = {}
    gate_defaults = {}
    for model in scenario.process_models.values():
        for gate in model.gates().values():
            key = (model.model_id, gate.gate_id)
            gate_rules[key] = [scenario.rules[rid] for rid in gate.rule_ids
                               if rid in scenario.rules]
            gate_defaults[key] = gate.default_variant
    rules = RulesEngine(
        sim,
        gate_rules=gate_rules,
        gate_defaults=gate_defaults,
        model_masters={
            m.model_id: m.context_master or "" for m in scenario.process_models.values()
        },
        model_thresholds=scenario.thresholds,
    )
    process = ProcessEngine(
        sim,
        models=scenario.process_models,
        deny_principals=scenario.deny_principals,
        mirror_emit=externals.emit_mirror,
    )
    for source in scenario.sources.values():
        process.register_mirrors(source.mirrors)
    sim.register_pool("process", process.handle_message, process.handle_timer)
    sim.register_pool("rules", rules.handle_message)
    sim.register_pool("context", context.handle_message, context.handle_timer)
    sim.register_pool("external", externals.handle_message, externals.handle_timer)
    externals.schedule_timeline()
    for source in scenario.sources.values():
        if source.descriptor.mode == "poll":
            sim.timer("context", {"kind": "poll", "source": source.source_id},
                      source.descriptor.poll_interval)
    for start in scenario.instances:
        process.pending_starts += 1
        sim.timer("process", {
            "kind": "start_instance",
            "instance": start.instance_id,
            "model": start.model_id,
            "principal": start.principal,
            "share_with": start.share_with,
        }, start.start_tick)
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
