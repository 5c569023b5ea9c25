"""Rules engine: gate evaluation, stored decisions, re-evaluation.

Rules attach to gates per process model and run first-match in declared
order; each (process model, gate) is planned once, on its first
evaluation (``GatePlan``).  Every gate evaluation stores an evaluation
record keyed by (instance, gate); a context change re-evaluates exactly
the records whose relevant context intersects the changed categories.
Break, rollback and compensation requests originate here and only here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MissingContext, StaleContext
from .rule_dsl import (
    BreakRollback,
    Rule,
    SelectVariant,
    StartCompensation,
    evaluate_condition,
)


@dataclass
class EvaluationRecord:
    gate_id: str
    used_context: dict[str, int]  # category -> ts of the value used


@dataclass
class Binding:
    instance_id: str
    process_model_id: str
    context_model_id: str | None = None


@dataclass
class PendingEval:
    instance_id: str
    plan: GatePlan
    evaluation: str


@dataclass
class GateOutcome:
    fired_rule: str | None
    action: object
    used_context: dict[str, int]
    skipped: list = field(default_factory=list)


@dataclass(frozen=True)
class GatePlan:
    """What evaluating one (process model, gate) reads, worked out once.

    ``categories`` is the sorted union of the rules' references: the list
    every ContextRequest for the gate sends (shared, so nothing may mutate
    it) and the order ``used`` is built in.  ``rules`` pairs each rule, in
    declared order, with its freshness bounds sorted by category.
    """

    gate_id: str
    rules: tuple[tuple[Rule, tuple[tuple[str, int], ...]], ...]
    default: str | None
    categories: list[str]


def gate_plan(gate_id: str, rules: list[Rule], default: str | None) -> GatePlan:
    categories: set[str] = set()
    checks = []
    for rule in rules:
        categories.update(rule.referenced_categories)
        checks.append((rule, tuple(sorted(rule.required_freshness.items()))))
    return GatePlan(gate_id, tuple(checks), default, sorted(categories))


def evaluate_gate(plan: GatePlan, env: dict, now: int) -> GateOutcome:
    """First-match evaluation of a gate's rules against a context snapshot.

    ``env`` maps category -> (payload, ts).  A rule whose freshness bound
    is violated is skipped (a stale value must not trigger extreme
    actions); a rule whose references are missing from the snapshot is
    skipped the same way, and the skip is reported in the outcome.
    """
    used = {category: env[category][1] for category in plan.categories if category in env}
    complete = len(used) == len(plan.categories)
    skipped = []
    for rule, freshness in plan.rules:
        stale = None
        for category, max_age in freshness:
            if category in env and now - env[category][1] > max_age:
                stale = category
                break
        if stale is not None:
            skipped.append({"rule": rule.rule_id, "reason": "stale", "category": stale})
            continue
        if not complete:
            missing = [c for c in rule.referenced_categories if c not in env]
            if missing:
                skipped.append({"rule": rule.rule_id, "reason": "missing",
                                "category": missing[0]})
                continue
        if evaluate_condition(rule.condition, env, now):
            return GateOutcome(rule.rule_id, rule.action, used, skipped)
    gate_id = plan.gate_id
    if plan.default is None:
        if skipped and all(s["reason"] == "stale" for s in skipped):
            raise StaleContext(
                f"every rule of gate {gate_id!r} was skipped on stale context"
            )
        raise MissingContext(f"gate {gate_id!r} has no default variant and no rule fired")
    return GateOutcome(None, SelectVariant(gate_id, plan.default), used, skipped)


class RulesEngine:
    POOL = "rules"

    def __init__(self, sim, gates: dict, model_masters: dict, model_thresholds: dict):
        """``gates`` maps (process_model, gate) to the gate's (rules, default
        variant).  ``plans`` holds a gate's ``GatePlan`` from its first use,
        so that building the engine costs no more than the table."""
        self.sim = sim
        self.gates = gates
        self.plans: dict[tuple[str, str], GatePlan] = {}
        self.model_masters = model_masters
        self.model_thresholds = model_thresholds
        self.bindings: dict[str, Binding] = {}
        # instance -> gate -> latest evaluation record
        self.records: dict[str, dict[str, EvaluationRecord]] = {}
        self.pending: dict[str, PendingEval] = {}
        self._correlation = 0

    def _next_correlation(self) -> str:
        self._correlation += 1
        return f"q{self._correlation}"

    # -- bind / unbind -----------------------------------------------------------

    def handle_register(self, payload: dict):
        instance = payload["instance"]
        if instance in self.bindings:
            self.sim.trace(self.POOL, "bind_duplicate", {"instance": instance})
            return
        model_id = payload["process_model"]
        self.bindings[instance] = Binding(instance, model_id)
        self.sim.trace(self.POOL, "bound", {
            "instance": instance, "process_model": model_id,
        })
        register = {
            "instance": instance,
            "master": self.model_masters.get(model_id, ""),
            "thresholds": self.model_thresholds.get(model_id, []),
        }
        share_instance = payload.get("share_with_instance")
        if share_instance is not None:
            share_binding = self.bindings.get(share_instance)
            if share_binding is None or share_binding.context_model_id is None:
                self.sim.trace(self.POOL, "engine_error", {
                    "error": "UnknownSharedModel",
                    "instance": instance,
                    "share_with": share_instance,
                })
            else:
                register["share_with"] = share_binding.context_model_id
        copy_instance = payload.get("copy_from_instance")
        if copy_instance is not None:
            copy_binding = self.bindings.get(copy_instance)
            if copy_binding is not None and copy_binding.context_model_id is not None:
                register["copy_from"] = copy_binding.context_model_id
        self.sim.send(self.POOL, "context", "Register", register)

    def unbind(self, instance_id: str):
        self.bindings.pop(instance_id, None)
        self.records.pop(instance_id, None)
        for correlation in [c for c, p in self.pending.items()
                            if p.instance_id == instance_id]:
            del self.pending[correlation]
        self.sim.trace(self.POOL, "unbound", {"instance": instance_id})

    def handle_process_terminal(self, payload: dict):
        instance = payload["instance"]
        if instance in self.bindings:
            self.unbind(instance)
            self.sim.send(self.POOL, "context", "ShutdownModel", {"instance": instance})

    # -- evaluation request path ----------------------------------------------------

    def handle_rule_eval_request(self, payload: dict):
        instance = payload["instance"]
        gate = payload["gate"]
        binding = self.bindings.get(instance)
        if binding is None:
            self.sim.trace(self.POOL, "engine_error", {
                "error": "UnknownInstance", "detail": instance,
            })
            return
        self._request_evaluation(binding, gate, "native")

    def _request_evaluation(self, binding: Binding, gate: str, evaluation: str):
        key = (binding.process_model_id, gate)
        plan = self.plans.get(key)
        if plan is None:
            rules, default = self.gates.get(key, ((), None))
            plan = self.plans[key] = gate_plan(gate, rules, default)
        if not plan.categories:
            self._evaluate(binding, plan, evaluation, env={})
            return
        correlation = self._next_correlation()
        self.pending[correlation] = PendingEval(binding.instance_id, plan, evaluation)
        self.sim.send(self.POOL, "context", "ContextRequest", {
            "model": binding.context_model_id,
            "instance": binding.instance_id,
            "categories": plan.categories,
            "correlation": correlation,
        })

    def handle_context_snapshot(self, payload: dict):
        if payload.get("phase") == "init":
            self._handle_init_snapshot(payload)
            return
        correlation = payload.get("correlation")
        pending = self.pending.pop(correlation, None)
        if pending is None:
            self.sim.trace(self.POOL, "snapshot_dropped", {
                "correlation": correlation or "",
                "reason": "no pending evaluation",
            })
            return
        if payload.get("status") != "ok":
            self.sim.trace(self.POOL, "snapshot_dropped", {
                "correlation": correlation,
                "reason": payload.get("detail", payload.get("status", "error")),
            })
            return
        # unbind drops an instance's pending evaluations: the binding is live
        binding = self.bindings[pending.instance_id]
        env = _env_from_snapshot(payload)
        self._evaluate(binding, pending.plan, pending.evaluation, env)

    def _handle_init_snapshot(self, payload: dict):
        instance = payload["instance"]
        binding = self.bindings.get(instance)
        if binding is None:
            self.sim.trace(self.POOL, "snapshot_dropped", {
                "instance": instance, "reason": "instance unbound",
            })
            return
        if payload.get("status") == "ok":
            binding.context_model_id = payload["model"]
            self.sim.trace(self.POOL, "listening", {
                "instance": instance, "context_model": payload["model"],
            })
            action = {"type": "continue"}
        else:
            action = {"type": "abort", "reason": payload.get("status", "error")}
        self.sim.send(self.POOL, "process", "Decision", {
            "instance": instance, "evaluation": "init", "action": action,
        })

    # -- evaluation ---------------------------------------------------------------

    def _evaluate(self, binding: Binding, plan: GatePlan, evaluation: str, env: dict):
        gate = plan.gate_id
        try:
            outcome = evaluate_gate(plan, env, self.sim.now)
        except (MissingContext, StaleContext) as err:
            self.sim.trace(self.POOL, "engine_error", {
                "error": type(err).__name__, "detail": str(err),
                "instance": binding.instance_id, "gate": gate,
            })
            return
        for skip in outcome.skipped:
            self.sim.trace(self.POOL, "rule_skipped", {
                "instance": binding.instance_id, "gate": gate, **skip,
            })
        decision, messages = self._decide(outcome, gate, evaluation, plan.default)
        self.records.setdefault(binding.instance_id, {})[gate] = EvaluationRecord(
            gate_id=gate, used_context=outcome.used_context)
        self.sim.trace(self.POOL, "gate_evaluated", {
            "instance": binding.instance_id,
            "gate": gate,
            "evaluation": evaluation,
            "fired_rule": outcome.fired_rule,
            "decision": decision,
            "used": outcome.used_context,  # built in sorted order
        })
        for kind, fields in messages:
            self.sim.send(self.POOL, "process", kind, {
                "instance": binding.instance_id,
                "fired_rule": outcome.fired_rule,
                **fields,
            })

    @staticmethod
    def _decide(outcome: GateOutcome, gate: str, evaluation: str,
                default: str | None) -> tuple[dict, list]:
        """The recorded decision, and the (kind, fields) messages that carry it."""
        action = outcome.action
        fallback = (None if default is None
                    else {"type": "select_variant", "gate": gate, "variant": default})
        if isinstance(action, BreakRollback):
            target = action.target if action.target is not None else gate
            return ({"type": "break_rollback", "target": target},
                    [("BreakRollback", {"target": target, "disposition": "resume"})])
        if isinstance(action, StartCompensation):
            messages = [("StartCompensation", {"process_ref": action.process_ref})]
            if evaluation == "re_evaluation":
                # the context change invalidated the running plan: recall it
                # (break + rollback to start) and hand over to the child
                messages.append(("BreakRollback", {"target": "start", "disposition": "cancel"}))
            elif fallback is not None:
                # natively started compensation runs alongside; the gate
                # still selects its default branch so the parent continues
                messages.append(("Decision", {"gate": gate, "evaluation": evaluation,
                                              "action": fallback}))
            return {"type": "start_compensation", "process_ref": action.process_ref}, messages
        if evaluation == "re_evaluation":
            # a variant choice cannot be revised in flight (switching takes a
            # rollback rule), and a continue changes nothing: the record is all
            return {"type": "continue"}, []
        if isinstance(action, SelectVariant):
            decision = {"type": "select_variant", "gate": action.gate_id,
                        "variant": action.variant_id}
        else:
            # a native continue: the gate still needs a branch, so the default
            decision = fallback or {"type": "continue"}
        return decision, [("Decision", {"gate": gate, "evaluation": evaluation,
                                        "action": decision})]

    # -- context change path ---------------------------------------------------------

    def handle_context_notification(self, payload: dict):
        instance = payload["instance"]
        binding = self.bindings.get(instance)
        if binding is None:
            self.sim.trace(self.POOL, "notification_dropped", {
                "instance": instance,
                "reason": "instance unbound",
                "changes": sorted(c["category"] for c in payload.get("changes", [])),
            })
            return
        changed = {change["category"] for change in payload.get("changes", [])}
        hits = [
            record for record in self.records.get(instance, {}).values()
            if not changed.isdisjoint(record.used_context)
        ]
        self.sim.trace(self.POOL, "re_evaluation_triggered", {
            "instance": instance,
            "changed": sorted(changed),
            "gates": [record.gate_id for record in hits],
        })
        for record in hits:
            self._request_evaluation(binding, record.gate_id, "re_evaluation")

    # -- dispatch ---------------------------------------------------------------------

    def handle_message(self, kind: str, payload: dict):
        self.HANDLERS[kind](self, payload)

    # exactly the kinds CHANNELS delivers to the rules pool
    HANDLERS = {
        "Register": handle_register,
        "RuleEvalRequest": handle_rule_eval_request,
        "ContextSnapshot": handle_context_snapshot,
        "ContextNotification": handle_context_notification,
        "ProcessCompleted": handle_process_terminal,
        "ProcessCancelled": handle_process_terminal,
    }


def _env_from_snapshot(payload: dict) -> dict:
    return {category: (value["payload"], value["ts"])
            for category, value in payload.get("graph", {}).get("values", {}).items()}
