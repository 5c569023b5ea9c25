"""Rules engine: gate evaluation, stored decisions, re-evaluation.

Rules attach to gates per process model and run first-match in declared
order; each (process model, gate) is planned once, when the engine is
built (``GatePlan``).  Every gate evaluation stores, on the instance's
binding, the context it used; a context change re-evaluates exactly the
gates whose used context intersects the changed categories.
Break, rollback and compensation requests originate here and only here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rule_dsl import (
    BreakRollback,
    Rule,
    SelectVariant,
    StartCompensation,
    evaluate_condition,
)


@dataclass
class Binding:
    instance_id: str
    process_model_id: str
    # gate -> category -> ts of the value its latest evaluation used
    used: dict[str, dict[str, int]] = field(default_factory=dict)


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

    ``categories`` is the sorted union of the rules' references and the
    categories their freshness bounds name, so that a bound is checked
    whether or not its rule references the category: the list every
    ContextRequest for the gate sends (shared, so nothing may mutate it)
    and the order ``used`` is built in.  ``rules`` pairs each rule, in
    declared order, with its freshness bounds sorted by category.
    """

    gate_id: str
    rules: tuple[tuple[Rule, tuple[tuple[str, int], ...]], ...]
    default: str
    categories: list[str]


def gate_plan(gate_id: str, rules: list[Rule], default: str) -> GatePlan:
    categories: set[str] = set()
    checks = []
    for rule in rules:
        categories.update(rule.referenced_categories, rule.required_freshness)
        checks.append((rule, tuple(sorted(rule.required_freshness.items()))))
    return GatePlan(gate_id, tuple(checks), default, sorted(categories))


def evaluate_gate(plan: GatePlan, env: dict, now: int) -> GateOutcome:
    """First-match evaluation of a gate's rules against a context snapshot.

    ``env`` maps category -> (payload, ts).  A rule whose freshness bound
    is violated is skipped (a stale value must not trigger extreme
    actions); a rule whose references are missing from the snapshot is
    skipped the same way, and the skip is reported in the outcome.  When
    no rule fires, the gate's default variant is selected.
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
    return GateOutcome(None, SelectVariant(plan.gate_id, plan.default), used, skipped)


class RulesEngine:
    POOL = "rules"

    def __init__(self, sim, gates: dict):
        """``gates`` maps (process_model, gate) to the gate's (rules, default
        variant): every gate an instance of a process model may reach."""
        self.sim = sim
        self.plans = {key: gate_plan(key[1], rules, default)
                      for key, (rules, default) in gates.items()}
        self.bindings: dict[str, Binding] = {}
        self.pending: dict[str, PendingEval] = {}
        self._correlation = 0

    def _next_correlation(self) -> str:
        self._correlation += 1
        return f"q{self._correlation}"

    # -- bind / unbind -----------------------------------------------------------
    # process -> rules is one FIFO channel: an instance's Register (its id is
    # unique in a run) comes first on it, and its one terminal message last

    def handle_register(self, payload: dict):
        instance = payload["instance"]
        model_id = payload["process_model"]
        self.bindings[instance] = Binding(instance, model_id)
        self.sim.trace(self.POOL, "bound", {
            "instance": instance, "process_model": model_id,
        })
        # the context pool registers the instance by its process model and
        # resolves the instances it shares or copies
        self.sim.send(self.POOL, "context", "Register", payload)

    def handle_process_terminal(self, payload: dict):
        instance = payload["instance"]
        del self.bindings[instance]
        for correlation in [c for c, p in self.pending.items() if p.instance_id == instance]:
            del self.pending[correlation]
        self.sim.trace(self.POOL, "unbound", {"instance": instance})
        self.sim.send(self.POOL, "context", "ShutdownModel", {"instance": instance})

    # -- evaluation request path ----------------------------------------------------

    def handle_rule_eval_request(self, payload: dict):
        self._request_evaluation(self.bindings[payload["instance"]], payload["gate"], "native")

    def _request_evaluation(self, binding: Binding, gate: str, evaluation: str):
        plan = self.plans[(binding.process_model_id, gate)]
        if not plan.categories:
            self._evaluate(binding, plan, evaluation, env={})
            return
        correlation = self._next_correlation()
        self.pending[correlation] = PendingEval(binding.instance_id, plan, evaluation)
        self.sim.send(self.POOL, "context", "ContextRequest", {
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
        # an instance's end drops its pending evaluations: the binding is live
        binding = self.bindings[pending.instance_id]
        env = _env_from_snapshot(payload)
        self._evaluate(binding, pending.plan, pending.evaluation, env)

    def _handle_init_snapshot(self, payload: dict):
        instance = payload["instance"]
        if payload["status"] == "ok":
            self.sim.trace(self.POOL, "listening", {
                "instance": instance, "context_model": payload["model"],
            })
            action = {"type": "continue"}
        else:
            action = {"type": "abort", "reason": payload["status"]}  # "timeout"
        self.sim.send(self.POOL, "process", "Decision", {
            "instance": instance, "evaluation": "init", "action": action,
        })

    # -- evaluation ---------------------------------------------------------------

    def _evaluate(self, binding: Binding, plan: GatePlan, evaluation: str, env: dict):
        gate = plan.gate_id
        outcome = evaluate_gate(plan, env, self.sim.now)
        for skip in outcome.skipped:
            self.sim.trace(self.POOL, "rule_skipped", {
                "instance": binding.instance_id, "gate": gate, **skip,
            })
        decision, messages = self._decide(outcome, gate, evaluation, plan.default)
        binding.used[gate] = outcome.used_context
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
                default: str) -> tuple[dict, list]:
        """The recorded decision, and the (kind, fields) messages that carry it."""
        action = outcome.action
        fallback = {"type": "select_variant", "gate": gate, "variant": default}
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
            else:
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
            decision = fallback
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
        hits = [gate for gate, used in binding.used.items() if not changed.isdisjoint(used)]
        self.sim.trace(self.POOL, "re_evaluation_triggered", {
            "instance": instance,
            "changed": sorted(changed),
            "gates": hits,
        })
        for gate in hits:
            self._request_evaluation(binding, gate, "re_evaluation")

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
