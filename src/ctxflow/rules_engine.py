"""Rules engine: gate evaluation, stored decisions, re-evaluation.

Rules attach to gates per process model and run first-match in declared
order.  Every gate evaluation stores an evaluation record keyed by
(instance, gate); a context change re-evaluates exactly the records
whose relevant context intersects the changed categories.  Break,
rollback and compensation requests originate here and only here.
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
    gate_id: str
    evaluation: str


@dataclass
class GateOutcome:
    fired_rule: str | None
    action: object
    used_context: dict[str, int]
    skipped: list = field(default_factory=list)


def evaluate_gate(gate_id: str, instance_id: str, rules: list[Rule],
                  env: dict, now: int, default_variant: str | None) -> GateOutcome:
    """First-match evaluation of a gate's rules against a context snapshot.

    ``env`` maps category -> (payload, ts).  A rule whose freshness bound
    is violated is skipped (a stale value must not trigger extreme
    actions); a rule whose references are missing from the snapshot is
    skipped the same way, and the skip is reported in the outcome.
    """
    used: dict[str, int] = {}
    for rule in rules:
        for category in rule.referenced_categories:
            if category in env:
                used[category] = env[category][1]
    skipped = []
    for rule in rules:
        stale = None
        for category, max_age in sorted(rule.required_freshness.items()):
            if category in env and now - env[category][1] > max_age:
                stale = category
                break
        if stale is not None:
            skipped.append({"rule": rule.rule_id, "reason": "stale", "category": stale})
            continue
        missing = [c for c in rule.referenced_categories if c not in env]
        if missing:
            skipped.append({"rule": rule.rule_id, "reason": "missing",
                            "category": missing[0]})
            continue
        if evaluate_condition(rule.condition, env, now):
            return GateOutcome(rule.rule_id, rule.action, used, skipped)
    if default_variant is None:
        if skipped and all(s["reason"] == "stale" for s in skipped):
            raise StaleContext(
                f"every rule of gate {gate_id!r} was skipped on stale context"
            )
        raise MissingContext(f"gate {gate_id!r} has no default variant and no rule fired")
    return GateOutcome(None, SelectVariant(gate_id, default_variant), used, skipped)


class RulesEngine:
    POOL = "rules"

    def __init__(self, sim, gate_rules: dict, gate_defaults: dict,
                 model_masters: dict, model_thresholds: dict):
        """``gate_rules``/``gate_defaults`` are keyed by (process_model, gate)."""
        self.sim = sim
        self.gate_rules = gate_rules
        self.gate_defaults = gate_defaults
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

    def _gate_refs(self, binding: Binding, gate: str) -> list[str]:
        refs: set = set()
        for rule in self.gate_rules.get((binding.process_model_id, gate), []):
            refs.update(rule.referenced_categories)
        return sorted(refs)

    def _request_evaluation(self, binding: Binding, gate: str, evaluation: str):
        refs = self._gate_refs(binding, gate)
        if not refs:
            self._evaluate(binding, gate, evaluation, env={})
            return
        correlation = self._next_correlation()
        self.pending[correlation] = PendingEval(binding.instance_id, gate, evaluation)
        self.sim.send(self.POOL, "context", "ContextRequest", {
            "model": binding.context_model_id,
            "instance": binding.instance_id,
            "categories": refs,
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
        self._evaluate(binding, pending.gate_id, pending.evaluation, env)

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

    def _evaluate(self, binding: Binding, gate: str, evaluation: str, env: dict):
        key = (binding.process_model_id, gate)
        rules = self.gate_rules.get(key, [])
        default = self.gate_defaults.get(key)
        try:
            outcome = evaluate_gate(
                gate, binding.instance_id, rules, env, self.sim.now, default,
            )
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
        decision, messages = self._decide(outcome, gate, evaluation, default)
        self.records.setdefault(binding.instance_id, {})[gate] = EvaluationRecord(
            gate_id=gate, used_context=outcome.used_context)
        self.sim.trace(self.POOL, "gate_evaluated", {
            "instance": binding.instance_id,
            "gate": gate,
            "evaluation": evaluation,
            "fired_rule": outcome.fired_rule,
            "decision": decision,
            "used": {c: env[c][1] for c in sorted(outcome.used_context)},
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
    env = {}
    for category, value in payload.get("graph", {}).get("values", {}).items():
        env[category] = (value["payload"], value["ts"])
    return env
