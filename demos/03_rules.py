"""The WHEN/THEN rule language and gate evaluation.

Rules attach to decision gates and run first-match in declared order.
The same rule set answers native evaluations (control flow reached the
gate) and re-evaluations (a context change arrived later).
"""

from ctxflow import parse_rule, pretty_print
from ctxflow.rule_dsl import evaluate_condition
from ctxflow.rules_engine import evaluate_gate, gate_plan

sla_text = """RULE Delivery SLA
WHEN executionTimeConstraint < estimatedDeliveryTime
    AND maxSLAFineAmount < estimatedSLAFine
THEN start process.compensation.deliveryVariant
END"""

sla = parse_rule(sla_text)
print("parsed:", sla.name, "| references:", ", ".join(sla.referenced_categories))
print("canonical form round-trips:", parse_rule(pretty_print(sla)) == sla)

ground = parse_rule(
    "RULE Ground Preferred\n"
    "WHEN estimatedDeliveryTime <= executionTimeConstraint\n"
    "THEN selectVariant(shipping, truck)\nEND"
)

calm = {
    "executionTimeConstraint": (72, 0),
    "estimatedDeliveryTime": (40, 4),
    "maxSLAFineAmount": (25000, 0),
    "estimatedSLAFine": (0, 4),
}
print("\ncalm weather, SLA condition holds:",
      evaluate_condition(sla.condition, calm, now=5))
shipping = gate_plan("shipping", [sla, ground], "plane")
outcome = evaluate_gate(shipping, calm, 5)
print("gate picks:", outcome.action, "| fired:", outcome.fired_rule)

stormy = dict(calm)
stormy["estimatedDeliveryTime"] = (96, 30)
stormy["estimatedSLAFine"] = (28000, 30)
outcome = evaluate_gate(shipping, stormy, 31)
print("after the storm:", outcome.action, "| fired:", outcome.fired_rule)

# freshness guards: a stale estimate cannot steer the decision
fresh_rule = parse_rule(
    "RULE Cautious\nWHEN fresh(estimatedDeliveryTime, 2) "
    "AND estimatedDeliveryTime <= 72\nTHEN selectVariant(shipping, truck)\nEND"
)
late = {"estimatedDeliveryTime": (40, 0)}
print("\nfresh() with a 30-tick-old value:",
      evaluate_condition(fresh_rule.condition, late, now=30))
