"""Timestamped values: stale writes, source conflicts, thresholds.

Every value carries a logical timestamp, a source and a reliability.
Streams are monotone in time; across sources a certified provider beats
a fresher but unverified one.
"""

from ctxflow import (
    ContextCategory,
    ContextIntersection,
    ContextValue,
    NotificationThreshold,
    check_threshold,
    resolve_conflict,
    update_value,
)
from ctxflow.errors import StaleWrite


def reading(payload, ts, source, reliability):
    return ContextValue(
        value_id=f"weather@{source}", category_id="weather", payload=payload,
        ts=ts, source_id=source, reliability=reliability,
    )


g = ContextIntersection()
g.add_category(ContextCategory("weather", "weather"), 1)

update_value(g, reading("clear", 3, "weatherService", 0.9))
update_value(g, reading("thunderstorm, road washed out", 8, "weatherService", 0.9))
print("current:", g.values["weather"].payload)
print("history:", [v.payload for v in g.history["weather"]])

try:
    update_value(g, reading("thunderstorm, road washed out", 8, "weatherService", 0.9))
except StaleWrite:
    print("re-delivery at the same tick is a stale write; state unchanged")

# two sources disagree about the same window: the certified provider wins
certified = reading("clear", 10, "weatherService", 0.9)
social = reading("apocalyptic hail", 12, "socialFeed", 0.4)
winner = resolve_conflict([social, certified])
print("conflict winner:", winner.payload, "from", winner.source_id)

# thresholds keep notification noise down
eta_threshold = NotificationThreshold("eta", "numeric-delta", theta=4)
small = ContextValue("eta@x", "eta", 43, 2, "x", 0.9)
big = ContextValue("eta@x", "eta", 72, 5, "x", 0.9)
base = ContextValue("eta@x", "eta", 40, 1, "x", 0.9)
print("eta 40 -> 43 notifies:", check_threshold(base, small, eta_threshold))
print("eta 40 -> 72 notifies:", check_threshold(base, big, eta_threshold))
