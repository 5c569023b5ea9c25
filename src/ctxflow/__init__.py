"""Context-aware business process execution.

A process engine, a rules engine and a context engine cooperate over a
deterministic message choreography: running process instances adapt
(variant selection, break, rollback, compensation) to context changes
delivered by simulated external systems.
"""

from .context_engine import (
    ContextEngine,
    NotificationThreshold,
    check_threshold,
    resolve_conflict,
)
from .model import (
    Additions,
    ContextCategory,
    ContextIntersection,
    ContextValue,
    InstanceContextModel,
    MasterContextModel,
    extend,
    instantiate_from_master,
    is_subgraph,
    relevant_subgraph,
    update_value,
    validate_intersection,
)
from .propagation import CauseEffectRelation, DerivationAgent
from .rule_dsl import Rule, parse_rule, pretty_print
from .scenario import (
    Scenario,
    build_simulation,
    load_scenario_data,
    parse_scenario,
    run_scenario_data,
)
from .trace import Trace, TraceRecord, replay_verify

__version__ = "0.1.0"

__all__ = [
    "Additions",
    "CauseEffectRelation",
    "ContextCategory",
    "ContextEngine",
    "ContextIntersection",
    "ContextValue",
    "DerivationAgent",
    "InstanceContextModel",
    "MasterContextModel",
    "NotificationThreshold",
    "Rule",
    "Scenario",
    "Trace",
    "TraceRecord",
    "build_simulation",
    "check_threshold",
    "extend",
    "instantiate_from_master",
    "is_subgraph",
    "load_scenario_data",
    "parse_rule",
    "parse_scenario",
    "pretty_print",
    "relevant_subgraph",
    "replay_verify",
    "resolve_conflict",
    "run_scenario_data",
    "update_value",
    "validate_intersection",
]
