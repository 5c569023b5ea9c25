"""Exception types shared across the engines.

Validation findings are data (reports), not exceptions; everything here
signals a contract breach by the caller or a scripted fault.
"""


class CtxflowError(Exception):
    """Base class for all ctxflow errors."""


# --- context model ---------------------------------------------------------

class InvalidInput(CtxflowError):
    """A graph handed to a structural operation failed validation."""


class InvalidMaster(CtxflowError):
    """Master model failed validation at instantiation time."""


class EmptyBinding(CtxflowError):
    """Instance model created without any bound process instances."""


class DeletionRejected(CtxflowError):
    """Extension implied removing or relocating a category or edge."""


class LevelViolation(CtxflowError):
    """New edge does not run from a strictly lower to a higher level."""


class StepBudgetExceeded(CtxflowError):
    """Extension would push the configuration path past its step budget."""


class UnknownCategory(CtxflowError):
    """Referenced category is not part of the graph (or catalog)."""


class KindMismatch(CtxflowError):
    """Payload does not match the category's declared value kind."""


class StaleWrite(CtxflowError):
    """Update carries a timestamp not newer than the stored value's."""


# --- context engine --------------------------------------------------------

class UnknownMaster(CtxflowError):
    pass


class UnknownSharedModel(CtxflowError):
    pass


class DuplicateRegistration(CtxflowError):
    pass


class UnknownModel(CtxflowError):
    pass


class UnknownRegistration(CtxflowError):
    pass


# --- rules -----------------------------------------------------------------

class RuleSyntaxError(CtxflowError):
    """Rule text rejected by the DSL parser; carries line/column."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class RuleTypeError(CtxflowError):
    """Condition compares incompatible operand kinds."""


class MissingContext(CtxflowError):
    """Snapshot lacks a category the gate's rules reference."""


class StaleContext(CtxflowError):
    """A required-freshness bound was violated for every applicable rule."""


# --- process engine --------------------------------------------------------

class AuthFailed(CtxflowError):
    pass


# --- choreography / harness ------------------------------------------------

class ForbiddenRoute(CtxflowError):
    """Process engine and context engine may not talk directly."""


class ScenarioParseError(CtxflowError):
    """Scenario file is not syntactically readable."""
