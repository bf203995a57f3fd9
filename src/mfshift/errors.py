"""Exception types shared across the package."""


class MfShiftError(Exception):
    """Base class for all package errors."""


class BudgetExceeded(MfShiftError):
    """Word or class enumeration would exceed the configured evaluation budget."""


class DepthExceedsBudget(BudgetExceeded):
    """Tail enumeration for a deep potential exceeds the budget."""


class DepthUnsupported(MfShiftError):
    """Operation requested at a potential depth it does not support."""


class BracketFailure(MfShiftError):
    """Root bracketing failed; input is non-monotone or degenerate."""


class AllEmpty(MfShiftError):
    """Every coefficient in the inspected tail is an empty (log 0) sum."""


class ScheduleTooShort(MfShiftError):
    """Shrinking-target extrapolation needs at least three radii."""


class InfeasibleConstraint(MfShiftError):
    """No candidate in the search family satisfies the target constraint."""


class ParseError(MfShiftError):
    """Input document could not be parsed."""


class ValidationError(MfShiftError):
    """Parsed input violates a model invariant."""
