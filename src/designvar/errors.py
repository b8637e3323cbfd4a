"""Exception hierarchy.

Two families matter downstream: validation errors (malformed specs,
violated preconditions) and numerical failures (singular systems,
non-convergence, exhausted budgets).  The CLI maps the former to exit
code 2 and the latter to exit code 3.
"""


class DesignVarError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(DesignVarError):
    """Malformed input, infeasible specification, or violated precondition."""


class InfeasibleSpecError(ValidationError):
    """Design specification is internally inconsistent (counts, dims, probs)."""


class SupportOverflowError(ValidationError):
    """A support is needed but exceeds the cap or cannot be enumerated."""


class LayoutMismatchError(ValidationError):
    """Operands disagree on (k, n) or on vector/matrix shape."""


class NonIdentifiedDesignError(ValidationError):
    """Some unit has an assignment probability of 0 or 1 for some arm."""


class NeymanPreconditionError(ValidationError):
    """The block-diagonal bound's structural preconditions do not hold."""


class NotIdentifiedBoundError(ValidationError):
    """Candidate bound matrix is nonzero at an impossible-assignment position."""


class NumericalError(DesignVarError):
    """A computation failed numerically."""


class EstimationInfeasibleError(NumericalError):
    """Realized denominator is singular (e.g. an arm with no assigned units)."""


class BudgetExceededError(NumericalError):
    """Requested computation exceeds the configured accumulation budget."""


class NonConvergenceError(NumericalError):
    """Iterative projection failed to converge within the iteration cap."""

    def __init__(self, message: str, iterations: int, last_min_eig: float):
        super().__init__(message)
        self.iterations = iterations
        self.last_min_eig = last_min_eig


class IllConditionedWarning(UserWarning):
    """A solve went through, but the system's condition number exceeds 1e12."""

    def __init__(self, cond: float):
        super().__init__(f"ill-conditioned denominator (condition number up to {cond:.3g})")
        self.cond = cond


class InfeasiblePointsWarning(UserWarning):
    """Some support points were excluded because estimation was infeasible."""
