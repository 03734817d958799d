"""Exception types shared across the package.

Every domain error carries a stable machine-readable ``code`` that the CLI
reports in its error JSON.
"""


class LatSimplexError(Exception):
    code = "error"


class InvalidInput(LatSimplexError):
    """Malformed input or an out-of-range argument, rejected before any work."""

    code = "invalid-input"


class DimensionMismatch(LatSimplexError):
    code = "dimension-mismatch"


class DenominatorMismatch(LatSimplexError):
    code = "denominator-mismatch"


class GroupTooLarge(LatSimplexError):
    code = "group-too-large"


class NonIntegralHeights(LatSimplexError):
    code = "non-integral-heights"


class HypothesesNotMet(LatSimplexError):
    code = "hypotheses-not-met"


class EmptySubset(LatSimplexError):
    code = "empty-subset"


class SolverCapExceeded(LatSimplexError):
    code = "solver-cap-exceeded"


class CanonicalizationBudgetExceeded(LatSimplexError):
    code = "canonicalization-budget-exceeded"


class BudgetExceeded(LatSimplexError):
    code = "budget-exceeded"

    def __init__(self, message: str, partial_report=None):
        super().__init__(message)
        self.partial_report = partial_report


class InconsistentCounts(LatSimplexError):
    code = "inconsistent-counts"


class DegenerateSimplex(LatSimplexError):
    code = "degenerate-simplex"


class RankDeficient(LatSimplexError):
    code = "rank-deficient"
