"""Exception and warning types shared across the package."""


class ParseError(ValueError):
    """A Matrix Market stream is malformed."""


class UnsupportedFormat(ParseError):
    """A Matrix Market field or symmetry this package does not handle."""


class NotPositiveDefinite(ValueError):
    """A matrix required to be positive definite is not.

    ``which`` names the offending argument when the caller knows it.
    """

    def __init__(self, message="matrix is not positive definite", which=None):
        super().__init__(message)
        self.which = which


class Breakdown(ArithmeticError):
    """Incomplete Cholesky hit a nonpositive pivot.  Carries the row index."""

    def __init__(self, row, message=None):
        super().__init__(message or f"nonpositive pivot in row {row}")
        self.row = row


class EigenvalueOutOfDomain(ValueError):
    """An eigenvalue fell outside (-1, inf), where the selection curves live."""


class NoConvergence(RuntimeError):
    """An iterative eigensolver exhausted its restart budget.

    ``estimate`` carries the partial eigenvalue estimate, which builders
    may keep (with a ``partial:`` note) instead of failing.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class InfeasibleLowRank(ValueError):
    """A low-rank term has a non-finite entry or an eigenvalue at or below -1,
    so I + W is not SPD."""


class IndefinitePreconditionerDetected(ArithmeticError):
    """PCG observed <z, r> that is not positive (NaN included), impossible
    with an SPD preconditioner."""


class CapExceeded(ValueError):
    """A dense materialization was requested above the configured size cap."""


class RankCollapse(UserWarning):
    """A sketch core had fewer usable eigenvalues than the requested rank."""
