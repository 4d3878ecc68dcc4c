"""Exception hierarchy shared by all qcomm modules."""


class QcommError(Exception):
    """Base class for all qcomm errors."""


class DimensionMismatch(QcommError):
    """Operands have incompatible shapes."""


class SingularMatrix(QcommError):
    """An inverse met an exactly zero pivot, or d * eps * cond_1 >= 1."""


class NumericalFailure(QcommError):
    """An iterative routine failed to converge or a verification residual blew up."""


class NotDistinctEigenvalues(QcommError):
    """The matrix does not have numerically distinct eigenvalues."""


class NotMember(QcommError):
    """The matrix does not commute with Q to within tolerance; see residual and bound."""

    def __init__(self, message, residual=None, bound=None):
        super().__init__(message)
        self.residual, self.bound = residual, bound


class ZeroPolynomial(QcommError):
    """Root finding on the identically-zero polynomial."""


class DegreeZero(QcommError):
    """Root finding on a nonzero constant polynomial."""


class ZeroWeight(QcommError):
    """A weighted-circulant weight is zero."""


class EnumerationCapExceeded(QcommError):
    """The solution count exceeds the cap and truncation was not requested; see total and cap."""

    def __init__(self, message, total=None, cap=None):
        super().__init__(message)
        self.total, self.cap = total, cap


class ParseError(QcommError):
    """A problem file, command-line flag or library option has a malformed or out-of-range value."""


class IllConditionedWarning(UserWarning):
    """A linear system solved along the way was poorly conditioned."""
