"""Exception hierarchy shared by all qcomm modules."""


class QcommError(Exception):
    """Base class for all qcomm errors."""


class DimensionMismatch(QcommError):
    """Operands have incompatible shapes."""


class SingularMatrix(QcommError):
    """A pivot fell below the singularity threshold during factorization."""


class NumericalFailure(QcommError):
    """An iterative routine failed to converge or a verification residual blew up."""


class NotDistinctEigenvalues(QcommError):
    """The matrix does not have numerically distinct eigenvalues."""


class NotMember(QcommError):
    """The matrix does not commute with Q to within tolerance."""


class ZeroPolynomial(QcommError):
    """Root finding on the identically-zero polynomial."""


class DegreeZero(QcommError):
    """Root finding on a nonzero constant polynomial."""


class ZeroWeight(QcommError):
    """A weighted-circulant weight is zero."""


class EnumerationCapExceeded(QcommError):
    """The solution count exceeds the enumeration cap and truncation was not requested."""


class ParseError(QcommError):
    """A problem file is malformed."""


class IllConditionedWarning(UserWarning):
    """A linear system solved along the way was poorly conditioned."""
