"""qcomm: polynomial matrix equations over the commutant of a matrix Q.

Given a d x d complex Q with d distinct eigenvalues, any monic equation
X^n + A_1 X^(n-1) + ... + A_n = O whose coefficients commute with Q reduces
to d independent scalar polynomial equations in the eigenbasis of Q; this
package builds those scalar equations, finds and clusters their roots, and
enumerates every solution matrix with a residual certificate.
"""

from . import algebra, linalg, poly, problems, solver, structured
from .algebra import (
    QContext,
    diag_coords,
    from_diag_coords,
    from_repr_poly,
    is_member,
    make_context,
    repr_poly,
)
from .errors import (
    DegreeZero,
    DimensionMismatch,
    EnumerationCapExceeded,
    NotDistinctEigenvalues,
    NotMember,
    NumericalFailure,
    ParseError,
    QcommError,
    SingularMatrix,
    ZeroPolynomial,
    ZeroWeight,
)
from .poly import cluster_roots, roots
from .solver import (
    MatrixPolyEquation,
    SolutionSet,
    build_scalar_polys,
    count_solutions,
    solve,
    verify_solution,
)
from .structured import (
    WeightedCirculantSpec,
    circulant_context,
    companion_context,
    companion_matrix,
    dft_matrix,
    weighted_circulant_context,
    weighted_circulant_matrix,
)

__version__ = "0.1.0"
