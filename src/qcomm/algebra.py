"""The commutant algebra of a matrix Q with distinct eigenvalues.

Every matrix commuting with Q is a polynomial in Q of degree <= d-1, and in
the eigenbasis of Q the whole algebra becomes diagonal: a member is fully
described by its d diagonal coordinates (the values of its representation
polynomial at the eigenvalues). This module converts between the three
views: matrix, representation polynomial, diagonal coordinates.
"""

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    IllConditionedWarning,
    NotDistinctEigenvalues,
    NotMember,
    NumericalFailure,
    ParseError,
    SingularMatrix,
)
from .poly import evaluate, trim

DEFAULT_TOL = 1e-8
# diag_coords' membership tolerance, looser than DEFAULT_TOL: a coefficient built in
# floating point commutes with Q only up to rounding, and the equation uses its projection.
PROJECTION_TOL = 1e-6
INDEX_MAX = int(np.iinfo(np.intp).max)  # the largest row count numpy can index


def _finite(x):
    """Whether x is a number (int or float, not bool) with a finite float value."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer past the float range
        return False


def check_option(key, v, where="options"):
    """v, checked as the value of key from a problem file, a flag or a library call:
    cap, enumeration_cap and degree must be integers in [1, INDEX_MAX], cluster_tol a finite
    positive number, the other tolerances finite non-negative numbers. A bad value raises
    ParseError naming its key."""
    name = repr(key) if key == "degree" else f"option {key!r}"
    if key in ("cap", "enumeration_cap", "degree"):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
            raise ParseError(f"{where}: {name} must be a positive integer")
        if v > INDEX_MAX:
            raise ParseError(f"{where}: {name} must be at most {INDEX_MAX}")
    elif not (_finite(v) and (v > 0 if key == "cluster_tol" else v >= 0)):
        rule = "positive" if key == "cluster_tol" else "non-negative"
        raise ParseError(f"{where}: {name} must be a finite {rule} number")
    return v


@dataclass
class QContext:
    """A verified diagonalization Q = T diag(eigenvalues) T^-1, shared by
    all algebra operations.

    cond_T is the cheap ||T||_1 * ||T^-1||_1 estimate, used only for
    warnings; min_gap is the minimum pairwise eigenvalue distance (inf for
    d = 1). provenance records where T came from: "generic" for the
    eigensolver, or a structured tag ("weighted-circulant", "circulant",
    "companion") when T is a closed form. A closed form may also set
    shift = (w, y), Q = diag(w) P + e_d y^T with P[i, (i+1) % d] = 1 the cyclic
    shift (y None for 0), and dft_scale = s, T^-1 = F diag(1/s); None means dense.
    """

    Q: np.ndarray
    eigenvalues: np.ndarray
    T: np.ndarray
    T_inv: np.ndarray
    cond_T: float
    min_gap: float
    provenance: str = "generic"
    warnings: list = field(default_factory=list)
    shift: tuple = None
    dft_scale: np.ndarray = None

    @property
    def d(self):
        return self.Q.shape[0]

    @functools.cached_property
    def verification_residual(self):
        """||T^-1 Q T - diag(eigenvalues)||_F, computed on first use only."""
        return linalg.frobenius(self.T_inv @ self.Q @ self.T - np.diag(self.eigenvalues))

    def products(self, a):
        """(A Q, Q A): O(d^2) in the shift form, two dense products otherwise."""
        if self.shift is None:
            return a @ self.Q, self.Q @ a
        w, y = self.shift
        aq, qa = np.roll(a * w, 1, axis=1), np.roll(a, -1, axis=0)
        qa *= w[:, None]
        if y is not None:
            aq += np.outer(a[:, -1], y)
            qa[-1] += y @ a
        return aq, qa

    def apply_T_inv(self, b):
        """T^-1 B: F (B / s) as one unitary inverse FFT down the columns, else dense."""
        if self.dft_scale is None:
            return self.T_inv @ b
        return np.fft.ifft(b / self.dft_scale[:, None], axis=0, norm="ortho")


def assemble_context(q, eigs, T, T_inv, distinct_tol, provenance, shift=None, dft_scale=None):
    """The one QContext constructor, for the eigensolver and the closed forms.

    Raises NumericalFailure when Q, the eigenvalues, T or T_inv have a
    non-finite entry (a computation overflowed), then rejects eigenvalues
    that linalg.check_distinct does not accept, and warns when cond_T
    exceeds 1e8, whatever produced the basis. T_inv=None inverts T by
    pivoted LU once both checks have passed (coincident eigenvalues make T
    singular). distinct_tol is checked first, by check_option.
    """
    check_option("distinct_tol", distinct_tol, f"{provenance} context")
    eigs = np.asarray(eigs, dtype=complex)
    if not all(np.isfinite(a).all() for a in (q, eigs, T, T_inv) if a is not None):
        raise NumericalFailure(f"{provenance} diagonalization has non-finite entries")
    ok, gap = linalg.check_distinct(eigs, distinct_tol)
    if not ok:
        raise NotDistinctEigenvalues(f"minimum eigenvalue gap {gap:.3e} below threshold")
    if T_inv is None:
        T_inv = linalg.inverse(T)
    cond_T = float(np.linalg.norm(T, 1) * np.linalg.norm(T_inv, 1))
    ctx = QContext(q, eigs, T, T_inv, cond_T, gap, provenance, shift=shift, dft_scale=dft_scale)
    if cond_T > 1e8:
        ctx.warnings.append(f"ill-conditioned eigenbasis: cond_T ~ {cond_T:.2e}")
    return ctx


def make_context(q, distinct_tol=DEFAULT_TOL):
    """Diagonalize Q and verify its eigenvalues are numerically distinct. T
    is inverted first: a defective Q, whose eigenvalues can come out with a
    gap of exactly 0, raises SingularMatrix for its eigenbasis."""
    q = linalg.as_cmatrix(q)
    eigs, T = linalg.eig(q)
    try:
        T_inv = linalg.inverse(T)
    except SingularMatrix as exc:
        gap = linalg.min_gap(eigs)
        msg = f"eigenbasis of Q is singular ({exc}; minimum eigenvalue gap {gap:.3e})"
        raise SingularMatrix(f"{msg}: Q is defective or nearly so") from exc
    return assemble_context(q, eigs, T, T_inv, distinct_tol, "generic")


def commutator(ctx, a):
    """The one membership rule's residual and scale for A.

    Returns (||AQ - QA||_F, (1+||A||_F) * (1+||Q||_F)); A is a member at
    tolerance tol iff residual <= tol * scale.
    """
    a = linalg.as_cmatrix(a)
    q = ctx.Q
    if a.shape != q.shape:
        raise DimensionMismatch(f"expected {q.shape}, got {a.shape}")
    scale = (1.0 + linalg.frobenius(a)) * (1.0 + linalg.frobenius(q))
    aq, qa = ctx.products(a)
    return linalg.frobenius(np.subtract(aq, qa, out=aq)), scale


def is_member(ctx, a):
    """True iff ||AQ - QA||_F <= DEFAULT_TOL * (1+||A||_F) * (1+||Q||_F)."""
    resid, scale = commutator(ctx, a)
    return resid <= DEFAULT_TOL * scale


def _member_diag(ctx, a, tol):
    """Diagonal of T^-1 A T once commutator's residual is at most tol * scale; else
    NotMember carries that residual and the bound tol * scale."""
    resid, scale = commutator(ctx, a)
    if not resid <= tol * scale:
        raise NotMember("matrix does not commute with Q", residual=resid, bound=tol * scale)
    return np.einsum("ij,ji->i", ctx.apply_T_inv(a), ctx.T)


def diag_coords(ctx, a):
    """Diagonal of T^-1 A T, in eigenvalue order, once A is a member at PROJECTION_TOL."""
    return _member_diag(ctx, a, PROJECTION_TOL)


def repr_poly(ctx, a):
    """Representation polynomial of a member: the poly.trim'd ascending
    coefficients of the unique degree <= d-1 polynomial f with A = f(Q).

    Coefficients solve the Vandermonde system in the eigenvalues, with the
    diagonal of T^-1 A T as right-hand side, by pivoted LU with no
    pivot-size gate (the distinct-eigenvalue check already rules out a
    singular system, and Vandermonde rows differ in scale by up to
    max|eigenvalue|^(d-1)). Raises NotMember exactly when
    is_member(ctx, a) is false; warns when the node set is badly
    conditioned.
    """
    diag = _member_diag(ctx, a, DEFAULT_TOL)
    V = np.vander(ctx.eigenvalues, increasing=True)
    vcond = np.linalg.cond(V)
    if vcond > 1e10:
        warnings.warn(
            f"Vandermonde system condition ~ {vcond:.2e}; coefficients may be inaccurate",
            IllConditionedWarning,
        )
    try:
        return trim(np.linalg.solve(V, diag))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"Vandermonde system: {exc}") from exc


def from_diag_coords(ctx, u):
    """T diag(u) T^-1: the member with the given diagonal coordinates.

    u has shape (d,) for one member or (..., d) for a stack of them; the
    result has shape (..., d, d).
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim == 0 or u.shape[-1] != ctx.d:
        raise DimensionMismatch(f"expected {ctx.d} coordinates, got shape {u.shape}")
    return (ctx.T * u[..., None, :]) @ ctx.T_inv


def from_repr_poly(ctx, c):
    """Ascending coefficients c evaluated at Q: the member whose diagonal coordinates
    are c's values at the eigenvalues, for any length of c (Cayley–Hamilton)."""
    return from_diag_coords(ctx, evaluate(c, ctx.eigenvalues))
