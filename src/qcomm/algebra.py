"""The commutant algebra of a matrix Q with distinct eigenvalues.

Every matrix commuting with Q is a polynomial in Q of degree <= d-1, and in
the eigenbasis of Q the whole algebra becomes diagonal: a member is fully
described by its d diagonal coordinates (the values of its representation
polynomial at the eigenvalues). This module converts between the three
views: matrix, representation polynomial, diagonal coordinates.
"""

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
    SingularMatrix,
)
from .poly import Polynomial

DEFAULT_TOL = 1e-8


@dataclass
class QContext:
    """A verified diagonalization Q = T diag(eigenvalues) T^-1, shared by
    all algebra operations.

    cond_T is the cheap ||T||_1 * ||T^-1||_1 estimate, used only for
    warnings; min_gap is the minimum pairwise eigenvalue distance (inf for
    d = 1). provenance records where T came from: "generic" for the
    eigensolver, or a structured tag ("weighted-circulant", "circulant",
    "companion") when T is a closed form.
    """

    Q: np.ndarray
    eigenvalues: np.ndarray
    T: np.ndarray
    T_inv: np.ndarray
    cond_T: float
    min_gap: float
    provenance: str = "generic"
    warnings: list = field(default_factory=list)

    @property
    def d(self):
        return self.Q.shape[0]


def assemble_context(q, eigs, T, T_inv, distinct_tol, provenance="generic"):
    """The one QContext constructor, for the eigensolver and the closed forms.

    Raises NumericalFailure when Q, the eigenvalues, T or T_inv have a
    non-finite entry (a computation overflowed), then rejects eigenvalues
    that linalg.check_distinct does not accept, and warns when cond_T
    exceeds 1e8, whatever produced the basis. T_inv=None inverts T by
    pivoted LU once both checks have passed (coincident eigenvalues make T
    singular).
    """
    eigs = np.asarray(eigs, dtype=complex)
    if not all(np.isfinite(a).all() for a in (q, eigs, T, T_inv) if a is not None):
        raise NumericalFailure(f"{provenance} diagonalization has non-finite entries")
    ok, gap = linalg.check_distinct(eigs, distinct_tol)
    if not ok:
        raise NotDistinctEigenvalues(f"minimum eigenvalue gap {gap:.3e} below threshold")
    if T_inv is None:
        T_inv = linalg.inverse(T)
    cond_T = float(np.linalg.norm(T, 1) * np.linalg.norm(T_inv, 1))
    ctx = QContext(q, eigs, T, T_inv, cond_T, gap, provenance)
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
    return assemble_context(q, eigs, T, T_inv, distinct_tol)


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
    return linalg.frobenius(a @ q - q @ a), scale


def is_member(ctx, a, tol=DEFAULT_TOL):
    """True iff ||AQ - QA||_F <= tol * (1+||A||_F) * (1+||Q||_F)."""
    resid, scale = commutator(ctx, a)
    return resid <= tol * scale


def _member_diag(ctx, a, tol):
    """Diagonal of T^-1 A T after is_member(ctx, a, tol) accepts A."""
    if not is_member(ctx, a, tol):
        raise NotMember("matrix does not commute with Q")
    return np.einsum("ij,ji->i", ctx.T_inv @ a, ctx.T)


def diag_coords(ctx, a, tol=DEFAULT_TOL):
    """Diagonal of T^-1 A T, in the context's eigenvalue order.

    This is the forgiving projection used for equation coefficients: the
    membership test runs at max(tol, 1e-6), so near-members are projected
    onto the algebra and gross commutation failure raises NotMember.
    """
    return _member_diag(ctx, a, max(tol, 1e-6))


def repr_poly(ctx, a, tol=DEFAULT_TOL):
    """Representation polynomial of a member: the unique degree <= d-1
    polynomial f with A = f(Q).

    Coefficients solve the Vandermonde system in the eigenvalues, with the
    diagonal of T^-1 A T as right-hand side, by pivoted LU with no
    pivot-size gate (the distinct-eigenvalue check already rules out a
    singular system, and Vandermonde rows differ in scale by up to
    max|eigenvalue|^(d-1)). Raises NotMember exactly when
    is_member(ctx, a, tol) is false; warns when the node set is badly
    conditioned.
    """
    diag = _member_diag(ctx, a, tol)
    V = np.vander(ctx.eigenvalues, increasing=True)
    vcond = np.linalg.cond(V)
    if vcond > 1e10:
        warnings.warn(
            f"Vandermonde system condition ~ {vcond:.2e}; coefficients may be inaccurate",
            IllConditionedWarning,
        )
    try:
        return Polynomial(np.linalg.solve(V, diag))
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


def from_repr_poly(ctx, p):
    """Evaluate a polynomial at Q.

    Degree <= d-1 uses the Horner sum in powers of Q directly; higher
    degrees are reduced by evaluating at the eigenvalues and rebuilding from
    diagonal coordinates, which is the same member by Cayley–Hamilton and
    numerically steadier than forming Q**d.
    """
    if not isinstance(p, Polynomial):
        p = Polynomial(p)
    if p.degree >= ctx.d:
        return from_diag_coords(ctx, p(ctx.eigenvalues))
    eye = np.eye(ctx.d, dtype=complex)
    acc = np.zeros_like(ctx.Q)
    for c in p.coeffs[::-1]:
        acc = acc @ ctx.Q + c * eye
    return acc
