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
)
from .poly import Polynomial

DEFAULT_TOL = 1e-8


@dataclass
class QContext:
    """A verified diagonalization of Q, shared by all algebra operations.

    provenance records where T came from: "generic" for the eigensolver,
    or a structured tag ("weighted-circulant", "circulant", "companion")
    when T is a closed form.
    """

    Q: np.ndarray
    dec: linalg.EigenDecomposition
    d: int
    distinct_tol: float
    provenance: str = "generic"
    warnings: list = field(default_factory=list)

    @property
    def eigenvalues(self):
        return self.dec.eigenvalues

    @property
    def T(self):
        return self.dec.T

    @property
    def T_inv(self):
        return self.dec.T_inv


def assemble_context(q, dec, distinct_tol, provenance="generic"):
    """The one QContext constructor, for the eigensolver and the closed forms.

    Rejects eigenvalues that linalg.check_distinct does not accept, and
    warns when cond_T exceeds 1e8, whatever produced the decomposition.
    """
    if not linalg.check_distinct(dec, distinct_tol):
        raise NotDistinctEigenvalues(
            f"minimum eigenvalue gap {dec.min_gap:.3e} below threshold"
        )
    ctx = QContext(q, dec, q.shape[0], distinct_tol, provenance)
    if dec.cond_T > 1e8:
        ctx.warnings.append(f"ill-conditioned eigenbasis: cond_T ~ {dec.cond_T:.2e}")
    return ctx


def make_context(q, distinct_tol=DEFAULT_TOL):
    """Diagonalize Q and verify its eigenvalues are numerically distinct."""
    q = linalg.as_cmatrix(q)
    return assemble_context(q, linalg.eig(q), distinct_tol)


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


def vandermonde_solve(nodes, values):
    """Solve sum_j c_j * x_i^j = v_i by the Björck–Pereyra progressive scheme.

    Falls back to LU on nearly coincident nodes (excluded upstream by the
    distinct-eigenvalue check, but cheap insurance).
    """
    x = np.asarray(nodes, dtype=complex)
    a = np.array(values, dtype=complex)
    n = len(x)
    if n != len(a):
        raise DimensionMismatch("nodes and values must have equal length")
    gap = linalg._min_gap(x)
    if n > 1 and gap < 1e-12 * max(1.0, float(np.max(np.abs(x)))):
        V = np.vander(x, increasing=True)
        return linalg.solve(V, a)
    for k in range(n - 1):
        for j in range(n - 1, k, -1):
            a[j] = (a[j] - a[j - 1]) / (x[j] - x[j - k - 1])
    for k in range(n - 2, -1, -1):
        for j in range(k, n - 1):
            a[j] -= x[k] * a[j + 1]
    return a


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

    Coefficients come from the Vandermonde system in the eigenvalues with
    the diagonal of T^-1 A T as right-hand side. Raises NotMember exactly
    when is_member(ctx, a, tol) is false; warns when the node set is badly
    conditioned.
    """
    diag = _member_diag(ctx, a, tol)
    vcond = np.linalg.cond(np.vander(ctx.eigenvalues, increasing=True))
    if vcond > 1e10:
        warnings.warn(
            f"Vandermonde system condition ~ {vcond:.2e}; coefficients may be inaccurate",
            IllConditionedWarning,
        )
    return Polynomial(vandermonde_solve(ctx.eigenvalues, diag))


def from_diag_coords(ctx, u):
    """T diag(u) T^-1: the member with the given diagonal coordinates."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (ctx.d,):
        raise DimensionMismatch(f"expected {ctx.d} coordinates, got shape {u.shape}")
    return (ctx.T * u) @ ctx.T_inv


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
