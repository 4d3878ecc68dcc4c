"""Solve X^n + A_1 X^(n-1) + ... + A_n = O inside the commutant of Q.

In the eigenbasis of Q the matrix equation splits into d independent scalar
polynomial equations g_i, one per eigenvalue; picking one distinct root of
each g_i and conjugating the resulting diagonal back gives every solution.
The total count is the product of the per-index distinct-root counts and
never exceeds n^d.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra, linalg, poly
from .errors import DimensionMismatch, EnumerationCapExceeded

DEFAULT_RESIDUAL_TOL = 1e-9
DEFAULT_ENUMERATION_CAP = 10 ** 6


@dataclass
class MatrixPolyEquation:
    """A monic matrix polynomial equation over the commutant of ctx.Q.

    coeffs lists the n coefficients from the X^(n-1) term down to the
    constant term; each entry may be a d x d matrix (a member of the
    algebra), a Polynomial (its representation polynomial), or a length-d
    vector of diagonal coordinates.
    """

    ctx: algebra.QContext
    coeffs: list

    @property
    def n(self):
        return len(self.coeffs)


def normalize_coeffs(eq):
    """The one coefficient-kind dispatch: (coords, given).

    coords is the (n, d) array whose row k holds the diagonal coordinates of
    coefficient k+1. given[k] is that coefficient as the caller's d x d
    matrix, or None when it was a Polynomial or a coordinate vector. Each
    matrix coefficient is projected with algebra.diag_coords once per call.
    """
    d = eq.ctx.d
    coords = np.empty((eq.n, d), dtype=complex)
    given = [None] * eq.n
    for k, c in enumerate(eq.coeffs):
        if isinstance(c, poly.Polynomial):
            coords[k] = c(eq.ctx.eigenvalues)
            continue
        arr = np.asarray(c, dtype=complex)
        if arr.ndim == 1:
            if arr.shape != (d,):
                raise DimensionMismatch(
                    f"coefficient {k + 1}: expected {d} diag coordinates"
                )
            coords[k] = arr
        else:
            given[k] = arr
            coords[k] = algebra.diag_coords(eq.ctx, arr)
    return coords, given


def build_scalar_polys(eq, coords=None):
    """The d monic degree-n scalar polynomials, one per eigenvalue.

    coords is the array from normalize_coeffs(eq), for a caller that has
    already normalized the coefficients.
    """
    if coords is None:
        coords, _ = normalize_coeffs(eq)
    n, d = coords.shape
    asc = np.ones((d, n + 1), dtype=complex)
    asc[:, :n] = coords[::-1].T
    return [poly.Polynomial(row) for row in asc]


class Certificate:
    """The one solution certificate, shared by solve, verify_solution and
    the CLI check.

    It checks a candidate X against the coefficient matrices: matrix
    coefficients exactly as the caller gave them, the others rebuilt as
    T diag(coords) T^-1. X passes when residual(X) <= bound(X, residual_tol).
    """

    def __init__(self, eq, normalized=None):
        coords, given = normalize_coeffs(eq) if normalized is None else normalized
        self.mats = [
            a if a is not None else algebra.from_diag_coords(eq.ctx, coords[k])
            for k, a in enumerate(given)
        ]
        self.coeff_norm = max(linalg.frobenius(a) for a in self.mats)

    def residual(self, x):
        """||X^n + A_1 X^(n-1) + ... + A_n||_F by Horner evaluation."""
        acc = x + self.mats[0]
        for a in self.mats[1:]:
            acc = acc @ x + a
        return linalg.frobenius(acc)

    def bound(self, x, residual_tol):
        """residual_tol * (1+||X||_F)^n * (1+max_k ||A_k||_F)."""
        n = len(self.mats)
        return residual_tol * (1.0 + linalg.frobenius(x)) ** n * (1.0 + self.coeff_norm)


def verify_solution(eq, x):
    """Equation residual ||X^n + sum A_k X^(n-k)||_F of a candidate X."""
    x = linalg.as_cmatrix(x)
    if x.shape != eq.ctx.Q.shape:
        raise DimensionMismatch(f"expected {eq.ctx.Q.shape}, got {x.shape}")
    return Certificate(eq).residual(x)


@dataclass
class Solution:
    indices: tuple
    u: np.ndarray
    X: np.ndarray
    residual: float


@dataclass
class SolutionSet:
    scalar_polys: list
    distinct_roots: list
    counts: list
    total: int
    solutions: list
    warnings: list = field(default_factory=list)


def _cluster(g, cluster_tol):
    tol = 1e-8 if cluster_tol is None else cluster_tol
    s = poly.scale(g)
    rs = poly.roots(g)
    clusters = poly.cluster_roots(rs, tol * s, tol, poly=g)
    # counts that move under a 4x tolerance swing mean n_i sits on the
    # numerical knife edge; report both.
    lo = len(poly.cluster_roots(rs, tol * s / 4, tol / 4))
    hi = len(poly.cluster_roots(rs, tol * s * 4, tol * 4))
    flag = None
    if lo != len(clusters) or hi != len(clusters):
        flag = (hi, lo)
    return clusters, flag


def count_solutions(eq, cluster_tol=None):
    """Per-index distinct-root counts and their product."""
    gs = build_scalar_polys(eq)
    counts = []
    for g in gs:
        clusters, _ = _cluster(g, cluster_tol)
        counts.append(len(clusters))
    return counts, math.prod(counts)


def solve(
    eq,
    cluster_tol=None,
    residual_tol=DEFAULT_RESIDUAL_TOL,
    enumeration_cap=DEFAULT_ENUMERATION_CAP,
    truncate=False,
):
    """Enumerate all solutions of the equation in the commutant of Q.

    Root tuples are enumerated lexicographically, with the distinct roots of
    each scalar polynomial sorted by (real, imag). Every candidate is built
    as T diag(u) T^-1, a member by construction, and checked by Certificate;
    residuals over the bound are reported in warnings, never dropped.
    """
    normalized = normalize_coeffs(eq)
    gs = build_scalar_polys(eq, normalized[0])
    all_clusters = []
    warnings_out = list(eq.ctx.warnings)
    for i, g in enumerate(gs):
        clusters, flag = _cluster(g, cluster_tol)
        if flag is not None:
            warnings_out.append(
                f"g_{i + 1}: distinct-root count is tolerance-sensitive "
                f"(merged {flag[0]}, split {flag[1]}, using {len(clusters)})"
            )
        all_clusters.append(clusters)
    counts = [len(c) for c in all_clusters]
    total = math.prod(counts)
    if total > enumeration_cap and not truncate:
        raise EnumerationCapExceeded(
            f"{total} solutions exceed cap {enumeration_cap}; pass truncate=True"
        )

    cert = Certificate(eq, normalized)
    solutions = []
    truncated = False
    for indices in itertools.product(*(range(c) for c in counts)):
        if len(solutions) >= enumeration_cap:
            truncated = True
            break
        u = np.array(
            [all_clusters[i][j].representative for i, j in enumerate(indices)]
        )
        x = algebra.from_diag_coords(eq.ctx, u)
        resid = cert.residual(x)
        bound = cert.bound(x, residual_tol)
        if resid > bound:
            warnings_out.append(
                f"solution {indices}: residual {resid:.3e} exceeds {bound:.3e}"
            )
        solutions.append(Solution(indices, u, x, resid))
    if truncated:
        warnings_out.append(
            f"enumeration truncated at {enumeration_cap} of {total} solutions"
        )
    return SolutionSet(gs, all_clusters, counts, total, solutions, warnings_out)
