"""Solve X^n + A_1 X^(n-1) + ... + A_n = O inside the commutant of Q.

In the eigenbasis of Q the matrix equation splits into d independent scalar
polynomial equations g_i, one per eigenvalue; picking one distinct root of
each g_i and conjugating the resulting diagonal back gives every solution.
The total count is the product of the per-index distinct-root counts and
never exceeds n^d.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra, linalg, poly
from .errors import DegreeZero, DimensionMismatch, EnumerationCapExceeded

DEFAULT_RESIDUAL_TOL = 1e-9
DEFAULT_ENUMERATION_CAP = 10 ** 6
# Complex entries per stacked temporary (512 KiB each): (rows, d, d) solution
# candidates, (rows, n, n) companion and distance stacks. Block rows follow
# from it, so the working set is bounded at any d and n; the temporaries of
# one Horner step stay within a 2-4 MiB L2, and 4x larger was 25-40% slower.
_CHUNK_ENTRIES = 1 << 15


def blocks(m, entries):
    """The one block rule: consecutive slices covering range(m), each of
    max(1, _CHUNK_ENTRIES // entries) items, where one item stands for
    entries complex numbers (a d x d solution, an n x n companion, a row of T)."""
    rows = max(1, _CHUNK_ENTRIES // entries)
    return [slice(start, start + rows) for start in range(0, m, rows)]


class MatrixPolyEquation:
    """A monic matrix polynomial equation over the commutant of ctx.Q.

    coeffs lists the n coefficients from the X^(n-1) term down to the
    constant term; each entry may be a d x d matrix (a member of the
    algebra) or a length-d vector of diagonal coordinates.

    The coefficients are normalized once, here: coords is the (n, d) array
    whose row k holds the diagonal coordinates of coefficient k+1, and
    given[k] is that coefficient as the caller's d x d matrix, or None when
    it was a coordinate vector. Each matrix coefficient is projected with
    algebra.diag_coords once, so a non-member raises NotMember and a
    wrongly shaped one DimensionMismatch, as does any coefficient whose
    coordinates are not all finite.
    """

    def __init__(self, ctx, coeffs):
        if len(coeffs) == 0:
            raise DegreeZero("an equation needs at least one coefficient (degree n >= 1)")
        self.ctx = ctx
        d = ctx.d
        self.coords = np.empty((len(coeffs), d), dtype=complex)
        self.given = [None] * len(coeffs)
        for k, c in enumerate(coeffs):
            arr = np.asarray(c, dtype=complex)
            if arr.ndim == 1:
                if arr.shape != (d,):
                    raise DimensionMismatch(f"coefficient {k + 1}: expected {d} diag coordinates")
                self.coords[k] = arr
            else:
                self.given[k] = arr
                self.coords[k] = algebra.diag_coords(ctx, arr)
        if not np.isfinite(self.coords).all():
            raise DimensionMismatch("coefficients have non-finite diag coordinates")

    @property
    def n(self):
        return len(self.coords)

    @functools.cached_property
    def mats(self):
        """The coefficient matrices the certificate checks against: matrix
        coefficients exactly as the caller gave them, the others rebuilt as
        T diag(coords) T^-1. Built on first use, so counting never forms
        d x d matrices."""
        return [
            a if a is not None else algebra.from_diag_coords(self.ctx, self.coords[k])
            for k, a in enumerate(self.given)
        ]

    def certify(self, xs, residual_tol):
        """The one solution certificate, shared by solve, verify_solution
        and the CLI check: (residuals, bounds) for a (m, d, d) stack of
        candidates, each passing when its residual is within its bound.

        residuals[j] = ||X_j^n + A_1 X_j^(n-1) + ... + A_n||_F by Horner
        evaluation against mats; bounds[j] = residual_tol * (1+||X_j||_F)^n
        * (1+max_k ||A_k||_F).
        """
        mats = self.mats
        acc = xs + mats[0]
        for a in mats[1:]:
            acc = acc @ xs + a
        coeff_norm = max(linalg.frobenius(a) for a in mats)
        x_norms = np.linalg.norm(xs, axis=(1, 2))
        bounds = residual_tol * (1.0 + x_norms) ** len(mats) * (1.0 + coeff_norm)
        return np.linalg.norm(acc, axis=(1, 2)), bounds


def build_scalar_polys(eq):
    """The d monic degree-n scalar polynomials g_i, one per eigenvalue, as a
    (d, n+1) array whose row i holds the ascending coefficients of g_i."""
    n, d = eq.coords.shape
    asc = np.ones((d, n + 1), dtype=complex)
    asc[:, :n] = eq.coords[::-1].T
    return asc


def verify_solution(eq, x):
    """Equation residual ||X^n + sum A_k X^(n-k)||_F of a candidate X."""
    x = linalg.as_cmatrix(x)
    if x.shape != eq.ctx.Q.shape:
        raise DimensionMismatch(f"expected {eq.ctx.Q.shape}, got {x.shape}")
    return float(eq.certify(x[None], 0.0)[0][0])


@dataclass
class Solution:
    indices: tuple
    u: np.ndarray
    X: np.ndarray
    residual: float


@dataclass
class SolutionSet:
    """roots and multiplicities are flat, aligned with counts: index i's
    distinct roots are roots[o : o + counts[i]], o = sum(counts[:i]). Row j
    of indices (m, d), us (m, d), xs (m, d, d) and residuals (m,) holds the
    j-th of the m emitted solutions: its root indices, u, X and residual."""

    scalar_polys: np.ndarray
    roots: np.ndarray
    multiplicities: np.ndarray
    counts: list
    total: int
    indices: np.ndarray
    us: np.ndarray
    xs: np.ndarray
    residuals: np.ndarray
    warnings: list = field(default_factory=list)

    @functools.cached_property
    def solutions(self):
        """One Solution per row, built on first use; u and X are views into us and xs."""
        keys = map(tuple, self.indices.tolist())
        return list(map(Solution, keys, self.us, self.xs, self.residuals.tolist()))


def describe_count(n):
    """str(n), or "about 10^k" past the interpreter's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:
        return f"about 10^{int(n.bit_length() * math.log10(2))}"


def _clustered(asc, cluster_tol, factors):
    """For tol = cluster_tol (algebra.DEFAULT_TOL if None, else checked by
    algebra.check_option) times each of factors, poly.cluster_roots's
    (reps, mults, counts) of all rows of asc: one poly.stack_roots call per
    block of rows, and one poly.cluster_roots call per block and tolerance."""
    tol = algebra.DEFAULT_TOL if cluster_tol is None else cluster_tol
    algebra.check_option("cluster_tol", tol, "solver")
    tols = [tol * f for f in factors]
    d, n = asc.shape[0], asc.shape[1] - 1
    parts = [[] for _ in tols]
    for b in blocks(d, n ** 2):
        rs, s = poly.stack_roots(asc[b]), poly.scale(asc[b])
        for out, tol in zip(parts, tols):
            out.append(poly.cluster_roots(rs, tol * s, tol))
    return [[np.concatenate(arrays) for arrays in zip(*out)] for out in parts]


def _mixed_radix(flat, counts):
    """Row j holds the digits of flat[j] in radix counts, most significant
    first: the C order of the Cartesian product of range(c) for c in counts.

    Plain divmod rather than np.unravel_index, which rejects more than 64
    indices or a product of counts past the integer range.
    """
    idx = np.empty((len(flat), len(counts)), dtype=np.intp)
    for i in range(len(counts) - 1, -1, -1):
        flat, idx[:, i] = np.divmod(flat, counts[i])
    return idx


def count_solutions(eq, cluster_tol=None):
    """Per-index distinct-root counts and their product."""
    counts = _clustered(build_scalar_polys(eq), cluster_tol, [1])[0][2].tolist()
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
    each scalar polynomial sorted by (real, imag); the result carries them
    as the flat roots and multiplicities arrays poly.cluster_roots returns.
    The solutions are SolutionSet's four arrays, with X and residuals filled
    in chunks: each chunk is a stack of candidates T diag(u) T^-1, members by
    construction, formed by one algebra.from_diag_coords call and checked by
    one eq.certify call; no per-solution object is built. Residuals over the
    bound are reported in warnings, never dropped. algebra.check_option checks
    cluster_tol and enumeration_cap, not residual_tol: NaN flags every solution.
    """
    algebra.check_option("enumeration_cap", enumeration_cap, "solver")
    gs = build_scalar_polys(eq)
    # a count that moves at 4x or 1/4 of tol sits on the numerical knife edge
    (reps, mults, counts), (*_, merged), (*_, split) = _clustered(gs, cluster_tol, [1, 4, 1 / 4])
    counts = counts.tolist()
    warnings_out = list(eq.ctx.warnings)
    for i, (count, hi, lo) in enumerate(zip(counts, merged, split)):
        if not hi == lo == count:
            warnings_out.append(
                f"g_{i + 1}: distinct-root count is tolerance-sensitive "
                f"(merged {hi}, split {lo}, using {count})"
            )
    total = math.prod(counts)
    if total > enumeration_cap and not truncate:
        raise EnumerationCapExceeded(
            f"{describe_count(total)} solutions exceed cap {describe_count(enumeration_cap)}; "
            "pass truncate=True", total=total, cap=enumeration_cap,
        )

    indices = _mixed_radix(np.arange(min(total, enumeration_cap)), counts)
    us = reps[indices + np.cumsum([0] + counts[:-1])]  # index i's roots start at sum(counts[:i])
    xs = np.empty(us.shape + us.shape[-1:], dtype=complex)
    residuals, bounds = np.empty(len(us)), np.empty(len(us))
    for b in blocks(len(us), eq.ctx.d ** 2):
        xs[b] = algebra.from_diag_coords(eq.ctx, us[b])
        residuals[b], bounds[b] = eq.certify(xs[b], residual_tol)
    for j in np.nonzero(~(residuals <= bounds))[0]:
        key = tuple(indices[j].tolist())
        warnings_out.append(f"solution {key}: residual {residuals[j]:.3e} exceeds {bounds[j]:.3e}")
    if total > enumeration_cap:
        warnings_out.append(
            f"enumeration truncated at {enumeration_cap} of {describe_count(total)} solutions"
        )
    return SolutionSet(gs, reps, mults, counts, total, indices, us, xs, residuals, warnings_out)
