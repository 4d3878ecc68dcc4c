"""Complex univariate polynomials: evaluation, root finding, root clustering.

Coefficients are stored in ascending order: coeffs[j] multiplies x**j.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegreeZero, ZeroPolynomial


class Polynomial:
    """Dense complex polynomial with ascending coefficients.

    Trailing (high-order) zero coefficients are trimmed at construction,
    so the leading coefficient is nonzero unless the polynomial is
    identically zero (empty coefficient vector).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        nz = np.nonzero(c)[0]
        self.coeffs = c[: nz[-1] + 1] if nz.size else c[:0]

    @property
    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, z):
        """Evaluate at ``z`` (scalar or array) by Horner's scheme."""
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc if acc.shape else complex(acc)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"


def from_roots(rs):
    """Monic polynomial with the given roots, by incremental factor expansion."""
    coeffs = np.array([1.0 + 0.0j])
    for r in rs:
        coeffs = np.concatenate(([0.0j], coeffs)) - r * np.concatenate((coeffs, [0.0j]))
    return Polynomial(coeffs)


def scale(c):
    """Coefficient-magnitude normalizer of ascending coefficient rows with
    nonzero leading coefficients: max(1, max|c_j| / |leading|) per row."""
    c = np.asarray(c)
    return np.maximum(1.0, np.abs(c).max(axis=-1) / np.abs(c[..., -1]))


def stack_roots(asc):
    """All n roots of each row of a (rows, n+1) stack of ascending
    coefficients with nonzero leading coefficients, n >= 1: one
    np.linalg.eigvals call on the (rows, n, n) companion stack, then one
    Newton step with each row and its derivative evaluated by Horner."""
    asc = np.asarray(asc, dtype=complex)
    n = asc.shape[1] - 1
    comp = np.zeros((len(asc), n, n), dtype=complex)
    comp[:, 1:, :-1] = np.eye(n - 1)
    comp[:, :, -1] = -(asc[:, :-1] / asc[:, -1:])
    rs = np.linalg.eigvals(comp)
    pv, dv = np.zeros_like(rs), np.zeros_like(rs)
    for j in range(n, -1, -1):
        pv = pv * rs + asc[:, j, None]
        if j:
            dv = dv * rs + asc[:, j, None] * j
    safe = np.where(np.abs(dv) > 0, dv, 1.0)
    return rs - np.where(np.abs(dv) > 0, pv / safe, 0.0)


def roots(p):
    """All ``degree(p)`` roots of a Polynomial, counted with multiplicity, by
    stack_roots; raises ZeroPolynomial / DegreeZero on degenerate input."""
    if p.degree < 0:
        raise ZeroPolynomial("zero polynomial has no well-defined root set")
    if p.degree == 0:
        raise DegreeZero("nonzero constant polynomial has no roots")
    return stack_roots(p.coeffs[None])[0]


@dataclass
class RootCluster:
    """A group of numerically coincident roots.

    representative is the mean of the members (multiplicity-weighted,
    order-independent).
    """

    representative: complex
    multiplicity: int


def cluster_roots(rs, tol_abs, tol_rel):
    """Partition roots into clusters by single-linkage proximity.

    Two roots join one cluster iff some chain connects them with each link
    shorter than tol_abs + tol_rel * max(|r1|, |r2|). Clusters are sorted
    by (real, imag) of their representative, so output order does not
    depend on input order.

    rs is one root vector, giving one cluster list, or a (rows, m) stack
    with one tol_abs per row (or one for all), giving one list per row.
    """
    rs = np.asarray(rs, dtype=complex)
    if rs.ndim == 1:
        return cluster_roots(rs[None], tol_abs, tol_rel)[0]
    m = rs.shape[1]
    mag = np.abs(rs)
    reach = np.reshape(tol_abs, (-1, 1, 1)) + tol_rel * np.maximum(mag[:, :, None], mag[:, None])
    near = np.abs(rs[:, :, None] - rs[:, None]) <= reach
    near[:, np.arange(m), np.arange(m)] = True
    # Each root takes the smallest label among its neighbours until nothing
    # moves; every root then carries the smallest index of its component.
    # (initial=m only matters when there are no roots.)
    labels = np.arange(m)
    while True:
        spread = np.where(near, labels[..., None, :], m).min(axis=-1, initial=m)
        if (spread == labels).all():
            break
        labels = spread
    out = []
    for row, heads in zip(rs, np.broadcast_to(labels, rs.shape).tolist()):
        groups = {}
        for i, head in enumerate(heads):
            groups.setdefault(head, []).append(i)
        # np.mean's own arithmetic, without its call overhead
        clusters = [RootCluster(complex(row[g].sum() / len(g)), len(g)) for g in groups.values()]
        clusters.sort(key=lambda c: (c.representative.real, c.representative.imag))
        out.append(clusters)
    return out
