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

    def derivative(self):
        if len(self.coeffs) <= 1:
            return Polynomial([])
        j = np.arange(1, len(self.coeffs))
        return Polynomial(self.coeffs[1:] * j)

    def monic(self):
        if self.degree < 0:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        return Polynomial(self.coeffs / self.coeffs[-1])

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"


def from_roots(rs):
    """Monic polynomial with the given roots, by incremental factor expansion."""
    coeffs = np.array([1.0 + 0.0j])
    for r in rs:
        coeffs = np.concatenate(([0.0j], coeffs)) - r * np.concatenate((coeffs, [0.0j]))
    return Polynomial(coeffs)


def scale(p):
    """Coefficient-magnitude normalizer: max(1, max|c_j| / |leading|)."""
    if p.degree < 0:
        return 1.0
    return max(1.0, float(np.max(np.abs(p.coeffs)) / abs(p.coeffs[-1])))


def roots(p):
    """All ``degree(p)`` roots, counted with multiplicity.

    Eigenvalues of the companion matrix, then one Newton polishing pass on
    the original polynomial. Raises ZeroPolynomial / DegreeZero on
    degenerate input, which in the solver pipeline signals a broken monic
    scalar equation rather than a valid empty answer.
    """
    if p.degree < 0:
        raise ZeroPolynomial("zero polynomial has no well-defined root set")
    if p.degree == 0:
        raise DegreeZero("nonzero constant polynomial has no roots")
    c = p.monic().coeffs
    n = p.degree
    comp = np.zeros((n, n), dtype=complex)
    if n > 1:
        comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -c[:-1]
    rs = np.linalg.eigvals(comp)
    dp = p.derivative()
    pv = p(rs)
    dv = dp(rs)
    safe = np.where(np.abs(dv) > 0, dv, 1.0)
    step = np.where(np.abs(dv) > 0, pv / safe, 0.0)
    return rs - step


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
    """
    rs = np.asarray(rs, dtype=complex)
    m = len(rs)
    mag = np.abs(rs)
    near = np.abs(rs[:, None] - rs) <= tol_abs + tol_rel * np.maximum(mag[:, None], mag)
    np.fill_diagonal(near, True)
    # Each root takes the smallest label among its neighbours until nothing
    # moves; every root then carries the smallest index of its component.
    # (initial=m only matters when there are no roots.)
    labels = np.arange(m)
    while True:
        spread = np.where(near, labels, m).min(axis=1, initial=m)
        if (spread == labels).all():
            break
        labels = spread
    groups = {}
    for i, head in enumerate(labels.tolist()):
        groups.setdefault(head, []).append(i)
    clusters = []
    for members in groups.values():
        # np.mean's own arithmetic, without its call overhead
        rep = complex(rs[members].sum() / len(members))
        clusters.append(RootCluster(rep, len(members)))
    clusters.sort(key=lambda c: (c.representative.real, c.representative.imag))
    return clusters
