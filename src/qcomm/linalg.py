"""Dense complex matrix kernel.

Matrices are plain numpy arrays of dtype complex. This module wraps the
LAPACK-backed numpy routines behind the error and determinism contracts the
rest of the package relies on: sorted eigenvalues, phase-fixed eigenvectors,
explicit singularity detection in the one inverse.
"""

import numpy as np

from .errors import DimensionMismatch, NumericalFailure, SingularMatrix


def as_cmatrix(a):
    """Coerce to a 2-D complex array, validating shape and finiteness."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch("matrix has non-finite entries")
    return a


def frobenius(a):
    return float(np.linalg.norm(np.asarray(a, dtype=complex), "fro"))


def inverse(a):
    """a^-1 by pivoted LU.

    Raises SingularMatrix when LAPACK meets an exactly zero pivot, or when
    the 1-norm reciprocal condition falls to d * eps, that is, when
    d * eps * ||a||_1 * ||a^-1||_1 >= 1.
    """
    a = as_cmatrix(a)
    d = a.shape[0]
    if d != a.shape[1]:
        raise DimensionMismatch("inverse needs a square matrix")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("exactly zero pivot") from exc
    # "not <" also rejects a NaN product, as from an inverse that overflowed
    if not d * np.finfo(float).eps * np.linalg.norm(a, 1) * np.linalg.norm(inv, 1) < 1:
        raise SingularMatrix("reciprocal condition below d * eps")
    return inv


def min_gap(eigs):
    """Minimum pairwise eigenvalue distance; inf for fewer than two."""
    d = len(eigs)
    if d < 2:
        return float("inf")
    diff = np.abs(eigs[:, None] - eigs[None, :])
    return float(np.min(diff[~np.eye(d, dtype=bool)]))


def eig(q):
    """(eigenvalues, T) with deterministic ordering and phases.

    Eigenvalues sorted ascending by (real, imag); each eigenvector has unit
    norm and its first non-negligible component rotated to be real positive,
    so T is reproducible across runs.
    """
    q = as_cmatrix(q)
    if q.shape[0] != q.shape[1] or not q.size:
        raise DimensionMismatch("eig needs a non-empty square matrix")
    try:
        vals, vecs = np.linalg.eig(q)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    vecs = vecs[:, order]
    for j in range(vecs.shape[1]):
        v = vecs[:, j]
        v = v / np.linalg.norm(v)
        big = np.nonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0][0]
        v = v * (np.conj(v[big]) / abs(v[big]))
        vecs[:, j] = v
    return vals, vecs


def check_distinct(eigs, tol):
    """(ok, gap): the minimum pairwise gap of eigs, and whether it clears tol
    relative to the eigenvalue scale max(1, max|eig|)."""
    eigs = np.asarray(eigs, dtype=complex)
    gap = min_gap(eigs)
    return gap > tol * max(1.0, float(np.max(np.abs(eigs)))), gap
