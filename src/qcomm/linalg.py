"""Dense complex matrix kernel.

Matrices are plain numpy arrays of dtype complex. This module wraps the
LAPACK-backed numpy/scipy routines behind the error and determinism
contracts the rest of the package relies on: sorted eigenvalues, phase-fixed
eigenvectors, explicit singularity detection in solves.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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


def solve(a, b):
    """Solve a X = b by pivoted LU.

    Raises SingularMatrix when any pivot falls below the conventional
    backward-stable threshold d * eps * max-row-norm.
    """
    a = as_cmatrix(a)
    b = np.asarray(b, dtype=complex)
    d = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("solve needs a square matrix")
    if b.shape[0] != d:
        raise DimensionMismatch(f"rhs rows {b.shape[0]} != matrix rows {d}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    row_norm = float(np.max(np.sum(np.abs(a), axis=1))) if d else 0.0
    thresh = d * np.finfo(float).eps * row_norm
    if np.any(np.abs(np.diag(lu)) <= thresh):
        raise SingularMatrix("pivot below singularity threshold")
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def inverse(a):
    a = as_cmatrix(a)
    return solve(a, np.eye(a.shape[0], dtype=complex))


@dataclass
class EigenDecomposition:
    """Eigenvalues and (phase-fixed) eigenvector basis of a square matrix.

    cond_T is a cheap ||T||_1 * ||T^-1||_1 estimate used only for warnings;
    min_gap is the minimum pairwise eigenvalue distance (inf for d = 1).
    """

    eigenvalues: np.ndarray
    T: np.ndarray
    T_inv: np.ndarray
    cond_T: float
    min_gap: float


def _min_gap(eigs):
    d = len(eigs)
    if d < 2:
        return float("inf")
    diff = np.abs(eigs[:, None] - eigs[None, :])
    return float(np.min(diff[~np.eye(d, dtype=bool)]))


def make_decomposition(eigs, T, T_inv=None):
    """Assemble an EigenDecomposition from a known basis (no eigensolve)."""
    eigs = np.asarray(eigs, dtype=complex)
    T = as_cmatrix(T)
    T_inv = inverse(T) if T_inv is None else as_cmatrix(T_inv)
    cond_T = float(np.linalg.norm(T, 1) * np.linalg.norm(T_inv, 1))
    return EigenDecomposition(eigs, T, T_inv, cond_T, _min_gap(eigs))


def eig(q):
    """Eigendecomposition with deterministic ordering and phases.

    Eigenvalues sorted ascending by (real, imag); each eigenvector has unit
    norm and its first non-negligible component rotated to be real positive,
    so T is reproducible across runs.
    """
    q = as_cmatrix(q)
    if q.shape[0] != q.shape[1]:
        raise DimensionMismatch("eig needs a square matrix")
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
    return make_decomposition(vals, vecs)


def check_distinct(dec, tol):
    """True iff the eigenvalue gaps clear tol relative to eigenvalue scale.

    dec is an EigenDecomposition, or a bare eigenvalue array when no basis
    has been built yet.
    """
    if isinstance(dec, EigenDecomposition):
        eigs, gap = dec.eigenvalues, dec.min_gap
    else:
        eigs = np.asarray(dec, dtype=complex)
        gap = _min_gap(eigs)
    return gap > tol * max(1.0, float(np.max(np.abs(eigs))))
