"""Closed-form diagonalizers for weighted circulants, circulants, companions.

A weighted circulant carries nonzero weights on the superdiagonal and in the
bottom-left corner; its characteristic polynomial is x^d - k with k the
product of the weights, so a diagonal conjugation reduces it to a scalar
multiple of the basic cyclic shift, which the DFT matrix diagonalizes. The
same DFT matrix diagonalizes every circulant; a circulant's eigenvalues,
its diagonal coordinates in that basis, are np.fft.fft of its first row.
A companion matrix of a polynomial with distinct roots is diagonalized by
the Vandermonde matrix in those roots. All three paths produce a QContext
without running an eigensolver.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import DEFAULT_TOL, assemble_context
from .errors import NumericalFailure, ZeroWeight
from .poly import from_roots


@dataclass(frozen=True)
class WeightedCirculantSpec:
    """Weights (k_1,...,k_d), their product k, and the chosen d-th root of k.

    The root branch is always principal (argument in (-pi/d, pi/d]); any
    branch gives the same solution set, it only relabels the eigenvalues.
    """

    weights: tuple
    k: complex
    lam: complex

    @classmethod
    def from_weights(cls, weights):
        weights = tuple(complex(w) for w in weights)
        if any(w == 0 for w in weights):
            raise ZeroWeight("weighted circulant weights must be nonzero")
        k = complex(np.prod(weights))
        d = len(weights)
        lam = abs(k) ** (1.0 / d) * np.exp(1j * np.angle(k) / d)
        return cls(weights, k, lam)


def weighted_circulant_matrix(spec):
    """Matrix with spec.weights[:-1] on the superdiagonal and weights[-1]
    in the bottom-left corner."""
    d = len(spec.weights)
    q = np.zeros((d, d), dtype=complex)
    q[np.arange(d), (np.arange(d) + 1) % d] = spec.weights
    return q


def dft_matrix(d):
    """Unitary DFT matrix: F[r, c] = omega**(r c) / sqrt(d), omega = e^{2 pi i / d}.

    Each entry is exp of its angle reduced mod 2 pi (exponent r c mod d),
    so rounding does not grow with r c.
    """
    if d < 1:
        raise ValueError("d must be positive")
    idx = np.arange(d)
    return np.exp(2j * np.pi * (np.outer(idx, idx) % d) / d) / np.sqrt(d)


def _verified(ctx, resid_bound):
    """ctx, once its closed-form diagonalization residual is within resid_bound."""
    resid = linalg.frobenius(ctx.T_inv @ ctx.Q @ ctx.T - np.diag(ctx.eigenvalues))
    if resid > resid_bound:
        raise NumericalFailure(
            f"closed-form diagonalization residual {resid:.3e} exceeds {resid_bound:.3e}"
        )
    return ctx


def weighted_circulant_context(spec, distinct_tol=DEFAULT_TOL):
    """Closed-form context for a weighted circulant.

    With lam the chosen d-th root of the weight product, the scaling matrix
    L = (k/k_d) diag(1, lam/k_1, lam^2/(k_1 k_2), ...) conjugates Q to
    lam * (cyclic shift), and T = L F^-1 then gives
    T^-1 Q T = diag(lam w^d, lam w^{d-1}, ..., lam w), w = e^{2 pi i / d};
    the i-th eigenvalue is lam * w^(d-i+1). As F is unitary, cond_2(T) is
    max|L| / min|L|.
    """
    w = np.asarray(spec.weights, dtype=complex)
    d = len(w)
    lam = spec.lam
    diag = np.concatenate(([1.0], np.cumprod(lam / w[:-1]))) * (spec.k / w[-1])
    F = dft_matrix(d)
    T = diag[:, None] * F.conj().T
    T_inv = F / diag[None, :]
    omega = np.exp(2j * np.pi / d)
    eigs = lam * omega ** (np.arange(d, 0, -1) % d)
    cond = float(np.max(np.abs(diag)) / np.min(np.abs(diag)))
    ctx = assemble_context(
        weighted_circulant_matrix(spec), eigs, T, T_inv, distinct_tol, "weighted-circulant"
    )
    return _verified(ctx, 1e-10 * (1.0 + abs(lam)) * max(1.0, cond))


def circulant_context(a, distinct_tol=DEFAULT_TOL):
    """Closed-form context for the circulant with first-row coefficients a.

    Q[r, c] = a[(c - r) mod d]. Every circulant is diagonalized by
    T = F^-1; the i-th eigenvalue is the coefficient polynomial evaluated at
    omega^(d-i+1), which is entry i-1 of np.fft.fft(a), matching the
    weighted-circulant eigenvalue ordering with unit weights.
    """
    a = np.asarray(a, dtype=complex)
    d = len(a)
    idx = np.arange(d)
    q = a[(idx[None, :] - idx[:, None]) % d]
    F = dft_matrix(d)
    T = F.conj().T
    eigs = np.fft.fft(a)
    scale = 1.0 + float(np.max(np.abs(eigs)))
    ctx = assemble_context(q, eigs, T, F, distinct_tol, "circulant")
    return _verified(ctx, 1e-10 * scale * d)


def companion_matrix(coeffs):
    """Companion matrix of the monic polynomial with the given ascending
    coefficients (length d+1, leading coefficient 1)."""
    c = np.asarray(coeffs, dtype=complex)
    d = len(c) - 1
    pi = np.zeros((d, d), dtype=complex)
    if d > 1:
        pi[:-1, 1:] = np.eye(d - 1)
    pi[-1, :] = -c[:-1]
    return pi


def companion_context(lambdas, distinct_tol=DEFAULT_TOL):
    """Closed-form context for the companion matrix of prod (x - lambda_i).

    T is the Vandermonde matrix with T[r, c] = lambdas[c]**r, which conjugates
    the companion matrix to diag(lambdas) in the given order.
    """
    lambdas = np.asarray(lambdas, dtype=complex)
    d = len(lambdas)
    f = from_roots(lambdas)
    pi = companion_matrix(f.coeffs)
    T = np.vander(lambdas, increasing=True).T.astype(complex)
    ctx = assemble_context(pi, lambdas, T, None, distinct_tol, "companion")
    lam_max = float(np.max(np.abs(lambdas)))
    return _verified(ctx, 1e-9 * (1.0 + max(1.0, lam_max) ** d) * max(1.0, np.linalg.cond(T)))


__all__ = [
    "WeightedCirculantSpec",
    "weighted_circulant_matrix",
    "weighted_circulant_context",
    "dft_matrix",
    "circulant_context",
    "companion_matrix",
    "companion_context",
]
