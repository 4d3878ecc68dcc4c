import numpy as np
import pytest

from qcomm import linalg
from qcomm.errors import SingularMatrix
from qcomm.structured import companion_matrix, dft_matrix

from conftest import OMEGA3, match_values, random_basis, random_distinct


def test_solve_identity(rng):
    b = rng.standard_normal((3, 2)) + 0j
    assert np.allclose(linalg.solve(np.eye(3), b), b)


def test_solve_diagonal():
    a = np.diag([1.0, 2.0, 4.0]).astype(complex)
    x = linalg.solve(a, np.eye(3, dtype=complex))
    assert np.allclose(x, np.diag([1.0, 0.5, 0.25]))


def test_solve_round_trip(rng):
    for _ in range(20):
        d = rng.integers(2, 7)
        a = random_basis(rng, d)
        x0 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = linalg.solve(a, a @ x0)
        assert np.linalg.norm(x - x0) <= 1e-10 * np.linalg.norm(x0)


def test_solve_singular():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SingularMatrix):
        linalg.solve(a, np.eye(2))


def test_inverse_identity_and_diag():
    assert np.allclose(linalg.inverse(np.eye(3)), np.eye(3))
    assert np.allclose(
        linalg.inverse(np.diag([1.0, 2.0, 4.0]).astype(complex)),
        np.diag([1.0, 0.5, 0.25]),
    )


def test_inverse_dft_is_conjugate_transpose():
    f = dft_matrix(5)
    assert np.max(np.abs(linalg.inverse(f) - f.conj().T)) < 1e-12


def test_eig_diagonal_sorted():
    dec = linalg.eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0])


def test_eig_weighted_circulant_eigenvalues():
    q = np.array([[0, 1, 0], [0, 0, 1], [8, 0, 0]], dtype=complex)
    dec = linalg.eig(q)
    expected = [2.0, 2 * OMEGA3, 2 * OMEGA3 ** 2]
    assert match_values(dec.eigenvalues, expected) < 1e-10


def test_eig_companion_eigenvalues():
    pi = companion_matrix([-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
    dec = linalg.eig(pi)
    assert match_values(dec.eigenvalues, [1.0, 2.0, 3.0]) < 1e-10


def test_eig_reconstruction(rng):
    for _ in range(15):
        d = rng.integers(2, 9)
        lam = random_distinct(rng, d)
        t = random_basis(rng, d)
        q = (t * lam) @ np.linalg.inv(t)
        dec = linalg.eig(q)
        resid = np.linalg.norm(
            dec.T @ np.diag(dec.eigenvalues) @ dec.T_inv - q, "fro"
        )
        assert resid <= 1e-8 * (1 + np.linalg.norm(q, "fro")) * dec.cond_T


def test_eig_similarity_invariant(rng):
    d = 5
    lam = random_distinct(rng, d)
    t = random_basis(rng, d)
    q = (t * lam) @ np.linalg.inv(t)
    s = random_basis(rng, d)
    a = linalg.eig(q).eigenvalues
    b = linalg.eig(s @ q @ np.linalg.inv(s)).eigenvalues
    assert np.max(np.abs(a - b)) < 1e-8


def test_eig_deterministic():
    q = np.array([[1, 2, 0], [0.5, 0, 1], [3, 1, -1]], dtype=complex)
    d1 = linalg.eig(q)
    d2 = linalg.eig(q)
    assert np.array_equal(d1.T, d2.T)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)


def test_check_distinct():
    d1 = linalg.make_decomposition([1.0, 2.0, 3.0], np.eye(3))
    assert linalg.check_distinct(d1, 1e-8)
    d2 = linalg.make_decomposition([1.0, 1.0 + 1e-12, 3.0], np.eye(3))
    assert not linalg.check_distinct(d2, 1e-8)
    d3 = linalg.make_decomposition(
        [2.0, 2 * OMEGA3, 2 * OMEGA3 ** 2], np.eye(3)
    )
    assert linalg.check_distinct(d3, 1e-8)


def test_frobenius():
    assert linalg.frobenius(np.zeros((3, 3))) == 0
    assert linalg.frobenius(np.eye(4)) == pytest.approx(2.0)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert linalg.frobenius(a) == pytest.approx(np.sqrt(np.sum(np.abs(a) ** 2)))
