import os
import subprocess
import sys

import numpy as np
import pytest

import qcomm
from qcomm import linalg
from qcomm.errors import DimensionMismatch, SingularMatrix
from qcomm.structured import companion_matrix, dft_matrix

from conftest import OMEGA3, match_values, random_basis, random_distinct


def test_solve_identity(rng):
    b = rng.standard_normal((3, 2)) + 0j
    assert np.allclose(linalg.inverse(np.eye(3)) @ b, b)


def test_solve_diagonal():
    a = np.diag([1.0, 2.0, 4.0]).astype(complex)
    x = linalg.inverse(a) @ np.eye(3, dtype=complex)
    assert np.allclose(x, np.diag([1.0, 0.5, 0.25]))


def test_inverse_identity_and_diag():
    assert np.allclose(linalg.inverse(np.eye(3)), np.eye(3))
    assert np.allclose(
        linalg.inverse(np.diag([1.0, 2.0, 4.0]).astype(complex)),
        np.diag([1.0, 0.5, 0.25]),
    )


def test_inverse_round_trip(rng):
    for _ in range(20):
        d = rng.integers(2, 7)
        a = random_basis(rng, d)
        x0 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = linalg.inverse(a) @ (a @ x0)
        assert np.linalg.norm(x - x0) <= 1e-10 * np.linalg.norm(x0)


def test_inverse_singular():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SingularMatrix):
        linalg.inverse(a)


def test_inverse_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        linalg.inverse(np.ones((2, 3), dtype=complex))


@pytest.mark.parametrize("s", [1e-10, 1.0, 1e10])
@pytest.mark.parametrize("d", [2, 5])
def test_inverse_singularity_boundary(s, d):
    # s * diag(1, ..., 1, f*d*eps) is rejected exactly when f <= 1, at any
    # scale s: where the rule "a pivot <= d*eps*max-row-norm" flips too
    eps = np.finfo(float).eps
    for f, singular in [(0.25, True), (0.5, True), (0.99, True), (1.01, False), (2, False), (4, False)]:
        a = s * np.diag([1.0] * (d - 1) + [f * d * eps]).astype(complex)
        if singular:
            with pytest.raises(SingularMatrix):
                linalg.inverse(a)
        else:
            assert np.allclose(linalg.inverse(a) @ a, np.eye(d))


def test_inverse_dft_is_conjugate_transpose():
    f = dft_matrix(5)
    assert np.max(np.abs(linalg.inverse(f) - f.conj().T)) < 1e-12


def test_eig_diagonal_sorted():
    eigs, _ = linalg.eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(eigs, [1.0, 2.0, 3.0])


def test_eig_weighted_circulant_eigenvalues():
    q = np.array([[0, 1, 0], [0, 0, 1], [8, 0, 0]], dtype=complex)
    eigs, _ = linalg.eig(q)
    expected = [2.0, 2 * OMEGA3, 2 * OMEGA3 ** 2]
    assert match_values(eigs, expected) < 1e-10


def test_eig_companion_eigenvalues():
    pi = companion_matrix([-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
    eigs, _ = linalg.eig(pi)
    assert match_values(eigs, [1.0, 2.0, 3.0]) < 1e-10


def test_eig_reconstruction(rng):
    for _ in range(15):
        d = rng.integers(2, 9)
        lam = random_distinct(rng, d)
        t = random_basis(rng, d)
        q = (t * lam) @ np.linalg.inv(t)
        eigs, vecs = linalg.eig(q)
        vecs_inv = linalg.inverse(vecs)
        cond = np.linalg.norm(vecs, 1) * np.linalg.norm(vecs_inv, 1)
        resid = np.linalg.norm(vecs @ np.diag(eigs) @ vecs_inv - q, "fro")
        assert resid <= 1e-8 * (1 + np.linalg.norm(q, "fro")) * cond


def test_eig_similarity_invariant(rng):
    d = 5
    lam = random_distinct(rng, d)
    t = random_basis(rng, d)
    q = (t * lam) @ np.linalg.inv(t)
    s = random_basis(rng, d)
    a, _ = linalg.eig(q)
    b, _ = linalg.eig(s @ q @ np.linalg.inv(s))
    assert np.max(np.abs(a - b)) < 1e-8


def test_eig_deterministic():
    q = np.array([[1, 2, 0], [0.5, 0, 1], [3, 1, -1]], dtype=complex)
    eigs1, t1 = linalg.eig(q)
    eigs2, t2 = linalg.eig(q)
    assert np.array_equal(t1, t2)
    assert np.array_equal(eigs1, eigs2)


def test_check_distinct():
    assert linalg.check_distinct([1.0, 2.0, 3.0], 1e-8)[0]
    assert not linalg.check_distinct([1.0, 1.0 + 1e-12, 3.0], 1e-8)[0]
    assert linalg.check_distinct([2.0, 2 * OMEGA3, 2 * OMEGA3 ** 2], 1e-8)[0]


def test_frobenius():
    assert linalg.frobenius(np.zeros((3, 3))) == 0
    assert linalg.frobenius(np.eye(4)) == pytest.approx(2.0)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert linalg.frobenius(a) == pytest.approx(np.sqrt(np.sum(np.abs(a) ** 2)))


def test_qcomm_loads_no_scipy():
    # a fresh interpreter: this one has scipy loaded already by conftest
    src = os.path.dirname(os.path.dirname(qcomm.__file__))
    code = "import sys, qcomm, qcomm.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
