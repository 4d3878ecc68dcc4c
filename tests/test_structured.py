import numpy as np
import pytest

from qcomm import linalg, structured
from qcomm.errors import NotDistinctEigenvalues, ZeroWeight
from qcomm.poly import Polynomial
from qcomm.structured import (
    WeightedCirculantSpec,
    circulant_context,
    circulant_scalar_coeffs,
    companion_context,
    companion_matrix,
    dft_matrix,
    weighted_circulant_context,
    weighted_circulant_matrix,
)

from conftest import OMEGA3, match_values


def spec(*w):
    return WeightedCirculantSpec.from_weights(w)


def test_weighted_circulant_matrix_unit_weights():
    q = weighted_circulant_matrix(spec(1, 1, 1, 1))
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 2] = expected[2, 3] = expected[3, 0] = 1
    assert np.array_equal(q, expected)


def test_weighted_circulant_matrix_examples():
    q = weighted_circulant_matrix(spec(1, 1, 8))
    assert np.array_equal(q, np.array([[0, 1, 0], [0, 0, 1], [8, 0, 0]]))
    q2 = weighted_circulant_matrix(spec(2, 3))
    assert np.array_equal(q2, np.array([[0, 2], [3, 0]]))


def test_spec_rejects_zero_weight():
    with pytest.raises(ZeroWeight):
        spec(1, 0, 2)


def test_spec_principal_root():
    s = spec(1, 1, 8)
    assert s.k == 8
    assert s.lam == pytest.approx(2)
    # negative product: principal branch keeps the argument in (-pi/d, pi/d]
    s2 = spec(-1, 1, 1)
    assert abs(s2.lam ** 3 - (-1)) < 1e-12
    assert -np.pi / 3 < np.angle(s2.lam) <= np.pi / 3


def test_dft_small():
    assert np.allclose(dft_matrix(1), [[1]])
    assert np.allclose(dft_matrix(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16, 32])
def test_dft_unitary(d):
    f = dft_matrix(d)
    assert np.linalg.norm(f @ f.conj().T - np.eye(d), "fro") <= 1e-12 * d


def test_weighted_circulant_context_paper():
    ctx = weighted_circulant_context(spec(1, 1, 8))
    assert ctx.provenance == "weighted-circulant"
    expected = [2.0, 2 * OMEGA3 ** 2, 2 * OMEGA3]
    assert np.max(np.abs(ctx.eigenvalues - expected)) < 1e-12
    f_inv = dft_matrix(3).conj().T
    expected_t = np.diag([1.0, 2.0, 4.0]) @ f_inv
    assert np.max(np.abs(ctx.T - expected_t)) < 1e-12


def test_weighted_circulant_context_unit_weights_is_f_inv():
    d = 5
    ctx = weighted_circulant_context(spec(*[1.0] * d))
    assert np.max(np.abs(ctx.T - dft_matrix(d).conj().T)) < 1e-12


def test_scaling_diag_paper_values():
    # prefactor k/k_d times (1, lam/k1, lam^2/(k1 k2)) = (1, 2, 4) for (1,1,8)
    ctx = weighted_circulant_context(spec(1, 1, 8))
    f = dft_matrix(3)
    lam_diag = ctx.T @ f  # T = Lambda F^-1  =>  Lambda = T F
    assert np.max(np.abs(lam_diag - np.diag([1.0, 2.0, 4.0]))) < 1e-12


def test_lambda_conjugation_identity(rng):
    # Lambda^-1 Q Lambda equals lam * (cyclic shift)
    for _ in range(10):
        d = int(rng.integers(2, 9))
        w = rng.uniform(0.5, 2, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        s = spec(*w)
        ctx = weighted_circulant_context(s)
        f = dft_matrix(d)
        lam_mat = ctx.T @ f
        q = weighted_circulant_matrix(s)
        resid = np.linalg.norm(
            np.linalg.solve(lam_mat, q @ lam_mat) - s.lam * weighted_circulant_matrix(spec(*[1] * d)), "fro"
        )
        assert resid <= 1e-10 * (1 + abs(s.lam)) * d


def test_structured_matches_generic_eigensolver(rng):
    for _ in range(15):
        d = int(rng.integers(2, 9))
        w = rng.uniform(0.5, 2, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        s = spec(*w)
        ctx = weighted_circulant_context(s)
        dec = linalg.eig(weighted_circulant_matrix(s))
        assert match_values(ctx.eigenvalues, dec.eigenvalues) < 1e-8


def test_circulant_scalar_coeffs_constant():
    for i in range(1, 5):
        assert circulant_scalar_coeffs([3.5 + 1j, 0, 0, 0], i) == pytest.approx(3.5 + 1j)


def test_circulant_scalar_coeffs_linear():
    omega = np.exp(2j * np.pi / 4)
    got = circulant_scalar_coeffs([0, 1, 0, 0], 2)
    assert got == pytest.approx(omega ** 3)


def test_circulant_scalar_coeffs_matches_horner(rng):
    for d in range(2, 17):
        a = rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)
        p = Polynomial(a)
        omega = np.exp(2j * np.pi / d)
        for i in range(1, d + 1):
            direct = circulant_scalar_coeffs(a, i)
            horner = p(omega ** (d - i + 1))
            assert abs(direct - horner) < 1e-12 * max(1.0, abs(horner))


def test_circulant_context():
    a = [1.0, 2.0, 0.5]
    ctx = circulant_context(a)
    assert ctx.provenance == "circulant"
    dec = linalg.eig(ctx.Q)
    assert match_values(ctx.eigenvalues, dec.eigenvalues) < 1e-10


def test_companion_context_paper():
    ctx = companion_context([1, 2, 3])
    expected_pi = np.array([[0, 1, 0], [0, 0, 1], [6, -11, 6]], dtype=complex)
    expected_t = np.array([[1, 1, 1], [1, 2, 3], [1, 4, 9]], dtype=complex)
    assert np.max(np.abs(ctx.Q - expected_pi)) < 1e-12
    assert np.max(np.abs(ctx.T - expected_t)) < 1e-12
    assert np.allclose(ctx.eigenvalues, [1, 2, 3])


def test_companion_context_tiny():
    ctx = companion_context([0, 1])
    assert np.allclose(ctx.Q, np.array([[0, 1], [0, 1]]))
    assert np.allclose(ctx.T, np.array([[1, 1], [0, 1]]))


def test_companion_matrix_coeffs():
    pi = companion_matrix([-6, 11, -6, 1])
    assert np.allclose(pi[-1], [6, -11, 6])


def test_structured_contexts_warn_when_ill_conditioned():
    assert companion_context([1, 2, 3]).warnings == []
    ctx = companion_context(range(1, 9))
    assert ctx.dec.cond_T > 1e8
    assert any(w.startswith("ill-conditioned eigenbasis") for w in ctx.warnings)


def test_companion_context_rejects_repeated():
    with pytest.raises(NotDistinctEigenvalues):
        companion_context([1, 1 + 1e-12, 3])


def test_companion_cross_check_eig(rng):
    for _ in range(15):
        d = int(rng.integers(2, 7))
        while True:
            lam = rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)
            diff = np.abs(lam[:, None] - lam[None, :])
            if np.min(diff[~np.eye(d, dtype=bool)]) > 0.2:
                break
        ctx = companion_context(lam)
        dec = linalg.eig(ctx.Q)
        assert match_values(lam, dec.eigenvalues) < 1e-8
