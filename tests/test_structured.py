import mpmath
import numpy as np
import pytest

from qcomm import algebra, linalg, structured
from qcomm.errors import DimensionMismatch, NotDistinctEigenvalues, NotMember, ZeroWeight
from qcomm.poly import evaluate
from qcomm.structured import (
    WeightedCirculantSpec,
    circulant_context,
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


@pytest.mark.parametrize("d", [1, 7, 64, 257])
def test_dft_matches_one_exponential_per_entry(d):
    # the d roots of unity, indexed by r c mod d, are the entries exp gives one by one
    idx = np.arange(d)
    one_by_one = np.exp(2j * np.pi * (np.outer(idx, idx) % d) / d) / np.sqrt(d)
    assert dft_matrix(d).tobytes() == one_by_one.tobytes()


def test_dft_unitary_to_rounding_at_large_d():
    # entries come from reduced angles, so F F^H stays at rounding level
    d = 320
    f = dft_matrix(d)
    assert np.max(np.abs(f @ f.conj().T - np.eye(d))) <= 1e-13


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


@pytest.mark.parametrize("d", [64, 257, 320])
def test_weighted_circulant_eigenvalues_match_40_digit_reference(d):
    # eigenvalue k is lam times the root of unity of reduced angle 2 pi ((-k) mod d) / d
    rng = np.random.default_rng(d)
    s = spec(*(rng.uniform(0.5, 2, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))))
    eigs = weighted_circulant_context(s).eigenvalues
    with mpmath.workdps(40):
        lam = mpmath.mpc(s.lam)
        err = max(
            abs(mpmath.mpc(e) - lam * mpmath.expjpi(mpmath.mpf(2 * (-k % d)) / d))
            for k, e in enumerate(eigs)
        )
    assert float(err) <= 8 * np.finfo(float).eps * abs(s.lam)


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
        eigs, _ = linalg.eig(weighted_circulant_matrix(s))
        assert match_values(ctx.eigenvalues, eigs) < 1e-8


def test_circulant_context_eigenvalues_match_horner(rng):
    for d in range(2, 17):
        a = rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)
        omega = np.exp(2j * np.pi / d)
        eigs = circulant_context(a).eigenvalues
        for i in range(1, d + 1):
            horner = evaluate(a, omega ** (d - i + 1))
            assert abs(eigs[i - 1] - horner) < 1e-12 * max(1.0, abs(horner))


def test_circulant_context():
    a = [1.0, 2.0, 0.5]
    ctx = circulant_context(a)
    assert ctx.provenance == "circulant"
    eigs, _ = linalg.eig(ctx.Q)
    assert match_values(ctx.eigenvalues, eigs) < 1e-10


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
    assert ctx.cond_T > 1e8
    assert any(w.startswith("ill-conditioned eigenbasis") for w in ctx.warnings)


def test_verification_residual_is_computed_once_and_only_when_needed(rng):
    # a closed form checks its residual while it is built, and keeps it; an
    # eigensolver context computes it on first use only
    q = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for ctx, computed in [
        (circulant_context([1, 2, 3, 5]), True),
        (weighted_circulant_context(spec(1, 2, 3)), True),
        (companion_context([1, 2, 3]), True),
        (algebra.make_context(q), False),
    ]:
        assert ("verification_residual" in vars(ctx)) is computed
        expected = linalg.frobenius(ctx.T_inv @ ctx.Q @ ctx.T - np.diag(ctx.eigenvalues))
        assert ctx.verification_residual == expected
        assert vars(ctx)["verification_residual"] == expected


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
        eigs, _ = linalg.eig(ctx.Q)
        assert match_values(lam, eigs) < 1e-8


KINDS = ["weighted-circulant", "circulant", "companion"]


def _structured_context(kind, rng, d):
    """A seeded structured context of size d; companion nodes lie near the
    unit circle in random order, so the Vandermonde basis stays usable at d = 48."""
    if kind == "weighted-circulant":
        w = rng.uniform(0.5, 2, d) * np.exp(2j * np.pi * rng.uniform(size=d))
        return weighted_circulant_context(WeightedCirculantSpec.from_weights(w))
    if kind == "circulant":
        return circulant_context(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    angles = rng.permutation(d) + rng.uniform(-0.25, 0.25, d)
    return companion_context(rng.uniform(0.95, 1.05, d) * np.exp(2j * np.pi * angles / d))


def _rel(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), np.finfo(float).tiny)


@pytest.mark.parametrize("kind", KINDS)
def test_structured_forms_match_dense_products(kind):
    # the shift form's A Q and Q A, and the DFT form's T^-1 B, are the dense products
    rng = np.random.default_rng(30)
    for d in range(1, 49):
        ctx = _structured_context(kind, rng, d)
        assert (ctx.shift is not None) == (kind != "circulant")
        assert (ctx.dft_scale is not None) == (kind != "companion")
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        aq, qa = ctx.products(a)
        assert _rel(aq, a @ ctx.Q) <= 1e-14
        assert _rel(qa, ctx.Q @ a) <= 1e-14
        assert _rel(ctx.apply_T_inv(a), ctx.T_inv @ a) <= 1e-14


@pytest.mark.parametrize("kind", KINDS)
def test_structured_forms_decide_as_the_dense_rule(kind):
    # near-members: the membership decisions and the coordinates are those of
    # the rule computed with dense products
    rng = np.random.default_rng(31)
    decisions = set()
    for d in (1, 2, 3, 7, 16, 48):
        ctx = _structured_context(kind, rng, d)
        q = ctx.Q
        for noise in (0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
            u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            a = algebra.from_diag_coords(ctx, u)
            e = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a = a + noise * np.linalg.norm(a) / np.linalg.norm(e) * e
            resid = np.linalg.norm(a @ q - q @ a)
            scale = (1 + np.linalg.norm(a)) * (1 + np.linalg.norm(q))
            assert algebra.is_member(ctx, a) == (resid <= algebra.DEFAULT_TOL * scale)
            member = resid <= algebra.PROJECTION_TOL * scale
            decisions.add(member)
            if not member:
                with pytest.raises(NotMember):
                    algebra.diag_coords(ctx, a)
                continue
            dense = np.einsum("ij,ji->i", ctx.T_inv @ a, ctx.T)
            got = algebra.diag_coords(ctx, a)
            assert np.max(np.abs(got - dense)) <= 1e-13 * ctx.cond_T * np.linalg.norm(a)
    assert decisions == {True, False}


@pytest.mark.parametrize("kind", KINDS + ["generic"])
def test_wrongly_shaped_coefficient_is_a_dimension_mismatch(kind):
    rng = np.random.default_rng(32)
    if kind == "generic":
        ctx = algebra.make_context(np.diag([1.0, 2.0, 3.0, 4.0]))
    else:
        ctx = _structured_context(kind, rng, 4)
    for a in (np.eye(3), np.eye(5), np.ones((4, 5))):
        for f in (algebra.commutator, algebra.is_member, algebra.diag_coords):
            with pytest.raises(DimensionMismatch):
                f(ctx, a)


@pytest.mark.parametrize("kind", ["weighted-circulant", "circulant"])
def test_dft_form_projects_without_the_stored_inverse(kind):
    # with T_inv spoilt, finite coordinates show that projection takes the FFT path
    rng = np.random.default_rng(33)
    ctx = _structured_context(kind, rng, 40)
    u = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    a = algebra.from_diag_coords(ctx, u)
    ctx.T_inv = np.full_like(ctx.T_inv, np.nan)
    got = algebra.diag_coords(ctx, a)
    assert np.isfinite(got).all()
    assert np.max(np.abs(got - u)) <= 1e-12 * np.max(np.abs(u))


@pytest.mark.parametrize("kind", ["weighted-circulant", "companion"])
def test_shift_form_multiplies_without_the_stored_q(kind):
    # with Q spoilt, finite products show that the shift form computes them
    rng = np.random.default_rng(34)
    ctx = _structured_context(kind, rng, 40)
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    want = (a @ ctx.Q, ctx.Q @ a)
    ctx.Q = np.full_like(ctx.Q, np.nan)
    for got, dense in zip(ctx.products(a), want):
        assert _rel(got, dense) <= 1e-14


@pytest.mark.parametrize(
    "build",
    [
        lambda: weighted_circulant_context(WeightedCirculantSpec.from_weights([])),
        lambda: circulant_context([]),
        lambda: companion_context([]),
        lambda: algebra.make_context(np.zeros((0, 0))),
    ],
    ids=["weighted-circulant", "circulant", "companion", "generic"],
)
def test_empty_q_is_a_dimension_mismatch(build):
    with pytest.raises(DimensionMismatch):
        build()
