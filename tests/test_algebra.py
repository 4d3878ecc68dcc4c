import numpy as np
import pytest

from qcomm import algebra
from qcomm.errors import DimensionMismatch, IllConditionedWarning, NotDistinctEigenvalues, NotMember
from qcomm.poly import Polynomial
from qcomm.structured import (
    WeightedCirculantSpec,
    circulant_context,
    weighted_circulant_context,
    weighted_circulant_matrix,
)

from conftest import OMEGA3, match_values, random_context

Q31 = np.array([[0, 1, 0], [0, 0, 1], [8, 0, 0]], dtype=complex)


def paper_ctx():
    return weighted_circulant_context(WeightedCirculantSpec.from_weights([1, 1, 8]))


def test_make_context_cyclic_shift():
    shift = weighted_circulant_matrix(WeightedCirculantSpec.from_weights([1] * 4))
    ctx = algebra.make_context(shift)
    expected = np.exp(2j * np.pi * np.arange(4) / 4)
    assert match_values(ctx.eigenvalues, expected) < 1e-10


def test_make_context_rejects_repeated():
    with pytest.raises(NotDistinctEigenvalues):
        algebra.make_context(np.diag([1.0, 1.0, 2.0]).astype(complex))


def test_make_context_weighted_circulant():
    ctx = algebra.make_context(Q31)
    assert match_values(ctx.eigenvalues, [2, 2 * OMEGA3, 2 * OMEGA3 ** 2]) < 1e-10


def test_is_member():
    ctx = algebra.make_context(Q31)
    assert algebra.is_member(ctx, Q31 @ Q31)
    assert algebra.is_member(ctx, 3.7j * np.eye(3))
    e12 = np.zeros((3, 3), dtype=complex)
    e12[0, 1] = 1.0
    assert np.linalg.norm(e12 @ Q31 - Q31 @ e12) > 0.5  # genuinely non-commuting
    assert not algebra.is_member(ctx, e12)


def test_repr_poly_of_q():
    ctx = algebra.make_context(Q31)
    p = algebra.repr_poly(ctx, Q31)
    got = np.zeros(3, dtype=complex)
    got[: len(p.coeffs)] = p.coeffs
    assert np.allclose(got, [0, 1, 0], atol=1e-10)


def test_repr_poly_paper_values():
    # A carries the values (-5, 2, -3) at the eigenvalues (2, 2w^2, 2w);
    # its coefficients must solve the Vandermonde system in those nodes.
    ctx = paper_ctx()
    a = algebra.from_diag_coords(ctx, [-5, 2, -3])
    p = algebra.repr_poly(ctx, a)
    nodes = ctx.eigenvalues
    d_mat = np.vander(nodes, increasing=True)
    expected = np.linalg.solve(d_mat, np.array([-5, 2, -3], dtype=complex))
    assert np.max(np.abs(p.coeffs - expected)) < 1e-10
    assert match_values(p(nodes), [-5, 2, -3]) < 1e-10


def test_repr_poly_round_trip(rng):
    for _ in range(20):
        d = rng.integers(2, 7)
        ctx = random_context(rng, d)
        coeffs = rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)
        a = algebra.from_repr_poly(ctx, Polynomial(coeffs))
        back = algebra.repr_poly(ctx, a)
        got = np.zeros(d, dtype=complex)
        got[: len(back.coeffs)] = back.coeffs
        assert np.max(np.abs(got - coeffs)) < 1e-8


def test_repr_poly_badly_scaled_nodes(rng):
    # Q = 200 * cyclic shift at d=8: the Vandermonde rows differ in scale by
    # 200^7, yet the nodes are well separated and the circulant A with first
    # row b is sum_k (b_k / 200^k) Q^k. The Vandermonde condition number
    # (about 1e16) is reported as a warning.
    d = 8
    b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    a = circulant_context(b).Q
    circ = circulant_context(200 * np.eye(d)[1])
    for ctx in (circ, algebra.make_context(circ.Q)):
        with pytest.warns(IllConditionedWarning, match="Vandermonde system condition"):
            p = algebra.repr_poly(ctx, a)
        assert np.max(np.abs(p.coeffs * 200.0 ** np.arange(d) - b)) < 1e-12
        assert np.max(np.abs(algebra.from_repr_poly(ctx, p) - a)) < 1e-12


def test_repr_poly_rejects_non_member(rng):
    ctx = algebra.make_context(Q31)
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1.0
    # A near-member: repr_poly and is_member must reject it at the same tol,
    # while the projection's 1e-6 floor still accepts it.
    noise = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    near = Q31 @ Q31 + 1e-7 * noise
    for a in (bad, near):
        assert not algebra.is_member(ctx, a)
        with pytest.raises(NotMember):
            algebra.repr_poly(ctx, a)
    assert np.max(np.abs(algebra.diag_coords(ctx, near) - ctx.eigenvalues ** 2)) < 1e-5


def test_from_repr_poly_constants():
    ctx = algebra.make_context(Q31)
    assert np.allclose(algebra.from_repr_poly(ctx, Polynomial([1])), np.eye(3))
    assert np.allclose(algebra.from_repr_poly(ctx, Polynomial([0, 1])), Q31)


def test_from_repr_poly_paper_b():
    ctx = paper_ctx()
    nodes = ctx.eigenvalues
    b_coeffs = np.linalg.solve(
        np.vander(nodes, increasing=True), np.array([4, 1, 2], dtype=complex)
    )
    b = algebra.from_repr_poly(ctx, Polynomial(b_coeffs))
    assert np.max(np.abs(algebra.diag_coords(ctx, b) - [4, 1, 2])) < 1e-10


def test_from_repr_poly_high_degree_reduced(rng):
    ctx = random_context(rng, 4)
    p = Polynomial(rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9))
    a = algebra.from_repr_poly(ctx, p)
    assert algebra.is_member(ctx, a)
    assert np.max(np.abs(algebra.diag_coords(ctx, a) - p(ctx.eigenvalues))) < 1e-8


def test_from_diag_coords_basics():
    ctx = algebra.make_context(Q31)
    assert np.allclose(algebra.from_diag_coords(ctx, [1, 1, 1]), np.eye(3), atol=1e-12)
    assert np.allclose(
        algebra.from_diag_coords(ctx, ctx.eigenvalues), Q31, atol=1e-10
    )


def test_from_diag_coords_stack(rng):
    ctx = random_context(rng, 4)
    us = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    xs = algebra.from_diag_coords(ctx, us)
    assert xs.shape == (2, 3, 4, 4)
    for k in np.ndindex(2, 3):
        x = algebra.from_diag_coords(ctx, us[k])
        assert np.max(np.abs(xs[k] - x)) <= 1e-14 * np.max(np.abs(x))
    for bad in (1.0, np.ones(3), np.ones((5, 3))):
        with pytest.raises(DimensionMismatch):
            algebra.from_diag_coords(ctx, bad)


def test_from_diag_coords_companion_example():
    from qcomm.structured import companion_context

    ctx = companion_context([1, 2, 3])
    x = algebra.from_diag_coords(ctx, [1, -1, 1])
    expected = np.array([[7, -8, 2], [12, -15, 4], [24, -32, 9]], dtype=complex)
    assert np.max(np.abs(x - expected)) < 1e-10


def test_diag_coords_basics():
    ctx = algebra.make_context(Q31)
    assert np.allclose(algebra.diag_coords(ctx, np.eye(3, dtype=complex)), 1.0)
    assert np.allclose(algebra.diag_coords(ctx, Q31), ctx.eigenvalues, atol=1e-10)


def test_diag_coords_round_trip(rng):
    for _ in range(20):
        d = rng.integers(2, 7)
        ctx = random_context(rng, d)
        u = rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)
        back = algebra.diag_coords(ctx, algebra.from_diag_coords(ctx, u))
        assert np.max(np.abs(back - u)) < 1e-9 * ctx.cond_T ** 2


def test_diag_coords_rejects_non_member():
    ctx = algebra.make_context(Q31)
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NotMember):
        algebra.diag_coords(ctx, bad)


def test_homomorphism(rng):
    for _ in range(10):
        d = rng.integers(2, 7)
        ctx = random_context(rng, d)
        ua = rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)
        ub = rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)
        a = algebra.from_diag_coords(ctx, ua)
        b = algebra.from_diag_coords(ctx, ub)
        prod = algebra.diag_coords(ctx, a @ b)
        tot = algebra.diag_coords(ctx, a + b)
        scale = max(1.0, np.max(np.abs(ua)), np.max(np.abs(ub))) ** 2
        assert np.max(np.abs(prod - ua * ub)) < 1e-9 * scale * ctx.cond_T ** 2
        assert np.max(np.abs(tot - (ua + ub))) < 1e-9 * scale * ctx.cond_T ** 2


def test_members_commute(rng):
    for _ in range(10):
        d = rng.integers(2, 7)
        ctx = random_context(rng, d)
        a = algebra.from_diag_coords(ctx, rng.standard_normal(d) + 1j * rng.standard_normal(d))
        b = algebra.from_diag_coords(ctx, rng.standard_normal(d) + 1j * rng.standard_normal(d))
        lhs = np.linalg.norm(a @ b - b @ a, "fro")
        bound = 1e-8 * (1 + np.linalg.norm(a, "fro")) * (1 + np.linalg.norm(b, "fro"))
        assert lhs <= bound


def test_membership_closure(rng):
    for _ in range(10):
        d = rng.integers(2, 7)
        ctx = random_context(rng, d)
        p = Polynomial(rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d))
        assert algebra.is_member(ctx, algebra.from_repr_poly(ctx, p), 1e-8)
