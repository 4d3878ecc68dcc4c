import numpy as np
import pytest

from qcomm.errors import DegreeZero, ZeroPolynomial
from qcomm.poly import Polynomial, cluster_roots, from_roots, roots, scale

from conftest import match_values, single_linkage_reference


def one_row(rs, tol_abs, tol_rel):
    """cluster_roots of one root vector, as (representative, multiplicity)
    pairs."""
    reps, mults, counts = cluster_roots(np.atleast_2d(rs), tol_abs, tol_rel)
    assert counts.tolist() == [len(reps)]
    return list(zip(reps.tolist(), mults.tolist()))


def test_eval_known_roots():
    g1 = Polynomial([4, -5, 1])  # (x-1)(x-4)
    assert g1(1) == pytest.approx(0)
    assert g1(4) == pytest.approx(0)
    g2 = Polynomial([1, 2, 1])  # (x+1)^2
    assert g2(-1) == pytest.approx(0)


def test_eval_at_zero_is_constant_term():
    p = Polynomial([3 + 2j, 5, -1, 7])
    assert p(0) == 3 + 2j


def test_eval_horner_matches_power_sum(rng):
    for _ in range(50):
        deg = rng.integers(1, 17)
        c = rng.uniform(-10, 10, deg + 1) + 1j * rng.uniform(-10, 10, deg + 1)
        c[-1] += 1e-3  # keep the leading coefficient away from zero
        p = Polynomial(c)
        z = rng.uniform(-10, 10) + 1j * rng.uniform(-10, 10)
        naive = sum(c[j] * z ** j for j in range(deg + 1))
        assert abs(p(z) - naive) <= 1e-12 * max(1.0, abs(naive))


def test_trailing_zeros_trimmed():
    p = Polynomial([1, 2, 0, 0])
    assert p.degree == 1
    assert Polynomial([0, 0]).degree == -1


def test_roots_simple_quadratics():
    assert match_values(roots(Polynomial([4, -5, 1])), [1, 4]) < 1e-10
    assert match_values(roots(Polynomial([2, -3, 1])), [1, 2]) < 1e-10


def test_roots_triple_zero():
    rs = roots(Polynomial([0, 0, 0, 1]))
    assert len(rs) == 3
    assert np.max(np.abs(rs)) < 1e-5


def test_roots_recover_planted(rng):
    # oracle: expand prod (x - r_j) and ask for the roots back
    for _ in range(40):
        deg = rng.integers(1, 9)
        planted = rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg)
        p = from_roots(planted)
        assert match_values(roots(p), planted) < 1e-7


def test_roots_degenerate_inputs():
    with pytest.raises(ZeroPolynomial):
        roots(Polynomial([]))
    with pytest.raises(DegreeZero):
        roots(Polynomial([5.0]))


def test_roots_residual_small(rng):
    for _ in range(20):
        deg = rng.integers(2, 9)
        c = rng.uniform(-3, 3, deg + 1) + 1j * rng.uniform(-3, 3, deg + 1)
        c[-1] = 1.0
        p = Polynomial(c)
        resid = np.max(np.abs(p(roots(p)))) / scale(p.coeffs)
        assert resid < 1e-8


def test_cluster_double_root():
    g2 = Polynomial([1, 2, 1])
    clusters = one_row(roots(g2), 1e-6, 1e-6)
    assert len(clusters) == 1
    assert clusters[0][1] == 2
    assert clusters[0][0] == pytest.approx(-1, abs=1e-6)


def test_cluster_separated_roots():
    clusters = one_row([1.0, 4.0], 1e-8, 1e-8)
    assert [c[1] for c in clusters] == [1, 1]
    assert clusters[0][0] == pytest.approx(1)
    # a NaN root is near nothing, not even another NaN
    assert [c[1] for c in one_row([np.nan, np.nan, 1.0], 1e-8, 1e-8)] == [1, 1, 1]


def test_cluster_empty():
    assert one_row([], 1e-8, 1e-8) == []
    reps, mults, counts = cluster_roots(np.empty((3, 0)), 1e-8, 1e-8)
    assert (reps.size, mults.size, counts.tolist()) == (0, 0, [0, 0, 0])


def test_cluster_permutation_invariant(rng):
    rs = list(rng.uniform(-2, 2, 7) + 1j * rng.uniform(-2, 2, 7))
    assert one_row(rs, 1e-3, 1e-3) == one_row(rs[::-1], 1e-3, 1e-3)


def test_cluster_multiplicities_sum_to_degree(rng):
    for _ in range(30):
        deg = rng.integers(1, 9)
        p = from_roots(rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg))
        clusters = one_row(roots(p), 1e-8 * scale(p.coeffs), 1e-8)
        assert sum(c[1] for c in clusters) == deg


def test_cluster_representative_is_mean():
    clusters = one_row([1.0, 1.0 + 4e-9, 5.0], 1e-8, 1e-8)
    assert clusters[0][0] == pytest.approx(1.0 + 2e-9, abs=1e-12)
    assert clusters[0][1] == 2


def test_cluster_chain_longer_than_threshold(rng):
    # 50 roots 0.9e-3 apart: the ends are 0.044 apart, far past the 1e-3
    # link length, but the chain makes them one cluster in any input order
    chain = 0.9e-3 * np.arange(50) * np.exp(0.3j)
    for rs in (chain, rng.permutation(chain)):
        clusters = one_row(rs, 1e-3, 0.0)
        assert len(clusters) == 1
        assert clusters[0][1] == 50
    assert len(one_row(chain[[0, -1]], 1e-3, 0.0)) == 2


def test_cluster_matches_single_linkage_reference(rng):
    # one (60, 24) stack with one tol_abs per row: the flat arrays are the
    # per-row references concatenated, and counts their lengths
    stack = []
    for _ in range(60):
        base = rng.uniform(-2, 2, 12) + 1j * rng.uniform(-2, 2, 12)
        # near-coincident copies at several scales, so clusters of 1 to 4
        # members form at each tolerance
        jitter = 10.0 ** rng.integers(-10, -1, 12) * np.exp(2j * np.pi * rng.uniform(size=12))
        rs = np.concatenate([base, base[:8] + jitter[:8], base[:4] - jitter[4:8]])
        stack.append(rng.permutation(rs))
    for tol in (1e-8, 1e-5, 1e-2):
        tol_abs = tol * rng.uniform(1, 4, len(stack))
        reps, mults, counts = cluster_roots(np.array(stack), tol_abs, tol)
        ref = [single_linkage_reference(rs, t, tol) for rs, t in zip(stack, tol_abs)]
        assert counts.tolist() == [len(cs) for cs in ref]
        assert list(zip(reps.tolist(), mults.tolist())) == [c for cs in ref for c in cs]


def test_root_product_reconstruction(rng):
    # clusters of a monic p expand back to p's coefficients
    for _ in range(20):
        deg = rng.integers(1, 7)
        p = from_roots(random_separated(rng, deg))
        reps, mults, _ = cluster_roots(roots(p)[None], 1e-8 * scale(p.coeffs), 1e-8)
        q = from_roots(np.repeat(reps, mults))
        tol = 1e-7 * deg * max(1.0, np.max(np.abs(p.coeffs)))
        assert np.max(np.abs(q.coeffs - p.coeffs)) < tol


def random_separated(rng, deg):
    while True:
        rs = rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg)
        if deg == 1:
            return rs
        diff = np.abs(rs[:, None] - rs[None, :])
        if np.min(diff[~np.eye(deg, dtype=bool)]) > 0.2:
            return rs
