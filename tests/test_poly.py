import numpy as np
import pytest

from qcomm.errors import DegreeZero, ZeroPolynomial
from qcomm.poly import Polynomial, cluster_roots, from_roots, roots, scale

from conftest import match_values, single_linkage_reference


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
    clusters = cluster_roots(roots(g2), 1e-6, 1e-6)
    assert len(clusters) == 1
    assert clusters[0].multiplicity == 2
    assert clusters[0].representative == pytest.approx(-1, abs=1e-6)


def test_cluster_separated_roots():
    clusters = cluster_roots([1.0, 4.0], 1e-8, 1e-8)
    assert [c.multiplicity for c in clusters] == [1, 1]
    assert clusters[0].representative == pytest.approx(1)
    # a NaN root is near nothing, not even another NaN
    assert [c.multiplicity for c in cluster_roots([np.nan, np.nan, 1.0], 1e-8, 1e-8)] == [1, 1, 1]


def test_cluster_empty():
    assert cluster_roots([], 1e-8, 1e-8) == []


def test_cluster_permutation_invariant(rng):
    rs = list(rng.uniform(-2, 2, 7) + 1j * rng.uniform(-2, 2, 7))
    a = cluster_roots(rs, 1e-3, 1e-3)
    b = cluster_roots(rs[::-1], 1e-3, 1e-3)
    assert [(c.representative, c.multiplicity) for c in a] == [
        (c.representative, c.multiplicity) for c in b
    ]


def test_cluster_multiplicities_sum_to_degree(rng):
    for _ in range(30):
        deg = rng.integers(1, 9)
        p = from_roots(rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg))
        clusters = cluster_roots(roots(p), 1e-8 * scale(p.coeffs), 1e-8)
        assert sum(c.multiplicity for c in clusters) == deg


def test_cluster_representative_is_mean():
    clusters = cluster_roots([1.0, 1.0 + 4e-9, 5.0], 1e-8, 1e-8)
    assert clusters[0].representative == pytest.approx(1.0 + 2e-9, abs=1e-12)
    assert clusters[0].multiplicity == 2


def test_cluster_chain_longer_than_threshold(rng):
    # 50 roots 0.9e-3 apart: the ends are 0.044 apart, far past the 1e-3
    # link length, but the chain makes them one cluster in any input order
    chain = 0.9e-3 * np.arange(50) * np.exp(0.3j)
    for rs in (chain, rng.permutation(chain)):
        clusters = cluster_roots(rs, 1e-3, 0.0)
        assert len(clusters) == 1
        assert clusters[0].multiplicity == 50
    assert len(cluster_roots(chain[[0, -1]], 1e-3, 0.0)) == 2


def test_cluster_matches_single_linkage_reference(rng):
    for _ in range(60):
        base = rng.uniform(-2, 2, 12) + 1j * rng.uniform(-2, 2, 12)
        # near-coincident copies at several scales, so clusters of 1 to 4
        # members form at each tolerance
        jitter = 10.0 ** rng.integers(-10, -1, 12) * np.exp(2j * np.pi * rng.uniform(size=12))
        rs = rng.permutation(np.concatenate([base, base[:8] + jitter[:8], base[:4] - jitter[4:8]]))
        for tol in (1e-8, 1e-5, 1e-2):
            got = cluster_roots(rs, tol, tol)
            ref = single_linkage_reference(rs, tol, tol)
            assert [(c.representative, c.multiplicity) for c in got] == [
                (c.representative, c.multiplicity) for c in ref
            ]


def test_root_product_reconstruction(rng):
    # clusters of a monic p expand back to p's coefficients
    for _ in range(20):
        deg = rng.integers(1, 7)
        p = from_roots(random_separated(rng, deg))
        clusters = cluster_roots(roots(p), 1e-8 * scale(p.coeffs), 1e-8)
        reps = []
        for c in clusters:
            reps.extend([c.representative] * c.multiplicity)
        q = from_roots(reps)
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
