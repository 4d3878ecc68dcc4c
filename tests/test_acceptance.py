"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import itertools
import time

import numpy as np
import pytest

import qcomm as qc
from qcomm import algebra, solver
from qcomm.errors import NotDistinctEigenvalues
from qcomm.poly import cluster_roots, evaluate, roots, scale

from conftest import (
    OMEGA3,
    match_matrices,
    match_values,
    monic_from_roots,
    random_context,
    random_distinct,
    repr_poly_equation,
)

W = OMEGA3
PAPER_DIAG = [np.array([-5, 2, -3], dtype=complex), np.array([4, 1, 2], dtype=complex)]

# the four printed solutions of X^2 + AX + B = O over the weighted circulant
PAPER31_SOLUTIONS = [
    np.array([[2, -2 * W, -W ** 2], [-8 * W ** 2, 2, -2 * W], [-16 * W, -8 * W ** 2, 2]]) / 6,
    np.array(
        [
            [8, 4 + 6 * W ** 2, -1 - 3 * W ** 2],
            [-8 - 24 * W ** 2, 8, 4 + 6 * W ** 2],
            [32 + 48 * W ** 2, -8 - 24 * W ** 2, 8],
        ]
    ) / 12,
    np.array(
        [
            [16, 10 + 4 * W ** 2, 3 - 2 * W ** 2],
            [24 - 16 * W ** 2, 16, 10 + 4 * W ** 2],
            [80 + 32 * W ** 2, 24 - 16 * W ** 2, 16],
        ]
    ) / 12,
    np.array(
        [
            [20, 10 + 6 * W ** 2, 2 - 3 * W ** 2],
            [16 - 24 * W ** 2, 20, 10 + 6 * W ** 2],
            [80 + 48 * W ** 2, 16 - 24 * W ** 2, 20],
        ]
    ) / 12,
]

# the four printed solutions over the companion matrix of (x-1)(x-2)(x-3)
PAPER32_SOLUTIONS = [
    np.array([[7, -8, 2], [12, -15, 4], [24, -32, 9]], dtype=complex),
    np.array([[16, -19, 5], [30, -39, 11], [66, -91, 27]], dtype=complex) / 2,
    np.array([[32, -31, 7], [42, -45, 11], [66, -79, 21]], dtype=complex) / 2,
    np.array([[17, -17, 4], [24, -27, 7], [42, -53, 15]], dtype=complex),
]


def _report(num, name, ok):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def _random_instance(rng, d_max, n_max):
    d = int(rng.integers(1, d_max + 1))
    n = int(rng.integers(1, n_max + 1))
    ctx = random_context(rng, d)
    coeffs = [rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d) for _ in range(n)]
    return repr_poly_equation(ctx, coeffs)


def test_criterion_1_weighted_circulant_regression():
    start = time.perf_counter()
    spec = qc.WeightedCirculantSpec.from_weights([1, 1, 8])
    q = qc.weighted_circulant_matrix(spec)
    assert np.array_equal(q.real, np.array([[0, 1, 0], [0, 0, 1], [8, 0, 0]]))
    ctx = qc.weighted_circulant_context(spec)
    ss = solver.solve(solver.MatrixPolyEquation(ctx, list(PAPER_DIAG)))
    elapsed = time.perf_counter() - start
    ok = (
        ss.counts == [2, 1, 2]
        and len(ss.solutions) == 4
        and match_matrices([s.X for s in ss.solutions], PAPER31_SOLUTIONS) < 1e-9
        and elapsed < 1.0
    )
    _report(1, "weighted-circulant worked problem", ok)


def test_criterion_2_companion_regression():
    start = time.perf_counter()
    ctx = qc.companion_context([1, 2, 3])
    ss = solver.solve(solver.MatrixPolyEquation(ctx, list(PAPER_DIAG)))
    elapsed = time.perf_counter() - start
    ok = (
        len(ss.solutions) == 4
        and match_matrices([s.X for s in ss.solutions], PAPER32_SOLUTIONS) < 1e-9
        and elapsed < 1.0
    )
    _report(2, "companion worked problem", ok)


def test_criterion_3_scalar_polys():
    expected = [
        np.array([4, -5, 1], dtype=complex),
        np.array([1, 2, 1], dtype=complex),
        np.array([2, -3, 1], dtype=complex),
    ]
    ok = True
    spec = qc.WeightedCirculantSpec.from_weights([1, 1, 8])
    for ctx in (qc.weighted_circulant_context(spec), qc.companion_context([1, 2, 3])):
        gs = solver.build_scalar_polys(solver.MatrixPolyEquation(ctx, list(PAPER_DIAG)))
        for g, e in zip(gs, expected):
            ok = ok and np.max(np.abs(g - e)) < 1e-10
    _report(3, "scalar polynomials", ok)


@pytest.fixture(scope="module")
def soundness_runs():
    rng = np.random.default_rng(20240817)
    runs = []
    start = time.perf_counter()
    for _ in range(500):
        eq = _random_instance(rng, 5, 4)
        ss = solver.solve(eq)
        runs.append((eq, ss))
    return runs, time.perf_counter() - start


def test_criterion_4_soundness(soundness_runs):
    runs, elapsed = soundness_runs
    ok = elapsed < 60.0
    for eq, ss in runs:
        q = eq.ctx.Q
        qn = 1.0 + np.linalg.norm(q, "fro")
        mats = eq.mats
        coeff_norm = max(np.linalg.norm(a, "fro") for a in mats)
        for s in ss.solutions:
            rel_scale = (1.0 + np.linalg.norm(s.X, "fro")) ** eq.n * (1.0 + coeff_norm)
            if s.residual > 1e-8 * rel_scale:
                ok = False
            comm = np.linalg.norm(s.X @ q - q @ s.X, "fro")
            if comm > 1e-8 * (1.0 + np.linalg.norm(s.X, "fro")) * qn:
                ok = False
    _report(4, f"soundness on 500 instances ({elapsed:.1f}s)", ok)


def test_criterion_5_count_law(soundness_runs):
    runs, _ = soundness_runs
    ok = True
    for eq, ss in runs:
        if len(ss.solutions) != np.prod(ss.counts):
            ok = False
        if ss.total > eq.n ** eq.ctx.d:
            ok = False
    _report(5, "count law on 500 instances", ok)


def test_criterion_6_plant_and_recover():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        ctx = random_context(rng, d)
        planted = []
        for _ in range(d):
            while True:
                rs = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
                diff = np.abs(rs[:, None] - rs[None, :])
                if n == 1 or np.min(diff[~np.eye(n, dtype=bool)]) > 0.3:
                    break
            planted.append(rs)
        # g_i = prod (x - r_ij); coefficient k of the matrix equation takes
        # the value of g_i's x^(n-k) coefficient at eigenvalue i
        coeff_vals = np.empty((n, d), dtype=complex)
        for i in range(d):
            g = monic_from_roots(planted[i])
            for k in range(1, n + 1):
                coeff_vals[k - 1, i] = g[n - k]
        eq = solver.MatrixPolyEquation(ctx, [coeff_vals[k] for k in range(n)])
        ss = solver.solve(eq)
        expected = [
            algebra.from_diag_coords(ctx, np.array(tup))
            for tup in itertools.product(*planted)
        ]
        if len(ss.solutions) != len(expected):
            ok = False
            continue
        if match_matrices(expected, [s.X for s in ss.solutions]) > 1e-7:
            ok = False
    _report(6, "plant-and-recover on 100 instances", ok)


def test_criterion_7_path_equivalence():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        w = rng.uniform(0.5, 2, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        spec = qc.WeightedCirculantSpec.from_weights(w)
        coeffs = [rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d) for _ in range(n)]
        ctx_s = qc.weighted_circulant_context(spec)
        ctx_g = qc.make_context(qc.weighted_circulant_matrix(spec))
        xs = [s.X for s in solver.solve(repr_poly_equation(ctx_s, coeffs)).solutions]
        ys = [s.X for s in solver.solve(repr_poly_equation(ctx_g, coeffs)).solutions]
        if len(xs) != len(ys) or match_matrices(xs, ys) > 1e-7:
            ok = False
    for _ in range(50):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        lam = random_distinct(rng, d, box=2.0, gap=0.3)
        coeffs = [rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d) for _ in range(n)]
        ctx_s = qc.companion_context(lam)
        ctx_g = qc.make_context(ctx_s.Q)
        xs = [s.X for s in solver.solve(repr_poly_equation(ctx_s, coeffs)).solutions]
        ys = [s.X for s in solver.solve(repr_poly_equation(ctx_g, coeffs)).solutions]
        if len(xs) != len(ys) or match_matrices(xs, ys) > 1e-7:
            ok = False
    _report(7, "structured vs generic path equivalence", ok)


def test_criterion_8_algebra_round_trips():
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(200):
        d = int(rng.integers(2, 7))
        ctx = random_context(rng, d)
        coeffs = rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)
        a = algebra.from_repr_poly(ctx, coeffs)
        back = algebra.repr_poly(ctx, a)
        got = np.zeros(d, dtype=complex)
        got[: len(back)] = back
        vcond = np.linalg.cond(np.vander(ctx.eigenvalues, increasing=True))
        if np.max(np.abs(got - coeffs)) > 1e-8 * max(1.0, vcond):
            ok = False
        u = rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)
        if np.max(np.abs(algebra.diag_coords(ctx, algebra.from_diag_coords(ctx, u)) - u)) > 1e-8:
            ok = False
        ub = rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)
        am = algebra.from_diag_coords(ctx, u)
        bm = algebra.from_diag_coords(ctx, ub)
        prod = algebra.diag_coords(ctx, am @ bm)
        hom_scale = max(1.0, np.max(np.abs(u)) * np.max(np.abs(ub))) * ctx.cond_T ** 2
        if np.max(np.abs(prod - u * ub)) > 1e-9 * hom_scale:
            ok = False
    _report(8, "algebra round trips and homomorphism", ok)


def test_criterion_9_circulant_coefficient_identity():
    rng = np.random.default_rng(17)
    ok = True
    for d in range(1, 17):
        for _ in range(5):
            a = rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d)
            omega = np.exp(2j * np.pi / d)
            eigs = qc.circulant_context(a).eigenvalues
            for i in range(1, d + 1):
                direct = eigs[i - 1]
                horner = evaluate(a, omega ** (d - i + 1))
                if abs(direct - horner) > 1e-11 * max(1.0, abs(horner)):
                    ok = False
    _report(9, "circulant coefficient identity", ok)


def test_criterion_10_degenerate_handling():
    ok = True
    try:
        qc.make_context(np.diag([1.0, 1.0, 2.0]).astype(complex))
        ok = False
    except NotDistinctEigenvalues:
        pass
    g = np.array([1, 2, 1])  # (x+1)^2
    _, mults, counts = cluster_roots(roots(g)[None], 1e-8 * scale(g), 1e-8)
    if counts.tolist() != [1] or mults.tolist() != [2]:
        ok = False
    # double root in one scalar equation still gives a total of 4
    ctx = qc.companion_context([1, 2, 3])
    ss = solver.solve(solver.MatrixPolyEquation(ctx, list(PAPER_DIAG)))
    if ss.counts != [2, 1, 2] or ss.total != 4:
        ok = False
    _report(10, "degenerate handling", ok)
