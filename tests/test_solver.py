import itertools

import numpy as np
import pytest

import qcomm as qc
from qcomm import algebra, solver
from qcomm.errors import DegreeZero, DimensionMismatch, EnumerationCapExceeded, NotMember
from qcomm.poly import Polynomial

from conftest import (
    horner_residual,
    match_matrices,
    per_polynomial_reference,
    random_context,
    roots_by_index,
)

PAPER_DIAG = [np.array([-5, 2, -3], dtype=complex), np.array([4, 1, 2], dtype=complex)]


def paper31_eq():
    s = qc.WeightedCirculantSpec.from_weights([1, 1, 8])
    ctx = qc.weighted_circulant_context(s)
    return solver.MatrixPolyEquation(ctx, list(PAPER_DIAG))


def paper32_eq():
    ctx = qc.companion_context([1, 2, 3])
    return solver.MatrixPolyEquation(ctx, list(PAPER_DIAG))


def test_build_scalar_polys_paper():
    for eq in (paper31_eq(), paper32_eq()):
        gs = solver.build_scalar_polys(eq)
        assert np.max(np.abs(gs[0] - [4, -5, 1])) < 1e-10
        assert np.max(np.abs(gs[1] - [1, 2, 1])) < 1e-10
        assert np.max(np.abs(gs[2] - [2, -3, 1])) < 1e-10


def test_build_scalar_polys_zero_coefficients(rng):
    ctx = random_context(rng, 3)
    z = np.zeros((3, 3), dtype=complex)
    eq = solver.MatrixPolyEquation(ctx, [z, z, z])
    for g in solver.build_scalar_polys(eq):
        assert len(g) == 4 and g[-1] != 0  # degree 3
        assert np.max(np.abs(g[:3])) < 1e-12


def test_solve_paper31():
    ss = solver.solve(paper31_eq())
    assert ss.counts == [2, 1, 2]
    assert ss.total == 4
    assert len(ss.solutions) == 4
    assert all(s.residual < 1e-10 for s in ss.solutions)


def test_solve_linear_equation(rng):
    ctx = random_context(rng, 4)
    a1 = algebra.from_diag_coords(ctx, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    ss = solver.solve(solver.MatrixPolyEquation(ctx, [a1]))
    assert ss.total == 1
    assert np.max(np.abs(ss.solutions[0].X + a1)) < 1e-8


def test_count_solutions_paper():
    counts, total = solver.count_solutions(paper31_eq())
    assert counts == [2, 1, 2]
    assert total == 4


def test_count_all_zero_coefficients(rng):
    ctx = random_context(rng, 3)
    z = np.zeros((3, 3), dtype=complex)
    counts, total = solver.count_solutions(solver.MatrixPolyEquation(ctx, [z, z]))
    assert counts == [1, 1, 1]
    assert total == 1
    ss = solver.solve(solver.MatrixPolyEquation(ctx, [z, z]))
    assert np.max(np.abs(ss.solutions[0].X)) < 1e-6


def test_abramov_bound_random(rng):
    for _ in range(50):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 5))
        ctx = random_context(rng, d)
        coeffs = [
            rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d) for _ in range(n)
        ]
        counts, total = solver.count_solutions(solver.MatrixPolyEquation(ctx, coeffs))
        assert total == np.prod(counts)
        assert total <= n ** d


def test_input_form_independence(rng):
    ctx = random_context(rng, 3)
    u1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    as_vec = [u1, u2]
    as_mat = [algebra.from_diag_coords(ctx, u) for u in (u1, u2)]
    as_poly = [
        Polynomial(np.linalg.solve(np.vander(ctx.eigenvalues, increasing=True), u))
        for u in (u1, u2)
    ]
    sets = [
        solver.solve(solver.MatrixPolyEquation(ctx, c)).solutions
        for c in (as_vec, as_mat, as_poly)
    ]
    xs = [[s.X for s in sols] for sols in sets]
    assert match_matrices(xs[0], xs[1]) < 1e-7
    assert match_matrices(xs[0], xs[2]) < 1e-7


def test_diagonalizer_independence(rng):
    # same equation, structured closed-form T vs eigensolver T
    for _ in range(5):
        d = int(rng.integers(2, 5))
        w = rng.uniform(0.5, 2, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
        spec = qc.WeightedCirculantSpec.from_weights(w)
        coeffs = [
            Polynomial(rng.uniform(-2, 2, d) + 1j * rng.uniform(-2, 2, d))
            for _ in range(2)
        ]
        ctx_s = qc.weighted_circulant_context(spec)
        ctx_g = qc.make_context(qc.weighted_circulant_matrix(spec))
        xs = [s.X for s in solver.solve(solver.MatrixPolyEquation(ctx_s, coeffs)).solutions]
        ys = [s.X for s in solver.solve(solver.MatrixPolyEquation(ctx_g, coeffs)).solutions]
        assert len(xs) == len(ys)
        assert match_matrices(xs, ys) < 1e-7


def test_diagonalizer_independence_double_root_needs_coarser_tol():
    # the worked problem has an exact double root; through the generic
    # eigensolver the scalar coefficients pick up ~1e-14 noise, the double
    # root splits by its square root (~1e-7), and the 1e-8 default keeps the
    # halves apart. A coarser cluster_tol restores the mathematical count.
    eq_struct = paper31_eq()
    q = qc.weighted_circulant_matrix(qc.WeightedCirculantSpec.from_weights([1, 1, 8]))
    ctx_gen = qc.make_context(q)
    vals = [
        Polynomial(np.linalg.solve(np.vander(eq_struct.ctx.eigenvalues, increasing=True), v))
        for v in PAPER_DIAG
    ]
    eq_gen = solver.MatrixPolyEquation(ctx_gen, vals)
    xs = [s.X for s in solver.solve(eq_struct).solutions]
    ys = [s.X for s in solver.solve(eq_gen, cluster_tol=1e-6).solutions]
    assert match_matrices(xs, ys) < 1e-7


def test_solutions_commute_with_q():
    ss = solver.solve(paper32_eq())
    q = paper32_eq().ctx.Q
    for s in ss.solutions:
        assert np.linalg.norm(s.X @ q - q @ s.X, "fro") < 1e-8


def test_brute_force_quadratic_agreement(rng):
    # d <= 3, n = 2: re-solve each scalar quadratic by the closed formula
    for _ in range(10):
        d = int(rng.integers(2, 4))
        ctx = random_context(rng, d)
        coeffs = [rng.integers(-3, 4, d).astype(complex) for _ in range(2)]
        eq = solver.MatrixPolyEquation(ctx, coeffs)
        ss = solver.solve(eq)
        per_index = []
        for i in range(d):
            b, c = coeffs[0][i], coeffs[1][i]
            disc = np.sqrt(b * b - 4 * c + 0j)
            rs = {(-b + disc) / 2, (-b - disc) / 2}
            uniq = []
            for r in rs:
                if not any(abs(r - u) < 1e-7 for u in uniq):
                    uniq.append(r)
            per_index.append(uniq)
        expected = [
            algebra.from_diag_coords(ctx, np.array(tup))
            for tup in itertools.product(*per_index)
        ]
        got = [s.X for s in ss.solutions]
        assert len(expected) == len(got)
        assert match_matrices(expected, got) < 1e-7


def test_verify_solution_zero_case(rng):
    ctx = random_context(rng, 3)
    z = np.zeros((3, 3), dtype=complex)
    eq = solver.MatrixPolyEquation(ctx, [z, z])
    assert solver.verify_solution(eq, z) == 0


def test_verify_solution_matches_naive(rng):
    ctx = random_context(rng, 4)
    n = 3
    mats = [
        algebra.from_diag_coords(ctx, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        for _ in range(n)
    ]
    eq = solver.MatrixPolyEquation(ctx, mats)
    x = np.eye(4, dtype=complex)
    naive = np.linalg.matrix_power(x, n)
    for k, a in enumerate(mats, start=1):
        naive = naive + a @ np.linalg.matrix_power(x, n - k)
    assert abs(solver.verify_solution(eq, x) - np.linalg.norm(naive, "fro")) < 1e-12


def test_one_projection_per_equation(rng, monkeypatch):
    calls = []
    diag_coords = algebra.diag_coords

    def counted(*args, **kwargs):
        calls.append(1)
        return diag_coords(*args, **kwargs)

    monkeypatch.setattr(algebra, "diag_coords", counted)
    ctx = random_context(rng, 3)
    mats = [algebra.from_diag_coords(ctx, rng.standard_normal(3)) for _ in range(2)]
    eq = solver.MatrixPolyEquation(ctx, mats)
    solver.count_solutions(eq)
    assert "mats" not in vars(eq)  # counting builds no d x d matrices
    ss = solver.solve(eq)
    solver.verify_solution(eq, ss.solutions[0].X)
    assert len(calls) == 2


def test_non_member_coefficient_rejected():
    ctx = qc.companion_context([1, 2, 3])
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NotMember):
        solver.MatrixPolyEquation(ctx, [bad])


def test_non_finite_coefficient_rejected():
    ctx = qc.companion_context([1, 2, 3])
    for c in (np.array([np.inf, 0, 0]), Polynomial([np.nan, 1])):
        with pytest.raises(DimensionMismatch):
            solver.MatrixPolyEquation(ctx, [c])


def test_enumeration_cap(rng):
    ctx = random_context(rng, 4)
    coeffs = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3)]
    eq = solver.MatrixPolyEquation(ctx, coeffs)
    _, total = solver.count_solutions(eq)
    assert total == 81
    with pytest.raises(EnumerationCapExceeded):
        solver.solve(eq, enumeration_cap=10)
    ss = solver.solve(eq, enumeration_cap=10, truncate=True)
    assert len(ss.solutions) == 10
    assert ss.total == 81
    assert any("truncated" in w for w in ss.warnings)
    full = solver.solve(eq).solutions[:10]
    assert [s.indices for s in ss.solutions] == [s.indices for s in full]
    for s, f in zip(ss.solutions, full):
        assert np.array_equal(s.X, f.X)
        assert s.residual == f.residual


def test_truncated_enumeration_past_64_indices():
    # n^d = 2^70 solutions: the first few are still enumerated lexicographically
    d = 70
    ctx = qc.circulant_context(np.arange(1, d + 1))
    eq = solver.MatrixPolyEquation(ctx, [np.zeros(d), -np.arange(1, d + 1) ** 2])
    ss = solver.solve(eq, enumeration_cap=3, truncate=True)
    assert ss.total == 2 ** d
    assert [s.indices for s in ss.solutions] == [
        (0,) * d, (0,) * (d - 1) + (1,), (0,) * (d - 2) + (1, 0)
    ]
    assert all(s.residual < 1e-6 for s in ss.solutions)


def test_chunked_enumeration_matches_per_solution_reference(rng, monkeypatch):
    # 7 rows per chunk at d=4: 81 solutions cross 11 chunk boundaries
    monkeypatch.setattr(solver, "_CHUNK_ENTRIES", 7 * 4 ** 2)
    ctx = random_context(rng, 4)
    coeffs = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3)]
    eq = solver.MatrixPolyEquation(ctx, coeffs)
    ss = solver.solve(eq)
    product = list(itertools.product(*(range(c) for c in ss.counts)))
    assert len(product) == len(ss.solutions) == 81
    per_index = roots_by_index(ss)
    for indices, s in zip(product, ss.solutions):
        assert s.indices == indices
        assert all(type(i) is int for i in s.indices)
        u = np.array([per_index[i][j] for i, j in enumerate(indices)])
        x = algebra.from_diag_coords(ctx, u)
        assert np.max(np.abs(s.u - u)) <= 1e-12 * np.max(np.abs(u))
        assert np.max(np.abs(s.X - x)) <= 1e-12 * np.max(np.abs(x))
        r = horner_residual(eq.mats, x)
        assert abs(s.residual - r) <= 1e-12 * max(r, np.max(np.abs(x)))


def test_cluster_passes_per_polynomial(monkeypatch):
    calls = []
    cluster_roots = solver.poly.cluster_roots

    def counted(*args, **kwargs):
        calls.append(1)
        return cluster_roots(*args, **kwargs)

    monkeypatch.setattr(solver.poly, "cluster_roots", counted)
    eq = paper31_eq()
    solver.count_solutions(eq)
    assert len(calls) == 1
    calls.clear()
    ss = solver.solve(eq)
    assert len(calls) == 3
    # the 4x swing check still runs in solve: g_2's double root is flagged
    assert any("tolerance-sensitive" in w for w in ss.warnings)


def test_double_root_counts_once():
    # g with a double root contributes one distinct root, kept as multiplicity
    eq = paper32_eq()
    ss = solver.solve(eq)
    assert ss.counts == [2, 1, 2]
    assert all(type(c) is int for c in ss.counts)
    assert ss.multiplicities.tolist() == [1, 1, 2, 1, 1]


def test_solutions_enumerated_lexicographically():
    ss = solver.solve(paper31_eq())
    assert [s.indices for s in ss.solutions] == [
        (0, 0, 0),
        (0, 0, 1),
        (1, 0, 0),
        (1, 0, 1),
    ]


def planted_coords(rng, d, n, bases):
    """(n, d) diag coordinates of d monic degree-n polynomials whose roots
    are drawn from `bases` random values each, so most have repeated or
    near-coincident roots."""
    coords = np.empty((n, d), dtype=complex)
    for i in range(d):
        base = rng.uniform(-2, 2, bases) + 1j * rng.uniform(-2, 2, bases)
        rs = base[rng.integers(0, bases, n)]
        near = rng.random(n) < 0.3
        rs[near] += 10.0 ** rng.integers(-9, -2, near.sum()) * np.exp(2j * np.pi * rng.random(near.sum()))
        g = qc.from_roots(rs)
        coords[:, i] = g.coeffs[n - 1 :: -1]
    return coords


def scalar_layer(ss):
    """Everything solve derives from the scalar layer, as exact values."""
    return (
        ss.counts,
        list(zip(ss.roots.tolist(), ss.multiplicities.tolist())),
        [w for w in ss.warnings if "tolerance-sensitive" in w],
        [(s.indices, s.u.tolist()) for s in ss.solutions],
    )


def test_stacked_scalar_layer_matches_per_polynomial_reference():
    # 300+ planted polynomials, d 1..8 and n 1..8, at three tolerances:
    # counts, representatives, swing warnings and solution order are
    # bit-identical to the one-polynomial-at-a-time reference
    rng = np.random.default_rng(20261018)
    polys = 0
    while polys < 300:
        d, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        ctx = qc.circulant_context(np.arange(1, d + 1))
        eq = solver.MatrixPolyEquation(ctx, list(planted_coords(rng, d, n, rng.integers(1, n + 1))))
        asc = solver.build_scalar_polys(eq)
        polys += d
        for tol in (1e-8, 1e-6, 1e-3):
            ref = per_polynomial_reference(asc, tol)
            reps = [[r for r, _ in cs] for cs, _ in ref]
            expected = (
                [len(cs) for cs, _ in ref],
                [c for cs, _ in ref for c in cs],
                [
                    f"g_{i + 1}: distinct-root count is tolerance-sensitive "
                    f"(merged {swing[0]}, split {swing[1]}, using {len(cs)})"
                    for i, (cs, swing) in enumerate(ref)
                    if swing is not None
                ],
                [
                    (idx, [reps[i][j] for i, j in enumerate(idx)])
                    for idx in itertools.islice(itertools.product(*map(range, map(len, reps))), 50)
                ],
            )
            ss = solver.solve(eq, cluster_tol=tol, enumeration_cap=50, truncate=True)
            assert scalar_layer(ss) == expected
            assert solver.count_solutions(eq, tol)[0] == expected[0]


def test_scalar_blocks_of_one_row_match_one_block(monkeypatch):
    # at n=200 a (n, n) stack fills more than _CHUNK_ENTRIES, so each block
    # holds one row; one block for all rows gives the same bits
    rng = np.random.default_rng(5)
    d, n = 3, 200
    coords = np.empty((n, d), dtype=complex)
    for i in range(d):
        rs = np.exp(2j * np.pi * rng.random(n))
        rs[: 10 * i] = rs[10 * i : 20 * i]  # 0, 10 and 20 double roots
        coords[:, i] = qc.from_roots(rs).coeffs[n - 1 :: -1]
    eq = solver.MatrixPolyEquation(qc.circulant_context(np.arange(1, d + 1)), list(coords))
    calls = []
    stack_roots = solver.poly.stack_roots

    def counted(asc):
        calls.append(len(asc))
        return stack_roots(asc)

    monkeypatch.setattr(solver.poly, "stack_roots", counted)
    results = []
    for entries in (solver._CHUNK_ENTRIES, d * n * n):
        monkeypatch.setattr(solver, "_CHUNK_ENTRIES", entries)
        calls.clear()
        ss = solver.solve(eq, enumeration_cap=20, truncate=True)
        results.append((scalar_layer(ss), solver.count_solutions(eq)))
        assert calls == ([1] * (2 * d) if entries < n * n else [d, d])
    assert results[0] == results[1]


def test_equation_without_coefficients_raises_degree_zero():
    with pytest.raises(DegreeZero):
        solver.MatrixPolyEquation(qc.companion_context([1, 2, 3]), [])


def test_nan_residual_tol_flags_every_solution():
    ss = solver.solve(paper31_eq(), residual_tol=float("nan"))
    flagged = [w for w in ss.warnings if w.startswith("solution ")]
    assert len(flagged) == len(ss.solutions) == 4
