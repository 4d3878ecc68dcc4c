import json
import os

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import qcomm as qc
from qcomm import problems

OMEGA3 = np.exp(2j * np.pi / 3)


def random_distinct(rng, d, box=3.0, gap=0.1):
    """d complex values with pairwise distance >= gap."""
    while True:
        lam = rng.uniform(-box, box, d) + 1j * rng.uniform(-box, box, d)
        diff = np.abs(lam[:, None] - lam[None, :])
        if d == 1 or np.min(diff[~np.eye(d, dtype=bool)]) >= gap:
            return lam


def random_basis(rng, d, max_cond=50.0):
    while True:
        t = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if np.linalg.cond(t) <= max_cond:
            return t


def random_context(rng, d, gap=0.1):
    """Context for a random diagonalizable Q with well-separated eigenvalues."""
    lam = random_distinct(rng, d, gap=gap)
    t = random_basis(rng, d)
    q = (t * lam) @ np.linalg.inv(t)
    return qc.make_context(q)


def horner_residual(mats, x):
    """||X^n + A_1 X^(n-1) + ... + A_n||_F for one candidate, one matrix at
    a time: a reference that shares no code with MatrixPolyEquation.certify."""
    acc = x + mats[0]
    for a in mats[1:]:
        acc = acc @ x + a
    return float(np.linalg.norm(acc))


def single_linkage_reference(rs, tol_abs, tol_rel):
    """Clusters of rs by a flood fill that tests one pair of roots at a time:
    a reference that shares no code with poly.cluster_roots. Returns
    (representative, multiplicity) pairs: members are averaged in index
    order, and clusters sorted by (real, imag)."""
    rs = [complex(r) for r in rs]
    unseen = list(range(len(rs)))
    clusters = []
    while unseen:
        comp = [unseen.pop(0)]
        frontier = list(comp)
        while frontier:
            a = frontier.pop()
            for b in list(unseen):
                if abs(rs[a] - rs[b]) <= tol_abs + tol_rel * max(abs(rs[a]), abs(rs[b])):
                    unseen.remove(b)
                    comp.append(b)
                    frontier.append(b)
        members = np.array([rs[j] for j in sorted(comp)])
        clusters.append((complex(members.mean()), len(members)))
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return clusters


def per_polynomial_reference(asc, tol):
    """(clusters, swing) of each row of asc at cluster tolerance tol, one
    polynomial at a time: a reference that shares no code with
    poly.stack_roots or poly.cluster_roots. Roots are the eigenvalues of one
    2-D companion matrix per row, polished by one Newton step evaluated with
    Polynomial.__call__, then clustered by single_linkage_reference; swing
    is None, or the (merged, split) counts at 4x and 1/4 of tol when either
    differs from the count at tol."""
    out = []
    for row in asc:
        p = qc.Polynomial(row)
        n = p.degree
        comp = np.zeros((n, n), dtype=complex)
        comp[1:, :-1] = np.eye(n - 1)
        comp[:, -1] = -(p.coeffs[:-1] / p.coeffs[-1])
        rs = np.linalg.eigvals(comp)
        pv = p(rs)
        dv = qc.Polynomial(p.coeffs[1:] * np.arange(1, n + 1))(rs)
        rs = rs - np.where(np.abs(dv) > 0, pv / np.where(np.abs(dv) > 0, dv, 1.0), 0.0)
        s = max(1.0, float(np.max(np.abs(p.coeffs)) / abs(p.coeffs[-1])))
        clusters = single_linkage_reference(rs, tol * s, tol)
        merged = len(single_linkage_reference(rs, tol * s * 4, tol * 4))
        split = len(single_linkage_reference(rs, tol * s / 4, tol / 4))
        swing = None if merged == split == len(clusters) else (merged, split)
        out.append((clusters, swing))
    return out


def roots_by_index(ss):
    """A SolutionSet's flat roots split into one array per index."""
    return np.split(ss.roots, np.cumsum(ss.counts)[:-1])


def match_matrices(xs, ys):
    """Max Frobenius distance under the optimal pairing of two equal-size sets."""
    assert len(xs) == len(ys)
    cost = np.array([[np.linalg.norm(x - y, "fro") for y in ys] for x in xs])
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


def match_values(xs, ys):
    """Max distance under the optimal pairing of two complex value multisets."""
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    assert len(xs) == len(ys)
    cost = np.abs(xs[:, None] - ys[None, :])
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


def generic_problem_doc(rng, d, n):
    """qcomm/1 problem on a random generic Q whose d scalar polynomials have
    n random (so, almost surely distinct) roots each: n**d solutions."""
    ctx = random_context(rng, d)
    roots = rng.uniform(-1, 1, (d, n)) + 1j * rng.uniform(-1, 1, (d, n))
    coords = np.array([np.poly(r) for r in roots]).T[1:]  # A_k's diag coords
    return {
        "schema": problems.SCHEMA,
        "q": {"matrix": problems.emit(ctx.Q)},
        "degree": n,
        "coefficients": [{"diag_coords": problems.emit(c)} for c in coords],
    }


def near_member_problem_doc(rng):
    """qcomm/1 problem, d=4 and n=2, whose matrix coefficients carry
    non-commuting noise of relative size 1e-8, so that the certificate flags
    all 16 solutions."""
    ctx = random_context(rng, 4)
    roots = rng.uniform(-1, 1, (4, 2)) + 1j * rng.uniform(-1, 1, (4, 2))
    mats = []
    for c in (-(roots[:, 0] + roots[:, 1]), roots[:, 0] * roots[:, 1]):
        a = qc.from_diag_coords(ctx, c)
        noise = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mats.append(a + 1e-8 * np.linalg.norm(a) * noise)
    return {
        "schema": problems.SCHEMA,
        "q": {"matrix": problems.emit(ctx.Q)},
        "degree": 2,
        "coefficients": [{"matrix": problems.emit(a)} for a in mats],
    }


# References for the CLI reports, sharing no code with cli's writers: the
# JSON documents are nested lists written by json.dump(indent=2), and every
# text number is one format() call.


def assert_same_text(got, want):
    """got == want, reporting the first difference: pytest's own diff of
    two megabyte-long strings takes minutes."""
    if got != want:
        i = len(os.path.commonprefix([got, want]))
        lo = max(0, i - 60)
        raise AssertionError(
            f"first difference at {i} of {len(got)} and {len(want)} characters: "
            f"got {got[lo : i + 60]!r}, want {want[lo : i + 60]!r}"
        )


def solve_json_reference(ctx, sol_set):
    doc = {
        "schema": problems.SCHEMA,
        "eigenvalues": problems.emit(ctx.eigenvalues),
        "scalar_polys": problems.emit(sol_set.scalar_polys),
        "counts": sol_set.counts,
        "total": sol_set.total,
        "solutions": [
            {
                "indices": list(s.indices),
                "u": problems.emit(s.u),
                "matrix": problems.emit(s.X),
                "residual": s.residual,
            }
            for s in sol_set.solutions
        ],
        "warnings": sol_set.warnings,
    }
    return json.dumps(doc, indent=2) + "\n"


def complex_text_reference(z):
    return format(z.real, "+.12g") + format(z.imag, "+.12g") + "j"


def matrix_text_reference(m):
    return "".join(
        "  [" + ", ".join(complex_text_reference(z) for z in row) + "]\n" for row in m
    )


def solve_text_reference(ctx, sol_set):
    """stdout of `qcomm solve` without --json; its warnings go to stderr."""
    out = ["eigenvalues: " + ", ".join(map(complex_text_reference, ctx.eigenvalues)) + "\n"]
    for i, g in enumerate(sol_set.scalar_polys):
        out.append(f"g_{i + 1} coeffs (ascending): [" + ", ".join(map(complex_text_reference, g)) + "]\n")
    out.append(f"distinct-root counts: {tuple(sol_set.counts)}\n")
    out.append(f"total solutions: {sol_set.total}\n")
    for s in sol_set.solutions:
        out.append(f"solution {s.indices}  residual {format(s.residual, '.3e')}\n")
        out.append(matrix_text_reference(s.X))
    return "".join(out)


def diag_json_reference(ctx, verify):
    doc = {
        "schema": problems.SCHEMA,
        "provenance": ctx.provenance,
        "eigenvalues": problems.emit(ctx.eigenvalues),
        "cond_T": ctx.cond_T,
        "min_gap": ctx.min_gap,
        "verification_residual": verify,
        "T": problems.emit(ctx.T),
        "T_inv": problems.emit(ctx.T_inv),
    }
    return json.dumps(doc, indent=2) + "\n"


def diag_text_reference(ctx, verify):
    return (
        f"provenance: {ctx.provenance}\n"
        + "eigenvalues: " + ", ".join(map(complex_text_reference, ctx.eigenvalues)) + "\n"
        + f"cond_T: {format(ctx.cond_T, '.6e')}\n"
        + f"min_gap: {format(ctx.min_gap, '.6e')}\n"
        + f"verification residual: {format(verify, '.6e')}\n"
        + "T:\n"
        + matrix_text_reference(ctx.T)
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
