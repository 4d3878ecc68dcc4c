import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import qcomm as qc

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
    a reference that shares no code with poly.cluster_roots. Members are
    averaged in index order, and clusters sorted by (real, imag)."""
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
        clusters.append(qc.RootCluster(complex(members.mean()), len(members)))
    clusters.sort(key=lambda c: (c.representative.real, c.representative.imag))
    return clusters


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
