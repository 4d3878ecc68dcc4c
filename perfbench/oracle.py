"""The benchmark's own checks of qcomm's outputs, against planted answers.

Nothing here calls qcomm: counts are compared with the planted distinct-root
counts, every solution's diagonal coordinates with the planted roots, and
every solution matrix is scored by its normwise backward error

    eta(X) = ||R(X)||_F / sum_k ||A_k||_F ||X||_F^(n-k),   A_0 = I,

computed from the benchmark's own coefficient matrices.
"""

import math

import numpy as np

# A correct solution scores ~1e-15; a diagonal coordinate moved by 1e-4
# scores ~1e-5.
ETA_TOL = 1e-10
# Relative distance a diagonal coordinate may keep from its planted root.
ROOT_TOL = 1e-8
BATCH = 2048


def backward_errors(xs, mats):
    """eta(X) for a stack of solutions xs (m, d, d); mats lists A_1..A_n."""
    xs = np.asarray(xs, dtype=complex)
    d = xs.shape[-1]
    n = len(mats)
    acc = xs + mats[0]
    for a in mats[1:]:
        acc = acc @ xs + a
    resid = np.linalg.norm(acc, axis=(1, 2))
    xn = np.linalg.norm(xs, axis=(1, 2))
    norms = [math.sqrt(d)] + [float(np.linalg.norm(a)) for a in mats]
    scale = sum(norms[k] * xn ** (n - k) for k in range(n + 1))
    return resid / scale


def root_index(us, roots_by_index):
    """For each solution row of us (m, d), the planted root each u_i matches.

    Returns (idx, dist): idx[s, i] indexes roots_by_index[i]; dist is the
    relative distance to that root.
    """
    us = np.asarray(us, dtype=complex)
    idx = np.empty(us.shape, dtype=np.int64)
    dist = np.empty(us.shape)
    for i, roots in enumerate(roots_by_index):
        roots = np.asarray(roots)
        gap = np.abs(us[:, i, None] - roots[None, :])
        idx[:, i] = np.argmin(gap, axis=1)
        dist[:, i] = gap[np.arange(len(us)), idx[:, i]] / (1.0 + np.abs(roots[idx[:, i]]))
    return idx, dist


def check_counts(counts, total, planted_counts):
    """Per-index counts and their product equal the planted ones."""
    planted_counts = [int(c) for c in planted_counts]
    return [int(c) for c in counts] == planted_counts and int(total) == math.prod(
        planted_counts
    )


def check_solutions(us, xs, roots_by_index, mats):
    """Each u_i sits on a planted root of g_i, every planted root tuple
    appears exactly once, and every X has a small backward error.

    us is (m, d) and xs (m, d, d), in the same order; roots_by_index lists the
    distinct planted roots of each g_i in the solver's index order.
    """
    us = np.asarray(us, dtype=complex)
    radix = [len(r) for r in roots_by_index]
    if len(us) != math.prod(radix) or len(xs) != len(us):
        return False
    idx, dist = root_index(us, roots_by_index)
    if np.max(dist, initial=0.0) > ROOT_TOL:
        return False
    code = np.ravel_multi_index(idx.T, radix)
    if len(np.unique(code)) != len(us):
        return False
    for lo in range(0, len(us), BATCH):
        if np.max(backward_errors(xs[lo : lo + BATCH], mats)) > ETA_TOL:
            return False
    return True
