"""Seeded inputs with planted answers: roots, eigenvalues and eigenbases.

Every generated polynomial is expanded from its planted roots in Leja order,
which keeps the coefficients accurate to rounding even at degree 256 with
roots on the unit circle (expanding in angle order does not: at degree 128
the coefficients then carry noise far above the roots' own spacing). The
generator checks its own output before handing it out.
"""

import math

import numpy as np

# Relative residual a planted root (and, for a multiple root, the leading
# derivatives) may leave in the expanded coefficients.
PLANT_TOL = 1e-12


class PlantingError(RuntimeError):
    """A generated polynomial does not have the roots it was planted with."""


def leja_order(z):
    """Reorder points so each maximizes the product of distances to those before."""
    z = np.asarray(z, dtype=complex)
    m = len(z)
    if m == 0:
        return z
    order = [int(np.argmax(np.abs(z)))]
    with np.errstate(divide="ignore"):
        logdist = np.log(np.abs(z - z[order[0]]))
        logdist[order[0]] = -np.inf
        taken = np.zeros(m, dtype=bool)
        taken[order[0]] = True
        for _ in range(m - 1):
            cand = np.where(taken, -np.inf, logdist)
            j = int(np.argmax(cand))
            if not np.isfinite(cand[j]):
                # Only repeats of chosen points remain; their order is free.
                j = int(np.flatnonzero(~taken)[0])
            order.append(j)
            taken[j] = True
            logdist = logdist + np.log(np.abs(z - z[j]))
    return z[order]


def expand_roots(z):
    """Ascending coefficients of the monic polynomial prod (x - z_j)."""
    c = np.array([1.0 + 0.0j])
    for r in leja_order(z):
        c = np.concatenate(([0.0j], c)) - r * np.concatenate((c, [0.0j]))
    return c


def _relative_residual(c, r):
    """|p(r)| / sum_j |c_j| |r|^j: backward error of r as a root of p."""
    powers = np.abs(r) ** np.arange(len(c))
    return abs(np.polynomial.polynomial.polyval(r, c)) / float(np.abs(c) @ powers)


def check_planted(c, distinct, mult):
    """Raise PlantingError unless each distinct root, with multiplicity m,
    zeroes the polynomial and its first m-1 derivatives to PLANT_TOL."""
    if len(c) - 1 != int(np.sum(mult)):
        raise PlantingError("degree does not match the planted multiplicities")
    for r, m in zip(distinct, mult):
        dc = c
        for k in range(int(m)):
            res = _relative_residual(dc, r)
            if res > PLANT_TOL:
                raise PlantingError(
                    f"root {r:.6g} (multiplicity {m}): derivative {k} "
                    f"residual {res:.2e} exceeds {PLANT_TOL:.0e}"
                )
            dc = np.polynomial.polynomial.polyder(dc)


def planted_poly(distinct, mult):
    """Checked ascending coefficients of prod (x - r_j)^(m_j)."""
    c = expand_roots(np.repeat(np.asarray(distinct, dtype=complex), mult))
    check_planted(c, distinct, mult)
    return c


def circle_points(rng, m, jitter=0.3, radius_spread=0.02):
    """m points near the unit circle in random order, angles jittered on a
    regular grid so neighbours stay at least (1-2*jitter)*2pi/m apart."""
    theta = 2 * np.pi * (np.arange(m) + rng.uniform(-jitter, jitter, m)) / m
    radius = 1.0 + rng.uniform(-radius_spread, radius_spread, m)
    pts = radius * np.exp(1j * (theta + rng.uniform(0, 2 * np.pi)))
    return pts[rng.permutation(m)]


def grid_points(rng, m, box=2.0, jitter=0.25):
    """m complex points in [-box, box]^2, one per randomly chosen cell of a
    jittered square grid, so any two are at least (1-2*jitter) cells apart."""
    side = math.ceil(math.sqrt(m))
    step = 2.0 * box / side
    cells = rng.choice(side * side, size=m, replace=False)
    centre = -box + step * (np.stack([cells % side, cells // side]) + 0.5)
    xy = centre + step * rng.uniform(-jitter, jitter, (2, m))
    return xy[0] + 1j * xy[1]


def random_basis(rng, d):
    """A random complex basis U (I + E) with U unitary and ||E||_2 ~ 0.4, so
    its condition number stays below ~3 at every size."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return u @ (np.eye(d) + 0.15 * g / math.sqrt(d))


def pair_up(planted, found, tol):
    """For each found value, the index of the planted value it equals to
    within tol * (1 + |planted|); None unless that pairing is one-to-one."""
    planted = np.asarray(planted)
    found = np.asarray(found)
    if len(found) != len(planted):
        return None
    dist = np.abs(found[:, None] - planted[None, :])
    idx = np.argmin(dist, axis=1)
    near = dist[np.arange(len(found)), idx] <= tol * (1.0 + np.abs(planted[idx]))
    if not np.all(near) or len(np.unique(idx)) != len(planted):
        return None
    return idx
