"""Dense-matrix oracles for the benchmark's checks.

Each function recomputes a quantity from its definition with plain numpy on
a full distance matrix. None of them calls coarsecalc, so a wrong library
output cannot also be the expected value. They are meant for spaces of at
most a few hundred points.
"""

import numpy as np


def coord_distances(coords, p):
    """All pairwise l^p distances (p in 1, 2, inf) between rows of coords."""
    diff = np.abs(coords[:, None, :] - coords[None, :, :])
    if p == 1:
        return diff.sum(axis=2)
    if p == 2:
        return np.sqrt((diff * diff).sum(axis=2))
    return diff.max(axis=2)


def boundary_measure(dist, mu, subset, h):
    """mu of [A]_h & [A^c]_h, with [S]_h = {x : d(x, S) <= h}."""
    inside = np.zeros(dist.shape[0], dtype=bool)
    inside[subset] = True
    near_a = (dist[:, inside] <= h).any(axis=1)
    near_c = (dist[:, ~inside] <= h).any(axis=1)
    return float(mu[near_a & near_c].sum())


def pairs_within(coords, h, chunk=256):
    """Number of ordered pairs (x, y), x == y included, at Euclidean
    distance <= h, counted a block of rows at a time."""
    total = 0
    for s in range(0, coords.shape[0], chunk):
        diff = coords[s:s + chunk, None, :] - coords[None, :, :]
        total += int((np.sqrt((diff * diff).sum(axis=2)) <= h).sum())
    return total


def grad_sup(dist, f, h):
    """max over d(x, y) <= h of |f(y) - f(x)|, for every x."""
    dev = np.abs(f[None, :] - f[:, None])
    return np.where(dist <= h, dev, 0.0).max(axis=1)


def ball_average_form(dist, mu, h):
    """Matrix Q with f^T Q f = sum_x mu(x)/V(x) sum_{y in B(x,h)}
    (f(y) - f(x))^2 mu(y), the squared ball-averaged gradient norm."""
    n = dist.shape[0]
    q = np.zeros((n, n))
    for x in range(n):
        ball = np.flatnonzero(dist[x] <= h)
        w = mu[x] * mu[ball] / mu[ball].sum()
        q[x, x] += w.sum()
        q[ball, ball] += w
        q[x, ball] -= w
        q[ball, x] -= w
    return q


def j2(q, mu, subset):
    """J_2 of a subset: the inverse square root of the smallest generalized
    eigenvalue of the form q against mu, on fields supported in it."""
    idx = np.asarray(subset)
    root = np.sqrt(mu[idx])
    lam = np.linalg.eigvalsh(q[np.ix_(idx, idx)] / np.outer(root, root))[0]
    return float(lam ** -0.5)


def j2_profile(q, mu, volumes):
    """Exact j(v) = max of J_2 over proper subsets of measure <= v, by
    enumerating every subset."""
    n = mu.size
    best = np.full(len(volumes), -np.inf)
    for mask in range(1, (1 << n) - 1):
        idx = np.flatnonzero((mask >> np.arange(n)) & 1)
        value = j2(q, mu, idx)
        m = mu[idx].sum()
        for i, v in enumerate(volumes):
            if m <= v:
                best[i] = max(best[i], value)
    return best


def kernel_grad_sq(dens, mu, f):
    """sum_x mu(x) sum_y (f(y) - f(x))^2 p_x(y) mu(y) for a dense kernel."""
    dev = (f[None, :] - f[:, None]) ** 2
    return float(mu @ ((dev * dens) @ mu))


def linf_box_ball_sizes(L, h):
    """|B(x, h)| on the L x L integer box with the l-infinity metric."""
    r = int(np.floor(h))
    c = np.arange(L)
    per_axis = np.minimum(L - 1, c + r) - np.maximum(0, c - r) + 1
    return np.outer(per_axis, per_axis).ravel()


def box_spectral_radius(L):
    """Top eigenvalue of the nearest-neighbour walk on the L x L box,
    killed at the boundary: cos(pi / (L + 1))."""
    return float(np.cos(np.pi / (L + 1)))
