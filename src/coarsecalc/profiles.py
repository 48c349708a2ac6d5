"""Isoperimetric profiles, Sobolev/Nash verification, and expansion
diagnostics.

The central quantity is the subset constant

    J_p(A) = sup over fields f supported in A of ||f||_p / ||grad f||_p,

where the gradient is selected by a :class:`Backend` (sup-gradient at a
scale, ball-averaged L^p gradient, or a viewpoint gradient) and all norms
are against the space measure. Exact values:

* p = 2 with a symmetric viewpoint or ball-average backend: smallest
  generalized eigenvalue of the gradient quadratic form (J_2 = lambda^-1/2);
* p = 1: indicator form, max over subsets B of A of mu(B) / (boundary or
  cut weight of B), enumerated exactly up to EXACT_ENUM_LIMIT points;
* p = inf: chain in-radius, the maximal number of support-relation steps
  needed to leave A (a BFS; the optimizer is the step-count field itself).

Everything else (other p, large subsets) is reported as a ``lower_bound``
with the search family documented in the curve metadata. A nonzero field
with vanishing gradient norm makes J infinite; that sentinel is returned
(never a silent large float) with the reason, and it is the expected answer
when A is the whole space or contains points isolated at the scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from coarsecalc.calculus import (
    dirichlet_eigenvalue, grad_lp, grad_sup, grad_viewpoint, gradient_pairs,
    lp_norm, l2_gradient_form, symmetric_eig)
from coarsecalc.space import boundary as boundary_at_scale
from coarsecalc.viewpoint import is_symmetric

EXACT_ENUM_LIMIT = 18
EXACT_J2_LIMIT = 2000      # exact lp J_2 assembles a dense block on A
DESCENT_RESTARTS = 8
DESCENT_ITERS = 500
DESCENT_TOL = 1e-8


# ----------------------------------------------------------------------
# gradient backends


@dataclass(frozen=True)
class Backend:
    """Selects the gradient notion used by profile computations.

    kind "sup" and "lp" carry a scale h; kind "viewpoint" carries a
    Viewpoint (whose scale is vp.h).
    """

    kind: str
    h: Optional[float] = None
    vp: object = None

    @staticmethod
    def sup(h):
        return Backend("sup", h=float(h))

    @staticmethod
    def lp(h):
        return Backend("lp", h=float(h))

    @staticmethod
    def viewpoint(vp):
        return Backend("viewpoint", vp=vp)

    @property
    def scale(self):
        return self.vp.h if self.kind == "viewpoint" else self.h

    def gradient(self, space, f, p):
        if self.kind == "sup":
            return grad_sup(space, f, self.h)
        if self.kind == "lp":
            return grad_lp(space, f, self.h, p)
        if self.kind == "viewpoint":
            return grad_viewpoint(self.vp, f, p)
        raise ValueError(f"unknown backend kind {self.kind!r}")

    def pair_weights(self, space):
        """COO arrays (rows, cols, w) with ||grad 1_B||_1 = cut weight of B
        (sum of w over ordered pairs crossing the cut). None for "sup"."""
        if self.kind == "sup":
            return None
        return gradient_pairs(space, self.h, self.vp)

    def relation_rows(self, space):
        """Support relation {x ~ y} as CSR arrays (indptr, indices): the
        kernel rows for a viewpoint (possibly empty), else the closed balls
        at the scale."""
        if self.kind == "viewpoint":
            return self.vp.dens.indptr, self.vp.dens.indices
        return space.neighbourhoods(self.h)[:2]

    def describe(self):
        if self.kind == "viewpoint":
            return f"viewpoint(h={self.vp.h:g}, kind={self.vp.kind})"
        return f"{self.kind}(h={self.h:g})"


# ----------------------------------------------------------------------
# rate functions


class RateFunction:
    """A nonnegative nondecreasing rate v -> phi(v).

    Kinds: ``power`` (coef * v^exponent), ``log_power``
    (coef * v^b * (1 + log(1 + v))^a), ``tabulated`` (monotone linear
    interpolation, clamped to the end values outside the table). The
    generalized inverse is inf{v : phi(v) >= r} (+inf when phi stays
    below r, which is how boundedness surfaces in volume checks).
    """

    def __init__(self, kind, fn, params, unbounded, sup_value=None):
        self.kind = kind
        self._fn = fn
        self.params = params
        self.unbounded = unbounded
        self.sup_value = sup_value

    @staticmethod
    def power(exponent, coef=1.0):
        if exponent < 0 or coef <= 0:
            raise ValueError("power rate needs exponent >= 0 and coef > 0")
        return RateFunction(
            "power", lambda v: coef * np.asarray(v, dtype=float) ** exponent,
            {"exponent": exponent, "coef": coef}, exponent > 0,
            None if exponent > 0 else coef)

    @staticmethod
    def log_power(log_exp, pow_exp, coef=1.0):
        if coef <= 0:
            raise ValueError("coef must be > 0")

        def fn(v):
            v = np.asarray(v, dtype=float)
            return coef * v ** pow_exp * (1.0 + np.log1p(v)) ** log_exp

        probe = fn(np.geomspace(1e-9, 1e12, 64))
        if np.any(np.diff(probe) < -1e-12 * np.abs(probe[:-1])):
            raise ValueError("log_power parameters give a decreasing rate")
        unbounded = pow_exp > 0 or (pow_exp == 0 and log_exp > 0)
        return RateFunction("log_power", fn,
                            {"log_exp": log_exp, "pow_exp": pow_exp,
                             "coef": coef}, unbounded,
                            None if unbounded else float(probe[-1]))

    @staticmethod
    def tabulated(args, values):
        args = np.asarray(args, dtype=float)
        values = np.asarray(values, dtype=float)
        order = np.argsort(args)
        args, values = args[order], values[order]
        if np.any(values < 0):
            raise ValueError("tabulated rate must be nonnegative")
        if np.any(np.diff(values) < -1e-9 * np.maximum(values[:-1], 1e-300)):
            raise ValueError("tabulated rate must be nondecreasing")
        values = np.maximum.accumulate(values)  # wash out float dust

        def fn(v):
            return np.interp(np.asarray(v, dtype=float), args, values)

        return RateFunction("tabulated", fn,
                            {"args": args, "values": values}, False,
                            float(values[-1]))

    def __call__(self, v):
        out = self._fn(v)
        return float(out) if np.isscalar(v) else out

    def inverse(self, r):
        """Generalized inverse inf{v : phi(v) >= r}; +inf when unattained."""
        r = float(r)
        if self.kind == "power":
            e, c = self.params["exponent"], self.params["coef"]
            if e == 0:
                return 0.0 if c >= r else np.inf
            return (r / c) ** (1.0 / e)
        if self.kind == "tabulated":
            args, values = self.params["args"], self.params["values"]
            if r > values[-1]:
                return np.inf
            k = int(np.searchsorted(values, r, side="left"))
            if k == 0:
                return float(args[0]) if r <= values[0] else np.inf
            # linear interpolation on the segment reaching r
            v0, v1 = values[k - 1], values[k]
            a0, a1 = args[k - 1], args[k]
            if v1 == v0:
                return float(a0)
            return float(a0 + (r - v0) / (v1 - v0) * (a1 - a0))
        # log_power: monotone bisection over a wide bracket
        if not self.unbounded and self.sup_value is not None \
                and r > self.sup_value:
            return np.inf
        lo, hi = 1e-300, 1.0
        while self._fn(hi) < r and hi < 1e300:
            hi *= 4.0
        if self._fn(hi) < r:
            return np.inf
        for _ in range(200):
            mid = np.sqrt(lo * hi)
            if self._fn(mid) >= r:
                hi = mid
            else:
                lo = mid
        return float(hi)


# ----------------------------------------------------------------------
# profile curves and subset results


@dataclass(frozen=True)
class JpResult:
    """J_p of one subset: value, mode (exact | lower_bound), optimizer.

    ``value`` may be numpy.inf; then ``reason`` says why ("whole_space" or
    "isolated_at_scale") and the witness is the offending field.
    """

    value: float
    mode: str
    witness_field: Optional[np.ndarray] = None
    witness_subset: Optional[np.ndarray] = None
    reason: Optional[str] = None


@dataclass
class ProfileCurve:
    """Sampled profile: values over a grid of masses/radii with witnesses.

    ``mode`` is "exact", "lower_bound" (search family may miss the optimum)
    or "upper_bound" (infimum restricted to a family). Witnesses carry
    whatever re-evaluates the sample (subset indices, field, center/radius).
    """

    kind: str
    args: np.ndarray
    values: np.ndarray
    mode: str
    witnesses: list = dataclass_field(default_factory=list)
    meta: dict = dataclass_field(default_factory=dict)


# ----------------------------------------------------------------------
# exhaustive enumeration (at most EXACT_ENUM_LIMIT points)


def _subset_tables(space, backend, idx):
    """Measure and J_1 denominator of every subset B of ``idx``.

    Returns (mu_b, den_b) of length 2^k in mask order: bit j of mask m
    selects idx[j], so mask 0 is the empty set (the whole space is
    idx = arange(N)). The denominator is mu(boundary at scale h) of B for
    the sup backend and the cut weight ||grad 1_B||_1 otherwise. Masks are
    formed a chunk at a time, never all at once.
    """
    k = idx.size
    if k > EXACT_ENUM_LIMIT:
        raise ValueError(f"exhaustive enumeration is capped at "
                         f"EXACT_ENUM_LIMIT = {EXACT_ENUM_LIMIT} points, "
                         f"got {k}")
    n = space.n
    pw = backend.pair_weights(space)
    if pw is None:
        indptr, cols = backend.relation_rows(space)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        pos = np.full(n, -1)
        pos[idx] = np.arange(k)
        hit = pos[cols] >= 0
        # only points that see A can see B; rel[i, j]: near[i] ~ idx[j]
        near, row_of = np.unique(rows[hit], return_inverse=True)
        rel = np.zeros((near.size, k))
        rel[row_of, pos[cols[hit]]] = 1.0
        deg = np.diff(indptr)[near]
        mu_near = space.measure[near]
    else:
        rows, cols, w = pw
        wsym = csr_matrix((w, (rows, cols)), shape=(n, n))
        wsym = wsym + wsym.T
        w_a = wsym[idx][:, idx].toarray()
        rowsum = wsym[idx].toarray().sum(axis=1)
    total, chunk = 1 << k, 1 << 14
    mu_b = np.empty(total)
    den_b = np.empty(total)
    for s in range(0, total, chunk):
        e = min(s + chunk, total)
        masks = ((np.arange(s, e)[:, None] >> np.arange(k)) & 1).astype(float)
        mu_b[s:e] = masks @ space.measure[idx]
        if pw is None:
            # near[i] sees B, and sees outside B unless all deg[i] points
            # it sees are in B
            seen = masks @ rel.T
            den_b[s:e] = ((seen > 0) & (seen < deg)) @ mu_near
        else:
            den_b[s:e] = masks @ rowsum - np.einsum("ij,ij->i", masks @ w_a,
                                                    masks)
    return mu_b, den_b


def _mask_indices(mask, n):
    return np.flatnonzero((mask >> np.arange(n)) & 1)


# ----------------------------------------------------------------------
# J_p of one subset


def jp_subset(space, backend, A, p, rng=None) -> JpResult:
    """J_p(A) with the exactness ladder described in the module docstring."""
    idx = A.indices if hasattr(A, "indices") else \
        np.asarray(A, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("subset must be nonempty")
    if idx.size == space.n:
        # the constant field has zero gradient under every backend, so
        # J_p(X) = inf for all p; without this the descent path would
        # report a finite lower bound instead of the sentinel
        return _inf_result("whole_space", np.ones(space.n))
    if p == 2:
        res = _jp2(space, backend, idx)
        if res is not None:
            return res
    if p == 1:
        return _jp1(space, backend, idx)
    if np.isinf(p):
        return _jp_inf(space, backend, idx)
    return _jp_descent(space, backend, idx, p, rng)


def _inf_result(reason, field_or_subset, as_field=True):
    warnings.warn(f"J is infinite: {reason}", stacklevel=3)
    if as_field:
        return JpResult(np.inf, "exact", witness_field=field_or_subset,
                        reason=reason)
    return JpResult(np.inf, "exact", witness_subset=field_or_subset,
                    reason=reason)


def _jp2(space, backend, idx):
    """Exact J_2 via the smallest generalized eigenvalue; None if the
    backend has no quadratic form (sup) or the viewpoint is asymmetric."""
    if backend.kind == "viewpoint":
        if not is_symmetric(backend.vp).symmetric:
            return None
        res = dirichlet_eigenvalue(backend.vp, idx)
        if res.delta <= 1e-14:
            return _inf_result("isolated_at_scale", res.field)
        return JpResult(res.delta ** -0.5, "exact", witness_field=res.field)
    if backend.kind != "lp":
        return None
    if idx.size > EXACT_J2_LIMIT:
        raise ValueError("exact J_2 with the lp backend is limited to "
                         f"{EXACT_J2_LIMIT} points; use candidates")
    indptr, cols, data = _lp_form(space, backend.h)
    # dense block on idx: the entries of the rows of idx whose column is in idx
    k = idx.size
    pos = np.full(space.n, -1)
    pos[idx] = np.arange(k)
    counts = indptr[idx + 1] - indptr[idx]
    take = np.repeat(indptr[idx] - np.cumsum(counts) + counts, counts) + \
        np.arange(counts.sum())
    col = pos[cols[take]]
    keep = col >= 0
    C = np.zeros((k, k))
    C[np.repeat(np.arange(k), counts)[keep], col[keep]] = data[take[keep]]
    theta, V, _ = symmetric_eig(C, "SA")
    lam = float(theta[0])
    f = np.zeros(space.n)
    f[idx] = V[:, 0] / np.sqrt(space.measure[idx])
    if lam <= 1e-14 * max(1.0, *C.diagonal().tolist()):
        return _inf_result("isolated_at_scale", f)
    return JpResult(lam ** -0.5, "exact", witness_field=f)


def _lp_form(space, h):
    """l2_gradient_form(space, h) as read-only CSR arrays
    (indptr, indices, data) with sorted indices, each entry (x, y) divided
    by sqrt(mu(x) mu(y)). Built on first use and memoised on the space per
    scale; the form depends on the measure, so with_measure starts afresh."""
    h = float(h)
    out = space._forms.get(h)
    if out is None:
        Q = l2_gradient_form(space, h).tocsr()
        Q.sort_indices()
        root = np.sqrt(space.measure)
        rows = np.repeat(np.arange(space.n), np.diff(Q.indptr))
        out = Q.indptr, Q.indices, Q.data * (1.0 / (root[rows] *
                                                    root[Q.indices]))
        for arr in out:
            arr.flags.writeable = False
        space._forms[h] = out
    return out


def _jp1(space, backend, idx):
    """Indicator-form J_1: max over B in A of mu(B)/denom(B)."""
    # jp_subset has answered A = X, so no B inside A is the whole space
    if idx.size <= EXACT_ENUM_LIMIT:
        mu_b, den_b = _subset_tables(space, backend, idx)
        mu_b, den_b = mu_b[1:], den_b[1:]          # drop the empty set
        tol = 1e-12 * max(1.0, float(den_b.max(initial=0.0)))
        cut_off = np.flatnonzero(den_b <= tol)
        if cut_off.size:
            sub = idx[_mask_indices(cut_off[0] + 1, idx.size)]
            return _inf_result("isolated_at_scale", sub, as_field=False)
        q = mu_b / den_b
        m = int(np.argmax(q))
        sub = idx[_mask_indices(m + 1, idx.size)]
        return JpResult(float(q[m]), "exact", witness_subset=sub)
    # candidate search: balls inside A around every point of A
    best, best_sub = -np.inf, None
    radii = _radius_grid(space, idx)
    pw = backend.pair_weights(space)
    for x in idx:
        d = space.dist_row(int(x))
        for r in radii:
            b = np.flatnonzero(d <= r)
            sub = np.intersect1d(b, idx, assume_unique=False)
            if sub.size == 0:
                continue
            q, is_inf = _indicator_ratio(space, backend, sub, pw)
            if is_inf:
                return _inf_result("isolated_at_scale", sub, as_field=False)
            if q > best:
                best, best_sub = q, sub
    return JpResult(float(best), "lower_bound", witness_subset=best_sub)


def _indicator_ratio(space, backend, sub, pw):
    """(mu(B)/denom(B), denom_is_zero) for a single subset; ``pw`` is the
    cached backend.pair_weights(space) (None for the sup backend)."""
    mu_b = float(space.measure[sub].sum())
    if pw is None:
        den = boundary_at_scale(space, sub, backend.scale).measure
    else:
        ind = np.zeros(space.n)
        ind[sub] = 1.0
        rows, cols, w = pw
        den = float(np.sum(w * np.abs(ind[rows] - ind[cols])))
    if den <= 1e-12 * max(1.0, mu_b):
        return np.inf, True
    return mu_b / den, False


def _jp_inf(space, backend, idx):
    """Exact J_inf: the chain in-radius of A under the support relation."""
    indptr, cols = backend.relation_rows(space)
    if backend.kind == "viewpoint" and not is_symmetric(backend.vp).symmetric:
        raise ValueError("exact J_inf needs a symmetric support relation; "
                         "the viewpoint is not symmetric")
    in_a = np.zeros(space.n, dtype=bool)
    in_a[idx] = True
    k = np.full(space.n, -1, dtype=np.int64)
    k[~in_a] = 0
    frontier = np.flatnonzero(~in_a)   # nonempty: jp_subset caught A = X
    step = 0
    while frontier.size:
        step += 1
        front = np.zeros(space.n, dtype=bool)
        front[frontier] = True
        reached = cols[np.repeat(front, np.diff(indptr))]
        frontier = np.unique(reached[k[reached] < 0])
        k[frontier] = step
    if np.any(k[idx] < 0):
        lost = idx[k[idx] < 0]
        f = np.zeros(space.n)
        f[lost] = 1.0
        return _inf_result("isolated_at_scale", f)
    value = float(k[idx].max())
    f = np.where(in_a, k.astype(float), 0.0)
    return JpResult(value, "exact", witness_field=f)


def _energy_grad(space, backend, p):
    """F -> (e, G) for a stack F of fields, one per row: e[r] is
    ||grad F[r]||_p^p and G[r] a subgradient of it in F[r]. Every row block
    that is summed is C-contiguous and every row is summed on its own, so a
    row's result is the same bits whatever else is in the stack."""
    mu = space.measure
    n = space.n
    pw = backend.pair_weights(space)
    if pw is not None:
        rows, cols, w = pw
        keep = rows != cols
        ends = np.concatenate((rows[keep], cols[keep]))

        def energy_grad(F):
            diff = np.take(F, rows, axis=1) - np.take(F, cols, axis=1)
            mag = np.abs(diff)
            e = np.sum(w * mag ** p, axis=1)
            term = np.where(mag > 0, p * w * mag ** (p - 2) * diff, 0.0)
            term = term[:, keep]
            # per row, the pairs' first ends in pair order, then their
            # second ends: np.add.at's order on one field
            flat = (n * np.arange(F.shape[0]))[:, None] + ends
            G = np.bincount(flat.ravel(),
                            np.concatenate((term, -term), axis=1).ravel(),
                            minlength=F.size)
            return e, G.reshape(F.shape)
    else:
        indptr, cols = backend.relation_rows(space)
        src = np.repeat(np.arange(n), np.diff(indptr))
        at = np.arange(cols.size)

        def energy_grad(F):
            # row maxima at the first y reaching them (argmax's tie rule);
            # sums run in point order, the gradient's as x, y, x, y, ...
            R = F.shape[0]
            D = np.abs(np.take(F, cols, axis=1) - np.take(F, src, axis=1))
            M = np.maximum.reduceat(D, indptr[:-1], axis=1)
            first = np.minimum.reduceat(
                np.where(D == np.take(M, src, axis=1), at, cols.size),
                indptr[:-1], axis=1)
            e = np.cumsum(mu * M ** p, axis=1)[:, -1]
            # flat (x, y) pairs and their terms, x in order within a row
            ends = np.empty((R, n, 2), dtype=np.int64)
            ends[:, :, 0] = np.arange(n)
            ends[:, :, 1] = cols[first]
            ends += (n * np.arange(R))[:, None, None]
            S = np.empty((R, n, 2))
            S[:, :, 0] = mu * p * M ** (p - 1) * np.sign(
                F - np.take(F, ends[:, :, 1]))
            np.negative(S[:, :, 0], out=S[:, :, 1])
            moved = M > 0
            G = np.bincount(ends[moved].ravel(), S[moved].ravel(),
                            minlength=F.size)
            return e, G.reshape(F.shape)
    return energy_grad


def _jp_descent(space, backend, idx, p, rng):
    """Projected subgradient descent on the p-Rayleigh quotient; the
    reported J is a certified lower bound. A one-point A has a
    one-dimensional field space, so J_p({x}) is exact.

    The DESCENT_RESTARTS random starts (one normal draw of shape (R, |A|))
    advance together as the rows of one array, each for up to
    DESCENT_ITERS steps, and each step's closing energy and subgradient
    open the next step. A restart stops on its own: on a zero subgradient
    or field, or after more than 20 steps that move its quotient by under
    DESCENT_TOL. The result is that of running the restarts one after
    another: the best quotient by strict <, so the earliest restart and
    step win a tie, and a zero energy returns the field of the
    lowest-numbered restart that reaches it, at its first such step."""
    # points of A that no chain of relation pairs links to the outside
    # carry a zero-energy field
    indptr, cols = backend.relation_rows(space)
    rel = csr_matrix((np.ones(cols.size), cols, indptr),
                     shape=(space.n, space.n))
    comp = connected_components(rel, directed=False)[1]
    outside = np.setdiff1d(np.arange(space.n), idx)
    lost = idx[~np.isin(comp[idx], comp[outside])]
    if lost.size:
        f = np.zeros(space.n)
        f[lost] = 1.0
        return _inf_result("isolated_at_scale", f)
    mu = space.measure
    energy_grad = _energy_grad(space, backend, p)
    if idx.size == 1:
        f = np.zeros(space.n)
        f[idx] = 1.0
        value = (mu[idx[0]] / energy_grad(f[None])[0][0]) ** (1.0 / p)
        return JpResult(float(value), "exact", witness_field=f)

    def norms(F):
        # lp_norm row by row: an array ** 0.5 would take numpy's sqrt path
        s = np.sum(np.abs(F) ** p * mu, axis=1)
        return np.array([t ** (1.0 / p) for t in s])

    rng = np.random.default_rng(0 if rng is None else rng)
    drawn = rng.bit_generator.state
    Z = rng.normal(size=(DESCENT_RESTARTS, idx.size))
    # centred as a C-contiguous block: F[:, idx] comes back in F order,
    # whose row sums would not be a single field's
    Z -= np.average(Z, axis=1, weights=mu[idx])[:, None]
    F = np.zeros((DESCENT_RESTARTS, space.n))
    F[:, idx] = Z
    norm = norms(F)
    ids = np.flatnonzero(norm != 0)          # restart numbers, ascending
    F = F[ids] / norm[ids, None]
    best_q = np.full(DESCENT_RESTARTS, np.inf)
    best_f = np.zeros((DESCENT_RESTARTS, space.n))
    stall = np.zeros(ids.size, dtype=np.int64)
    last = np.full(ids.size, np.inf)
    inf_f, inf_id = None, DESCENT_RESTARTS
    E, G = energy_grad(F)
    for it in range(DESCENT_ITERS):
        zero = np.flatnonzero(E <= 1e-18)
        if zero.size:
            # restarts after the first to reach zero energy would not run
            inf_f, inf_id = F[zero[0]].copy(), ids[zero[0]]
            go = ids < inf_id
            F, E, G, ids, stall, last = (
                a[go] for a in (F, E, G, ids, stall, last))
        if not ids.size:
            break
        gn = p * mu * np.abs(F) ** (p - 1) * np.sign(F)
        D = G - E[:, None] * gn     # subgradient of e/norm^p at norm = 1
        D[:, outside] = 0.0
        nd = np.sqrt([d.dot(d) for d in D])   # np.linalg.norm, row by row
        go = nd != 0
        if not go.all():
            F, D, nd, ids, stall, last = (
                a[go] for a in (F, D, nd, ids, stall, last))
        F = F - (0.2 / (1.0 + 0.02 * it)) * D / nd[:, None]
        F[:, outside] = 0.0
        norm = norms(F)
        go = norm != 0
        if not go.all():
            F, norm, ids, stall, last = (
                a[go] for a in (F, norm, ids, stall, last))
        F /= norm[:, None]
        E, G = energy_grad(F)
        better = E < best_q[ids]
        best_q[ids[better]] = E[better]
        best_f[ids[better]] = F[better]
        stall = np.where(np.abs(last - E) < DESCENT_TOL * np.maximum(1.0, E),
                         stall + 1, 0)
        last = E
        go = stall <= 20
        if not go.all():
            F, E, G, ids, stall, last = (
                a[go] for a in (F, E, G, ids, stall, last))
    if inf_f is not None:
        # leave rng where one-by-one restarts leave it: they never draw
        # the starts after the one that returns
        rng.bit_generator.state = drawn
        rng.normal(size=(inf_id + 1, idx.size))
        return _inf_result("isolated_at_scale", inf_f)
    r = int(np.argmin(best_q))
    if best_q[r] == np.inf:
        raise ValueError("descent failed to produce a nonzero field")
    # best_q approximates inf of ||grad f||_p^p at ||f||_p = 1
    value = best_q[r] ** (-1.0 / p)
    return JpResult(float(value), "lower_bound",
                    witness_field=best_f[r].copy())


def _radius_grid(space, idx, cap=12):
    x0 = int(idx[0])
    d = space.dist_row(x0)
    vals = np.unique(d[np.isfinite(d)])
    vals = vals[vals > 0]
    if vals.size > cap:
        vals = vals[np.linspace(0, vals.size - 1, cap).astype(int)]
    return vals


# ----------------------------------------------------------------------
# candidate families


def candidate_subsets(space, backend=None, max_candidates=1200):
    """Documented search family: metric balls everywhere; coordinate
    sub-boxes and their complements on grids (intervals and their
    complements on paths); sublevel sets of the second eigenfield for a
    symmetric viewpoint backend.

    Complements matter: on a grid the complement of a small box can beat
    every box for boundary-to-volume ratios, and leaving them out makes the
    family provably miss exhaustive optima.
    """
    seen = set()
    out = []

    def push(indices, label):
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0 or indices.size >= space.n:
            return
        key = indices.tobytes()
        if key in seen:
            return
        seen.add(key)
        out.append((space.subset(indices), label))

    # metric balls, strided centers
    stride = max(1, space.n // 80)
    centers = range(0, space.n, stride)
    for x in centers:
        d = space.dist_row(x)
        for r in _radius_grid(space, np.array([x]), cap=10):
            push(np.flatnonzero(d <= r), f"ball({x},{r:g})")

    shape = space.meta.get("shape")
    if shape is not None:
        dims = len(shape)
        axes = [np.arange(s) for s in shape]
        coords = np.stack(np.meshgrid(*axes, indexing="ij"),
                          axis=-1).reshape(space.n, dims)
        sizes = [_strided_range(1, s) for s in shape]
        corners = [_strided_range(0, s - 1) for s in shape]
        count = 0
        for corner in _product_grid(corners):
            if count > max_candidates:
                break
            for size in _product_grid(sizes):
                if count > max_candidates:
                    break
                lo = np.array(corner)
                hi = lo + np.array(size)
                if np.any(hi > np.array(shape)):
                    continue
                inside = np.all((coords >= lo) & (coords < hi), axis=1)
                idx = np.flatnonzero(inside)
                push(idx, f"box({corner},{size})")
                push(np.flatnonzero(~inside), f"cobox({corner},{size})")
                count += 2

    if backend is not None and backend.kind == "viewpoint" and \
            is_symmetric(backend.vp).symmetric and space.n >= 3:
        _, V, _ = symmetric_eig(backend.vp.symmetric_matrix(), "LA", k=2)
        g = V[:, 0] / np.sqrt(space.measure)   # second eigenfield on L2(mu)
        levels = np.unique(g)
        if levels.size > 32:
            levels = levels[np.linspace(0, levels.size - 1, 32).astype(int)]
        for t in levels:
            push(np.flatnonzero(g <= t), f"sublevel({t:.3g})")
            push(np.flatnonzero(g > t), f"suplevel({t:.3g})")

    return out[:max_candidates]


def _strided_range(lo, hi, cap=12):
    """Integers lo..hi inclusive, thinned to about cap values."""
    vals = list(range(lo, hi + 1))
    if len(vals) > cap:
        pick = np.unique(np.linspace(0, len(vals) - 1, cap).astype(int))
        vals = [vals[i] for i in pick]
    return vals


def _product_grid(lists):
    if len(lists) == 1:
        for a in lists[0]:
            yield (a,)
        return
    for a in lists[0]:
        for rest in _product_grid(lists[1:]):
            yield (a,) + rest


# ----------------------------------------------------------------------
# profiles


def isoperimetric_profile(space, backend, p, volume_grid,
                          strategy="candidates", rng=None,
                          max_candidates=1200) -> ProfileCurve:
    """j(v) = sup over subsets of measure <= v of J_p, sampled on a grid.

    ``exact`` enumerates every proper nonempty subset (at most
    EXACT_ENUM_LIMIT points); ``candidates`` scans the documented family
    and flags the curve as a lower bound. The whole space is left out (its
    J is inf under every backend, so it would say nothing about proper
    subsets); a subset isolated at the scale keeps its infinite J, so the
    curve reads inf from the smallest volume that holds one. Each sample
    reports the first best subset in enumeration (or family) order.
    """
    volume_grid = np.asarray(volume_grid, dtype=float)
    if strategy == "exact":
        masses, values = _exact_profile_entries(space, backend, p)
        found = None
        mode = "exact"
    else:
        masses, values, found = [], [], []
        pw = backend.pair_weights(space) if p == 1 else None
        for sub, label in candidate_subsets(space, backend, max_candidates):
            if p == 1:
                # the profile is itself a subset supremum, so each candidate
                # contributes its indicator ratio directly (no inner max)
                q, is_inf = _indicator_ratio(space, backend, sub.indices, pw)
                val = np.inf if is_inf else q
            else:
                res = jp_subset(space, backend, sub.indices, p, rng=rng)
                if np.isinf(res.value) and res.reason == "whole_space":
                    continue
                val = res.value
            masses.append(sub.measure)
            values.append(val)
            found.append((sub.indices, label))
        masses, values = np.array(masses), np.array(values)
        mode = "lower_bound"
    out = np.full(volume_grid.size, np.nan)
    witnesses = [None] * volume_grid.size
    rankable = values > -np.inf          # nan never wins a strict maximum
    for i, v in enumerate(volume_grid):
        ranked = np.where(rankable & (masses <= v), values, -np.inf)
        if not np.any(ranked > -np.inf):
            continue
        j = int(np.argmax(ranked))
        sub, label = found[j] if found is not None else \
            (_mask_indices(j + 1, space.n), "exhaustive")
        out[i] = values[j]
        witnesses[i] = {"indices": sub, "label": label,
                        "measure": masses[j], "value": values[j]}
    return ProfileCurve("j_p", volume_grid, out, mode, witnesses,
                        {"p": p, "backend": backend.describe(),
                         "strategy": strategy})


def _exact_profile_entries(space, backend, p):
    """(masses, values) of the proper nonempty subsets of the space, in
    mask order from mask 1 (bit x selects point x)."""
    mu_b, den_b = _subset_tables(space, backend, np.arange(space.n))
    if p == 1:
        tol = 1e-12 * max(1.0, float(den_b.max(initial=0.0)))
        values = np.full(mu_b.size, np.inf)
        np.divide(mu_b, den_b, out=values, where=den_b > tol)
    else:
        values = np.empty(mu_b.size)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for m in range(1, mu_b.size - 1):
                values[m] = jp_subset(space, backend,
                                      _mask_indices(m, space.n), p).value
    return mu_b[1:-1], values[1:-1]


def profile_in_balls(space, backend, p, radius_grid, centers=None,
                     rng=None) -> ProfileCurve:
    """J restricted to balls: t -> max over centers of J_p(B(x, t)).

    ``centers=None`` scans every point when N <= 400, else a stride-capped
    subset (recorded in meta). Unlike subset profiles, the infinity
    sentinel is kept: a ball that swallows the whole space genuinely has
    J = inf and the curve should say so.
    """
    if centers is None:
        stride = max(1, space.n // 400)
        centers = list(range(0, space.n, stride))
    centers = list(centers)
    radius_grid = np.asarray(radius_grid, dtype=float)
    values = np.zeros(radius_grid.size)
    witnesses = [None] * radius_grid.size
    modes = set()
    for i, t in enumerate(radius_grid):
        best, wit = -np.inf, None
        for x in centers:
            ball = space.ball(int(x), t)
            res = jp_subset(space, backend, ball, p, rng=rng)
            modes.add(res.mode)
            if res.value > best:
                best = res.value
                wit = {"center": int(x), "radius": float(t),
                       "indices": ball, "value": res.value,
                       "reason": res.reason}
            if np.isinf(best):
                break
        values[i] = best
        witnesses[i] = wit
    mode = "exact" if modes <= {"exact"} else "lower_bound"
    return ProfileCurve("J_balls", radius_grid, values, mode, witnesses,
                        {"p": p, "backend": backend.describe(),
                         "centers": len(centers)})


def boundary_profile(space, h, family="all", t_grid=None):
    """(I, I_down, I_up) boundary profiles at scale h.

    I(t) = inf{mu(boundary_h A) : mu(A) >= t} over *proper nonempty*
    subsets (the whole space has empty boundary and would collapse I to 0).
    Exact by enumeration when family="all" (at most EXACT_ENUM_LIMIT
    points, the first optimum in mask order is reported); for an explicit
    family, I is the same infimum restricted to the family and is labeled
    "upper_bound". I_down/I_up are the family-restricted lower/upper
    envelopes (inf of boundary above mass t / sup of boundary below mass t)
    and are exact statements about the family itself.

    An explicit family may contain the whole space (a caller asking about
    X gets its empty boundary back); only enumeration excludes it.
    """
    if t_grid is None:
        t_grid = np.unique(np.cumsum(np.sort(space.measure)))
    t_grid = np.asarray(t_grid, dtype=float)
    if family == "all":
        subs = None
        mu_b, den_b = _subset_tables(space, Backend.sup(h),
                                     np.arange(space.n))
        masses, bounds = mu_b[1:-1], den_b[1:-1]    # proper, from mask 1
        mode_i = "exact"
    else:
        if family == "balls":
            fam = []
            for x in range(space.n):
                for r in _radius_grid(space, np.array([x]), cap=10):
                    fam.append(space.subset(space.ball(x, r)))
        else:
            fam = [a if hasattr(a, "indices") else space.subset(a)
                   for a in family]
        fam = [a for a in fam if 0 < len(a)]
        if not fam:
            raise ValueError("boundary_profile needs a nonempty family of "
                             "nonempty subsets")
        subs = fam
        masses = np.array([a.measure for a in fam])
        bounds = np.array([boundary_at_scale(space, a, h).measure
                           for a in fam])
        mode_i = "upper_bound"

    def witness(j):
        idx = _mask_indices(j + 1, space.n) if subs is None else \
            subs[j].indices
        return {"indices": idx, "measure": masses[j], "boundary": bounds[j]}

    I_vals = np.full(t_grid.size, np.nan)
    low_vals = np.full(t_grid.size, np.nan)
    up_vals = np.full(t_grid.size, np.nan)
    I_wit = [None] * t_grid.size
    low_wit = [None] * t_grid.size
    up_wit = [None] * t_grid.size
    for i, t in enumerate(t_grid):
        ge = np.flatnonzero(masses >= t)
        le = np.flatnonzero(masses <= t)
        if ge.size:
            j = ge[np.argmin(bounds[ge])]
            I_vals[i] = bounds[j]
            I_wit[i] = witness(j)
            low_vals[i] = bounds[j]
            low_wit[i] = I_wit[i]
        if le.size:
            j = le[np.argmax(bounds[le])]
            up_vals[i] = bounds[j]
            up_wit[i] = witness(j)
    fam_name = family if isinstance(family, str) else "provided"
    meta = {"h": h, "family": fam_name}
    return (ProfileCurve("I", t_grid, I_vals, mode_i, I_wit, meta),
            ProfileCurve("I_down", t_grid, low_vals, "exact", low_wit, meta),
            ProfileCurve("I_up", t_grid, up_vals, "exact", up_wit, meta))


# ----------------------------------------------------------------------
# inequality verification


@dataclass(frozen=True)
class SobolevReport:
    passes: bool
    C: float
    C_prime: float
    margins: np.ndarray
    worst_index: int
    failures: list


def sobolev_verify(space, backend, p, phi, fields) -> SobolevReport:
    """Fit the smallest C with ||f||_p <= C phi(C' mu(supp f)) ||grad f||_p
    across the samples, over C' in {1, 2, 4, 8}.

    Falsification-style: a pass is relative to the sample set. A sample
    with zero gradient norm and nonzero p-norm defeats every (C, C') and
    is reported as a hard failure.
    """
    fields = [np.asarray(f, dtype=float) for f in fields]
    if not fields:
        raise ValueError("need at least one sample field")
    lhs, grads, supports = [], [], []
    failures = []
    for i, f in enumerate(fields):
        nf = lp_norm(space, f, p)
        ng = lp_norm(space, backend.gradient(space, f, p), p)
        omega = float(space.measure[np.flatnonzero(f != 0)].sum())
        if ng == 0 and nf > 0:
            failures.append({"index": i, "reason": "zero gradient norm with "
                                                   "nonzero field"})
        lhs.append(nf)
        grads.append(ng)
        supports.append(omega)
    if failures:
        return SobolevReport(False, np.inf, np.nan,
                             np.full(len(fields), np.nan),
                             failures[0]["index"], failures)
    lhs = np.array(lhs)
    grads = np.array(grads)
    supports = np.array(supports)
    best = (np.inf, np.nan)
    for cp in (1.0, 2.0, 4.0, 8.0):
        denom = np.array([phi(cp * s) for s in supports]) * grads
        ok = denom > 0
        if not np.all(ok | (lhs == 0)):
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            need = np.where(lhs > 0, lhs / np.where(ok, denom, np.nan), 0.0)
        cmax = float(np.nanmax(need))
        if cmax < best[0]:
            best = (cmax, cp)
    C, cp = best
    if not np.isfinite(C):
        return SobolevReport(False, np.inf, np.nan,
                             np.full(len(fields), np.nan), 0, failures)
    denom = C * np.array([phi(cp * s) for s in supports]) * grads
    margins = denom - lhs
    return SobolevReport(True, C, cp, margins, int(np.argmin(margins)),
                         failures)


@dataclass(frozen=True)
class NashReport:
    passes: bool
    C: float
    margins: np.ndarray


def nash_check(space, vp, phi, fields) -> NashReport:
    """Best C on a doubling grid with
    ||f||_2^2 <= C phi^2(C ||f||_1^2 / ||f||_2^2) ||grad_{P^2,2} f||_2^2.

    The rate argument ||f||_1^2 / ||f||_2^2 is volume-like (it equals
    mu(A) for an indicator of A), which matches phi's role as a function
    of mass; the two-step gradient norm is evaluated through the energy
    identity (2 (||f||_2^2 - ||Pf||_2^2)).
    """
    from coarsecalc.calculus import p2_energy_identity

    fields = [np.asarray(f, dtype=float) for f in fields]
    norms = []
    for i, f in enumerate(fields):
        n1 = lp_norm(space, f, 1)
        if n1 == 0:
            raise ValueError(f"field {i} is zero")
        n2sq = lp_norm(space, f, 2) ** 2
        gradsq = p2_energy_identity(vp, f)[0]
        norms.append((n1, n2sq, gradsq))
    grid = [2.0 ** k for k in range(-4, 13)]
    margins = []
    for C in grid:
        margins = []
        ok = True
        for n1, n2sq, gradsq in norms:
            arg = C * n1 ** 2 / n2sq
            rhs = C * phi(arg) ** 2 * gradsq
            margins.append(rhs - n2sq)
            if rhs < n2sq:
                ok = False
        if ok:
            return NashReport(True, C, np.array(margins))
    return NashReport(False, np.inf, np.array(margins))


def cheeger(space, h, family):
    """min over the family (restricted to mu(A) <= mu(X)/2) of
    mu(boundary_h A)/mu(A), with the witness subset.

    family="all" enumerates every subset (at most EXACT_ENUM_LIMIT points)
    and reports the first minimiser in mask order; otherwise pass an
    iterable of subsets/index arrays.
    """
    half = space.total_measure / 2.0
    if isinstance(family, str) and family == "all":
        mu_b, den_b = _subset_tables(space, Backend.sup(h),
                                     np.arange(space.n))
        ok = (mu_b != 0) & (mu_b <= half)
        if not ok.any():
            raise ValueError("no subset satisfies mu(A) <= mu(X)/2")
        ratio = np.full(mu_b.size, np.inf)
        np.divide(den_b, mu_b, out=ratio, where=ok)
        m = int(np.argmin(ratio))
        return float(ratio[m]), space.subset(_mask_indices(m, space.n))
    fam = [a if hasattr(a, "indices") else space.subset(a) for a in family]
    fam = [a for a in fam if 0 < a.measure <= half]
    if not fam:
        raise ValueError("cheeger needs a nonempty family with "
                         "mu(A) <= mu(X)/2")
    best, wit = np.inf, None
    for a in fam:
        q = boundary_at_scale(space, a, h).measure / a.measure
        if q < best:
            best, wit = q, a
    return float(best), wit


@dataclass(frozen=True)
class VolumeCheckReport:
    status: str          # "pass" | "fail" | "phi_bounded"
    worst_point: int
    worst_radius: float
    worst_margin: float
    failures: list


def sinf_volume_check(space, phi, radius_grid) -> VolumeCheckReport:
    """Check the volume lower bound V(x, r) >= phi^{-1}(r) on a radius grid.

    A bounded phi cannot support the sup-norm inequality at large radii;
    that case returns a structured "phi_bounded" report instead of a
    numeric failure.
    """
    radius_grid = sorted(float(r) for r in radius_grid)
    needed = [phi.inverse(r) for r in radius_grid]
    if any(np.isinf(v) for v in needed):
        r_bad = radius_grid[int(np.argmax(np.isinf(needed)))]
        return VolumeCheckReport("phi_bounded", -1, r_bad, -np.inf, [])
    failures = []
    worst = (np.inf, -1, np.nan)
    for x in range(space.n):
        d = space.dist_row(x)
        for r, need in zip(radius_grid, needed):
            v = float(space.measure[d <= r].sum())
            margin = v - need
            if margin < worst[0]:
                worst = (margin, x, r)
            if margin < 0:
                failures.append({"x": x, "r": r, "volume": v,
                                 "required": need})
    status = "pass" if not failures else "fail"
    return VolumeCheckReport(status, worst[1], worst[2], worst[0], failures)
