"""Isoperimetric profiles, Sobolev/Nash verification, and expansion
diagnostics.

The central quantity is the subset constant

    J_p(A) = sup over fields f supported in A of ||f||_p / ||grad f||_p,

where the gradient is selected by a :class:`Backend` (sup-gradient at a
scale, ball-averaged L^p gradient, or a viewpoint gradient) and all norms
are against the space measure. Exact values:

* p = 2 with any pair-weight backend (ball average, or any viewpoint):
  smallest generalized eigenvalue of the gradient form (J_2 = lambda^-1/2);
* p = 1: indicator form, max over subsets B of A of mu(B) / (boundary or
  cut weight of B), enumerated exactly up to EXACT_ENUM_LIMIT points;
* p = inf: chain in-radius, the most relation steps, read both ways, needed
  to leave A (the optimizer is the step-count field itself).

p = 2 on the sup backend is bracketed by weak duality through ball
weights: any q with each q_x a probability on B(x, h) bounds the squared
sup gradient from below by the q-weighted pair energy, so the smallest
eigenvalue of that form on A gives an upper bound on J_2(A), and the sup
quotient of its eigenfield a lower bound. Entropic mirror ascent on q
closes the gap; the value is the lower end (``lower_bound``) and the
result carries the upper end in ``upper``. It draws no random numbers.

Other p are searched by projected descent from fixed starts and reported
as a ``lower_bound``; candidate curves document their search family in
the curve metadata. J is infinite when A is the whole space or some points
of A have no chain of relation pairs to the outside (a nonzero field with
vanishing gradient); that sentinel is returned with its reason, never a
silent large float, and it is decided before any search starts.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix, issparse
from scipy.sparse.csgraph import connected_components

from coarsecalc.calculus import (
    DENSE_EIG_SIZE, _block, _form, above, grad_lp, grad_sup, grad_viewpoint,
    gradient_pairs, lp_norm, p2_energy_identity, symmetric_eig)
from coarsecalc.space import BLOCK_ENTRIES, Subset, boundary_measures
from coarsecalc.viewpoint import is_symmetric

EXACT_ENUM_LIMIT = 18
MAX_CANDIDATES = 1200
DESCENT_RESTARTS = 8
DESCENT_ITERS = 500
DESCENT_TOL = 1e-8
# the sup-backend J_2 dual stops when its ends meet within DUAL_GAP
# (relative to the lower end) or after DUAL_ITERS ascent steps
DUAL_GAP = 1e-6
DUAL_ITERS = 300


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
    interpolation, clamped to the end values outside the table).
    """

    def __init__(self, kind, fn, params, unbounded):
        self.kind = kind
        self._fn = fn
        self.params = params
        self.unbounded = unbounded

    @staticmethod
    def power(exponent, coef=1.0):
        if exponent < 0 or coef <= 0:
            raise ValueError("power rate needs exponent >= 0 and coef > 0")
        return RateFunction(
            "power", lambda v: coef * np.asarray(v, dtype=float) ** exponent,
            {"exponent": exponent, "coef": coef}, exponent > 0)

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
                             "coef": coef}, unbounded)

    @staticmethod
    def tabulated(args, values):
        args = np.asarray(args, dtype=float)
        values = np.asarray(values, dtype=float)
        if args.ndim != 1 or args.size == 0 or values.shape != args.shape:
            raise ValueError(f"tabulated rate needs nonempty args and values "
                             f"of one length, got {args.size} and "
                             f"{values.size}")
        if not (np.isfinite(args).all() and np.isfinite(values).all()):
            raise ValueError("tabulated rate must be finite")
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
                            {"args": args, "values": values}, False)

    def __call__(self, v):
        out = self._fn(v)
        return float(out) if np.isscalar(v) else out


# ----------------------------------------------------------------------
# profile curves and subset results


@dataclass(frozen=True)
class JpResult:
    """J_p of one subset: value, mode (exact | lower_bound), optimizer.

    ``value`` may be numpy.inf; then ``reason`` says why ("whole_space" or
    "isolated_at_scale") and the witness is the offending field. ``upper``
    is a certified upper bound on J_p(A) where one is known (the sup
    backend at p = 2, and one-point subsets), else inf.
    """

    value: float
    mode: str
    witness_field: Optional[np.ndarray] = None
    witness_subset: Optional[np.ndarray] = None
    reason: Optional[str] = None
    upper: float = np.inf


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
    formed a chunk at a time, never all at once. The sup boundary counts
    the balls that hold each point, as space.boundaries does.
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
        hit = pos[rows] >= 0      # the balls of A's points
        # rel[i, j]: near[i] in B(idx[j], h)
        near, row_of = np.unique(cols[hit], return_inverse=True)
        rel = np.zeros((near.size, k))
        rel[row_of, pos[rows[hit]]] = 1.0
        deg = np.bincount(cols, minlength=n)[near]    # balls holding near[i]
        mu_near = space.measure[near]
    else:
        rows, cols, w = pw
        wsym = csr_matrix((w, (rows, cols)), shape=(n, n))
        wsym = (wsym + wsym.T)[idx].toarray()
        # the cut of B sums nonnegative terms: each point's weight to the
        # outside of A, and from B to A - B (self pairs never cross)
        out = np.delete(wsym, idx, axis=1).sum(axis=1)
        w_a = wsym[:, idx] * (1.0 - np.eye(k))
    total, chunk = 1 << k, 1 << 14
    mu_b = np.empty(total)
    den_b = np.empty(total)
    for s in range(0, total, chunk):
        e = min(s + chunk, total)
        masks = ((np.arange(s, e)[:, None] >> np.arange(k)) & 1).astype(float)
        mu_b[s:e] = masks @ space.measure[idx]
        if pw is None:
            # a ball centred in B holds near[i], and one centred outside B
            # does unless all deg[i] of them are centred in B
            seen = masks @ rel.T
            den_b[s:e] = ((seen > 0) & (seen < deg)) @ mu_near
        else:
            den_b[s:e] = masks @ out + np.einsum("ij,ij->i", masks @ w_a,
                                                 1 - masks)
    return mu_b, den_b


def _space_tables(space, backend):
    """_subset_tables over the whole space. Under the sup and lp backends
    the tables are kept on the space per (kind, h), read-only; a
    viewpoint's are built on each call."""
    if backend.kind == "viewpoint":
        return _subset_tables(space, backend, np.arange(space.n))
    key = (backend.kind, float(backend.h))
    if key not in space._tables:
        tables = _subset_tables(space, backend, np.arange(space.n))
        for arr in tables:
            arr.flags.writeable = False
        space._tables[key] = tables
    return space._tables[key]


def _mask_indices(mask, n):
    return np.flatnonzero((mask >> np.arange(n)) & 1)


# ----------------------------------------------------------------------
# J_p of one subset


def jp_subset(space, backend, A, p) -> JpResult:
    """J_p(A) with the exactness ladder described in the module docstring.
    A is read as a set, as space.subset reads it. Every path is
    deterministic: the descent starts from fixed draws."""
    _check_p(p)
    idx = A.indices if hasattr(A, "indices") else \
        np.asarray(A, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("subset must be nonempty")
    # profile loops pass sorted distinct in-range indices: one comparison
    if not (np.all(idx[1:] > idx[:-1]) and 0 <= idx[0] and idx[-1] < space.n):
        idx = space.subset(idx).indices
    if idx.size == space.n:
        # the constant field has zero gradient under every backend, so
        # J_p(X) = inf for all p, whichever path would compute it
        return _inf_result("whole_space", np.ones(space.n))
    if p == 2:
        return _sup_j2(space, backend, idx) if backend.kind == "sup" else \
            _jp2(space, backend, idx)
    if p == 1:
        return _jp1(space, backend, idx)
    if np.isinf(p):
        return _jp_inf(space, backend, idx)
    return _jp_descent(space, backend, idx, p)


def _check_p(p):
    if not p >= 1:
        raise ValueError(f"J_p is defined for p in [1, inf], got p = {p}")


def _sweep(space, backend, p, members, ranks):
    """(member, value, upper, mode, reason) of J_p on each member (sorted
    distinct indices) in order, as jp_subset reports and warns; an exact
    J_2 under pair weights skips the witness field.

    ranks[j] is the place, on the sorted grid, of the first sample that
    can report member j (a ball profile has one place per radius). Each
    sample reports its first strictly best member, so member j can only
    be reported if its J beats its bar, the best value so far at its
    place (the best only grows along the grid). A pair-weight J_2 member
    whose block certifies J < bar (_j2_eig's cut) is therefore not solved:
    its row is (nan, inf, "exact", None), and NaN never wins. Every
    other member runs as it would alone, so curves, witnesses and warnings
    do not move.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    best = np.full(ranks.max(initial=-1) + 1, -np.inf)
    for idx, r in zip(members, ranks.tolist()):
        if p == 2 and backend.kind != "sup" and idx.size < space.n:
            value = _j2_eig(space, backend, idx, best[r])[0]
            row = (value, np.inf, "exact",
                   "isolated_at_scale" if value == np.inf else None)
        else:
            res = jp_subset(space, backend, idx, p)
            row = res.value, res.upper, res.mode, res.reason
        best[r:] = np.fmax(best[r:], row[0])
        yield (idx,) + row


def _inf_result(reason, field_or_subset, as_field=True, stacklevel=3):
    warnings.warn(f"J is infinite: {reason}", stacklevel=stacklevel)
    if as_field:
        return JpResult(np.inf, "exact", witness_field=field_or_subset,
                        reason=reason)
    return JpResult(np.inf, "exact", witness_subset=field_or_subset,
                    reason=reason)


def _jp2(space, backend, idx):
    """Exact J_2 via the smallest generalized eigenvalue of the gradient
    form on A of a backend with pair weights (lp or a viewpoint)."""
    value, v = _j2_eig(space, backend, idx)
    f = np.zeros(space.n)
    f[idx] = v / np.sqrt(space.measure[idx])
    return JpResult(value, "exact", witness_field=f,
                    reason="isolated_at_scale" if np.isinf(value) else None)


def _j2_eig(space, backend, idx, bar=np.inf):
    """(J_2(A), v) from the residual-checked smallest eigenpair (theta, v)
    of the form's block on A: theta ** -0.5, or inf (with its warning).

    The cut: given a finite bar > 0, a block of at most DENSE_EIG_SIZE
    points is first tested with calculus.above against
    s = bar^-2 (1 + 1e-12) + the isolation floor; the block's diagonal is
    read once, for the floor and for above's margin. If it passes, dsyevd's
    theta would exceed s, so J_2(A) would come out finite and below bar:
    (nan, None) is returned unsolved. An isolated A never passes: its
    smallest eigenvalue is at or below the floor, which s exceeds.
    """
    C = _block(_form(space, backend.h, backend.vp), idx)
    diag = C.diagonal()
    floor = 1e-14 * max(1.0, *diag.tolist())
    if 0 < bar < np.inf and idx.size <= DENSE_EIG_SIZE:
        C = C.toarray() if issparse(C) else C       # as symmetric_eig would
        bar = float(bar)                # bar^-2 overflows to inf, not raises
        if above(C, (1 + 1e-12) / bar / bar + floor, diag):
            return np.nan, None
    theta, V, _ = symmetric_eig(C, "SA")
    lam = float(theta[0])
    if lam <= floor:
        warnings.warn("J is infinite: isolated_at_scale", stacklevel=3)
        return np.inf, V[:, 0]
    return lam ** -0.5, V[:, 0]


def _jp1(space, backend, idx):
    """Indicator-form J_1: max over B in A of mu(B)/denom(B)."""
    # jp_subset has answered A = X, so no B inside A is the whole space
    fam = None
    if idx.size <= EXACT_ENUM_LIMIT:
        mu_b, den_b = _subset_tables(space, backend, idx)
        mu_b, den_b = mu_b[1:], den_b[1:]          # drop the empty set
    else:
        # candidate search: balls around every point of A, cut to A
        in_a = np.isin(np.arange(space.n), idx)
        radii = _radius_grid(space.dist_rows(idx[:1])[0])
        fam = _table(space, ((rows & in_a, fmt) for rows, fmt in
                             _ball_rows(space, idx, radii)))
        mu_b = fam.masses
        den_b = _cuts(space, backend, fam.masks(np.arange(mu_b.size)))
    q = _ratio(mu_b, den_b)
    if not q.size:                                 # no radius to search
        return JpResult(-np.inf, "lower_bound")
    j = int(np.argmax(q))                          # the first inf if any
    sub = idx[_mask_indices(j + 1, idx.size)] if fam is None else \
        fam.indices(j)
    if np.isinf(q[j]):
        return _inf_result("isolated_at_scale", sub, as_field=False)
    return JpResult(float(q[j]), "exact" if fam is None else "lower_bound",
                    witness_subset=sub)


def _family_table(space, backend, family):
    """_subset_tables' (mu_b, den_b) for a list of Subsets, in list order."""
    return np.array([b.measure for b in family]), \
        _cuts(space, backend, (b.mask() for b in family))


def _cuts(space, backend, masks):
    """_subset_tables' den_b for each set mask (N bools) of ``masks``, in
    order: mu(boundary at scale h) on the sup backend, the cut weight
    ||grad 1_B||_1 otherwise."""
    pw = backend.pair_weights(space)
    if pw is None:
        return boundary_measures(space, masks, backend.h)
    rows, cols, w = pw
    return np.array([np.sum(w * (m[rows] != m[cols])) for m in masks],
                    dtype=float)


def _ratio(mu, den):
    """mu / den, and inf where den == 0: no pair crosses the cut."""
    return np.divide(mu, den, out=np.full(mu.size, np.inf), where=den != 0)


def _jp_inf(space, backend, idx):
    """Exact J_inf: the chain in-radius of A under the support relation
    read both ways, since |f(y) - f(x)| binds a pair from either end."""
    indptr, cols = backend.relation_rows(space)
    rows = np.repeat(np.arange(space.n), np.diff(indptr))
    heads, tails = np.r_[rows, cols], np.r_[cols, rows]   # x -> y and back
    # k: steps to the outside, 0 there and inf until reached
    k = np.zeros(space.n)
    k[idx] = np.inf
    front = k == 0                     # nonempty: jp_subset caught A = X
    step = 0
    while front.any():
        step += 1
        hit = np.zeros(space.n, dtype=bool)
        hit[tails[front[heads]]] = True
        front = hit & np.isinf(k)
        k[front] = step
    if np.isinf(k).any():
        return _inf_result("isolated_at_scale", np.isinf(k) * 1.0)
    return JpResult(float(k.max()), "exact", witness_field=k)


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
            # zero differences have no finite power below p = 2
            power = np.power(mag, p - 2, out=np.zeros_like(mag),
                             where=mag > 0)
            term = p * w * power * diff
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


def _settled(space, backend, idx, p):
    """J_p(A) where no search is needed, else None: the sentinel when
    points of A have no chain of relation pairs to the outside (they carry
    a zero-energy field), and the exact value of a one-point A, whose field
    space is one-dimensional."""
    indptr, cols = backend.relation_rows(space)
    rel = csr_matrix((np.ones(cols.size), cols, indptr),
                     shape=(space.n, space.n))
    comp = connected_components(rel, directed=False)[1]
    outside = np.setdiff1d(np.arange(space.n), idx)
    lost = idx[~np.isin(comp[idx], comp[outside])]
    f = np.zeros(space.n)
    if lost.size:
        f[lost] = 1.0
        # the warning names jp_subset's call, as the search's own would
        return _inf_result("isolated_at_scale", f, stacklevel=4)
    if idx.size == 1:
        f[idx] = 1.0
        e = _energy_grad(space, backend, p)(f[None])[0][0]
        value = float((space.measure[idx[0]] / e) ** (1.0 / p))
        return JpResult(value, "exact", witness_field=f, upper=value)
    return None


def _sup_j2(space, backend, idx):
    """Sup-backend J_2(A) bracketed through ball weights q.

    For each q_x a probability on B(x, h) without x,
    |grad f|(x)^2 >= sum_y q_x(y) (f(y) - f(x))^2. So the smallest
    eigenpair (theta, v), with residual r, of the pair form with weights
    mu(x) q_x(y) on A (mu-normalised, as in _form) gives
    J_2(A) <= (theta - r)^(-1/2), and the sup quotient of f = v/sqrt(mu)
    on A is a lower end. theta is concave in q with supergradient
    mu(x) (f(y) - f(x))^2, so q climbs from uniform by entropic mirror
    steps of size 3/sqrt(k+1), scaled by the largest entry, until the best
    ends meet within DUAL_GAP or DUAL_ITERS steps have run (Beck and
    Teboulle 2003; the eigenvalue optimisation of Boyd, Diaconis and
    Xiao's fastest mixing chain). The value is the best lower end and its
    field the witness; the mode stays lower_bound."""
    settled = _settled(space, backend, idx, 2)
    if settled is not None:
        return settled
    n, k, mu = space.n, idx.size, space.measure
    indptr, cols, _ = space.neighbourhoods(backend.h)
    src = np.repeat(np.arange(n), np.diff(indptr))
    in_a = np.zeros(n, dtype=bool)
    in_a[idx] = True
    # the pairs (x, y != x) of every ball that meets A; each such ball has
    # one, since _settled has answered the points of A that see nothing
    meets = np.logical_or.reduceat(in_a[cols], indptr[:-1])
    keep = meets[src] & (src != cols)
    x, y = src[keep], cols[keep]
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    counts = np.diff(np.r_[starts, x.size])
    mu_x = mu[x]
    # row p of G holds 1/sqrt(mu) at x_p and -1/sqrt(mu) at y_p for the
    # ends in A, so G^T diag(w) G is the block on A of the pair form with
    # weights w, mu-normalised as in _form; column k, every point outside
    # A, is sliced off
    root = np.sqrt(mu[idx])
    pos = np.full(n, k)
    pos[idx] = np.arange(k)
    inv = np.r_[1.0 / root, 0.0]
    at = np.arange(x.size)
    G = csr_matrix((np.r_[inv[pos[x]], -inv[pos[y]]],
                    (np.r_[at, at], np.r_[pos[x], pos[y]])),
                   shape=(x.size, k + 1))[:, :k]
    dense = k <= DENSE_EIG_SIZE
    if dense:
        G = G.toarray()
    q = np.repeat(1.0 / counts, counts)
    lower, upper, best = -np.inf, np.inf, None
    for it in range(DUAL_ITERS):
        w = mu_x * q
        C = G.T @ (G * w[:, None] if dense else G.multiply(w[:, None]))
        theta, V, res = symmetric_eig(C, "SA")
        slack = float(theta[0] - res[0])
        if slack > 0:
            upper = min(upper, slack ** -0.5)
        f = np.zeros(n)
        f[idx] = V[:, 0] / root
        d2 = (f[y] - f[x]) ** 2
        # the squared sup gradient is zero off the balls that meet A
        grad2 = np.maximum.reduceat(d2, starts)
        quotient = float(np.sqrt(np.sum(mu[idx] * f[idx] ** 2) /
                                 np.sum(mu_x[starts] * grad2)))
        if quotient > lower:
            lower, best = quotient, f
        if upper - lower <= DUAL_GAP * lower:
            break
        s = mu_x * d2
        q = q * np.exp((3.0 / np.sqrt(it + 1)) / s.max() * s)
        q /= np.repeat(np.add.reduceat(q, starts), counts)
    # reported as the gradient module computes the witness's quotient
    value = lp_norm(space, best, 2) / lp_norm(
        space, grad_sup(space, best, backend.h), 2)
    return JpResult(value, "lower_bound", witness_field=best, upper=upper)


def _jp_descent(space, backend, idx, p):
    """Projected subgradient descent on the p-Rayleigh quotient; the
    reported J is a certified lower bound. ``_settled`` answers first: an
    infinite J and a one-point A never reach the search.

    The DESCENT_RESTARTS starts are one fixed normal draw of shape
    (R, |A|) from default_rng(0). They advance together as the rows of one
    array, each for up to DESCENT_ITERS steps, and each step's closing
    energy and subgradient open the next step. A restart stops on its own:
    on a zero subgradient or field, or after more than 20 steps that move
    its quotient by under DESCENT_TOL. The result is that of running the
    restarts one after another: the best quotient by strict <, so the
    earliest restart and step win a tie."""
    settled = _settled(space, backend, idx, p)
    if settled is not None:
        return settled
    mu = space.measure
    outside = np.setdiff1d(np.arange(space.n), idx)
    energy_grad = _energy_grad(space, backend, p)

    def norms(F):
        # lp_norm row by row: an array ** 0.5 would take numpy's sqrt path
        s = np.sum(np.abs(F) ** p * mu, axis=1)
        return np.array([t ** (1.0 / p) for t in s])

    Z = np.random.default_rng(0).normal(size=(DESCENT_RESTARTS, idx.size))
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
    E, G = energy_grad(F)
    for it in range(DESCENT_ITERS):
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
    r = int(np.argmin(best_q))
    if best_q[r] == np.inf:
        raise ValueError("descent failed to produce a nonzero field")
    # best_q approximates inf of ||grad f||_p^p at ||f||_p = 1
    value = best_q[r] ** (-1.0 / p)
    return JpResult(float(value), "lower_bound",
                    witness_field=best_f[r].copy())


def _thin(vals, cap):
    """cap entries of vals evenly spread from first to last, or all of
    them when there are no more than cap."""
    if vals.size > cap:
        return vals[np.linspace(0, vals.size - 1, cap).astype(int)]
    return vals


def _radius_grid(d, cap=12):
    """Up to cap of the row's finite positive distances, evenly spread."""
    vals = np.unique(d[np.isfinite(d)])
    return _thin(vals[vals > 0], cap)


# ----------------------------------------------------------------------
# candidate families


def candidate_subsets(space, backend=None):
    """Documented search family: metric balls everywhere; coordinate
    sub-boxes and their complements on grids (intervals and their
    complements on paths); sublevel sets of the second eigenfield for a
    symmetric viewpoint backend. At most MAX_CANDIDATES members, as
    (Subset, label) pairs in family order.

    Complements matter: on a grid the complement of a small box can beat
    every box for boundary-to-volume ratios, and leaving them out makes the
    family provably miss exhaustive optima.

    The family is built as one table (_candidate_table), which the
    candidate profile reads directly; the Subsets here are made from it.
    """
    fam = _candidate_table(space, backend)
    return [(Subset(space, fam.indices(j), float(fam.masses[j])),
             fam.label(j)) for j in range(fam.masses.size)]


class _Family:
    """A generated family as one table, in family order: member j has the
    sorted indices flat[off[j]:off[j + 1]] (int64), the measure masses[j]
    (a float, summed over those indices as a Subset's is) and the packed
    mask row packed[j]; its label is formatted only when asked for."""

    def __init__(self, n, flat, off, masses, packed, labels):
        self.n, self.flat, self.off = n, flat, off
        self.masses, self.packed, self._labels = masses, packed, labels

    def indices(self, j):
        return self.flat[self.off[j]:self.off[j + 1]]

    def label(self, j):
        fmt, i = self._labels[j]
        return fmt(i)

    def masks(self, members):
        """Yield the N-bool mask of each member in ``members``, unpacked
        BLOCK_ENTRIES / N rows at a time."""
        step = max(1, BLOCK_ENTRIES // self.n)
        for lo in range(0, len(members), step):
            yield from np.unpackbits(self.packed[members[lo:lo + step]],
                                     axis=1, count=self.n).view(bool)


def _candidate_table(space, backend=None):
    """The candidate family of candidate_subsets as a _Family."""
    return _table(space, _candidate_rows(space, backend), MAX_CANDIDATES)


def _table(space, blocks, cap=np.inf):
    """The _Family of ``blocks``, (rows, fmt) pairs of (m, N) bool member
    masks and their labels fmt(i): the one builder of generated families.
    A row is kept at its first occurrence unless it is empty or the whole
    space, and the build stops at ``cap`` members, so no later block is
    made. Kept rows are stored as indices, packed rows and one mass each."""
    n, mu = space.n, space.measure
    seen, labels, masses = set(), [], []
    flats, sizes = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    packed = [np.zeros((0, (n + 7) // 8), np.uint8)]
    for rows, fmt in blocks:
        size = np.count_nonzero(rows, axis=1)
        bits = np.packbits(rows, axis=1)
        # each packed row as one bytes object
        keys = bits.view(np.dtype((np.void, bits.shape[1])))[:, 0].tolist()
        keep = []
        for i in np.flatnonzero((size > 0) & (size < n)).tolist():
            if len(labels) + len(keep) == cap:
                break
            if keys[i] not in seen:
                seen.add(keys[i])
                keep.append(i)
        labels += [(fmt, i) for i in keep]
        flat = np.nonzero(rows[keep])[1]
        ends = np.cumsum(size[keep]).tolist()
        mu_flat = mu[flat]
        masses += [float(mu_flat[a:b].sum())
                   for a, b in zip([0] + ends[:-1], ends)]
        flats.append(flat)
        sizes.append(size[keep])
        packed.append(bits[keep])
        if len(labels) == cap:
            break
    return _Family(n, np.concatenate(flats),
                   np.r_[0, np.cumsum(np.concatenate(sizes))],
                   np.array(masses, dtype=float), np.concatenate(packed),
                   labels)


def _candidate_rows(space, backend):
    """Yield the candidate family before deduplication as (rows, fmt)
    blocks in family order: rows an (m, N) bool array of member masks,
    at most BLOCK_ENTRIES entries (one row or one pair of rows when N is
    larger), and fmt(i) the label of rows[i]. The eigenfield is solved
    only when the level rows are reached, so a family that balls and
    boxes fill never solves it."""
    yield from _ball_rows(space, range(0, space.n, max(1, space.n // 80)))
    if space.meta.get("shape") is not None:
        yield from _box_rows(space, space.meta["shape"])
    if backend is None or backend.kind != "viewpoint" or space.n < 3 or \
            not is_symmetric(backend.vp).symmetric:
        return
    # not S from _form: the eigenvalue is repeated on grids, where S's
    # last bits turn the eigenvector (0.58 on grid(2,4)) and the family
    _, V, _ = symmetric_eig(backend.vp.symmetric_matrix(), "LA", k=2)
    g = V[:, 0] / np.sqrt(space.measure)       # second eigenfield on L2(mu)
    levels = _thin(np.unique(g), 32)
    step = max(1, BLOCK_ENTRIES // (2 * space.n))
    for lo in range(0, levels.size, step):
        t = levels[lo:lo + step, None]
        rows = np.empty((2 * t.size, space.n), dtype=bool)
        np.less_equal(g, t, out=rows[0::2])
        np.greater(g, t, out=rows[1::2])
        yield rows, lambda i, t=t[:, 0]: (
            f"{'suplevel' if i % 2 else 'sublevel'}({t[i // 2]:.3g})")


def _ball_rows(space, centers, radii=None, limit=None):
    """(rows, fmt) blocks of B(x, r) for each centre x and each r of
    ``radii`` (default: the _radius_grid, cap 10, of x's row), in order:
    one comparison d <= radii per centre over dist_blocks(centers, limit),
    whose limit, if set, must be at least every radius."""
    step = max(1, BLOCK_ENTRIES // space.n)
    for xb, D in space.dist_blocks(centers, limit):
        grids = [_radius_grid(d, cap=10) if radii is None else radii
                 for d in D]
        own = np.repeat(np.arange(xb.size), [len(r) for r in grids])
        grid = np.concatenate(grids)
        for lo in range(0, grid.size, step):
            o, r = own[lo:lo + step], grid[lo:lo + step]
            rows = np.empty((r.size, space.n), dtype=bool)
            # one run of rows per centre
            ends = np.r_[np.flatnonzero(o[1:] != o[:-1]) + 1, r.size]
            for a, b in zip([0] + ends[:-1].tolist(), ends.tolist()):
                np.less_equal(D[o[a]], r[a:b, None], out=rows[a:b])
            yield rows, lambda i, x=xb[o], r=r: f"ball({x[i]},{r[i]:g})"


def _box_rows(space, shape):
    """(rows, fmt) blocks of coordinate sub-boxes, each followed by its
    complement: corners and sizes on strided ranges, the first
    MAX_CANDIDATES // 2 + 1 (corner, size) pairs that fit, in (corner,
    size) order."""
    n, dims = space.n, len(shape)
    coords = np.stack(np.meshgrid(*[np.arange(s) for s in shape],
                                  indexing="ij"), axis=-1).reshape(n, dims)
    sizes = list(itertools.product(*[_strided_range(1, s) for s in shape]))
    corners = list(itertools.product(*[_strided_range(0, s - 1)
                                       for s in shape]))
    lo, size = np.array(corners), np.array(sizes)
    # which pairs fit, a block of corners at a time until enough do
    left, pairs = MAX_CANDIDATES // 2 + 1, []
    step = max(1, BLOCK_ENTRIES // size.size)
    for c0 in range(0, len(corners), step):
        fit = np.all(lo[c0:c0 + step, None] + size <= shape, axis=2)
        c, s = np.nonzero(fit)
        pairs.append((c[:left] + c0, s[:left]))
        left -= pairs[-1][0].size
        if not left:
            break
    c, s = (np.concatenate(a) for a in zip(*pairs))
    step = max(1, BLOCK_ENTRIES // (2 * n))
    for b in range(0, c.size, step):
        cb, sb = c[b:b + step], s[b:b + step]
        # inside[k, x]: x lies in box k, one axis at a time
        inside = np.ones((cb.size, n), dtype=bool)
        for a in range(dims):
            start = lo[cb, a][:, None]
            inside &= (coords[:, a] >= start) & \
                (coords[:, a] < start + size[sb, a][:, None])
        rows = np.empty((2 * cb.size, n), dtype=bool)
        rows[0::2] = inside
        np.logical_not(inside, out=rows[1::2])
        yield rows, lambda i, cb=cb.tolist(), sb=sb.tolist(): (
            f"{'cobox' if i % 2 else 'box'}({corners[cb[i // 2]]},"
            f"{sizes[sb[i // 2]]})")


def _strided_range(lo, hi, cap=12):
    """Integers lo..hi inclusive, thinned to cap values."""
    return _thin(np.arange(lo, hi + 1), cap).tolist()


# ----------------------------------------------------------------------
# profiles


def isoperimetric_profile(space, backend, p, volume_grid,
                          strategy="candidates") -> ProfileCurve:
    """j(v) = sup over subsets of measure <= v of J_p, sampled on a grid.

    ``exact`` enumerates the proper nonempty subsets (at most
    EXACT_ENUM_LIMIT points), labelled exact when every J_p it evaluates
    is; ``candidates`` scans the documented family, a lower bound. Only
    members of measure at most max(volume_grid) are evaluated, since no
    sample can report the others: at p = 1 by their indicator ratios (the
    profile is itself a subset supremum), else as jp_subset evaluates and
    warns. The whole space is left out (its J is inf under every backend);
    an isolated subset keeps its infinite J, so the curve reads inf from
    the smallest volume that holds one. Each sample reports the first best
    member in table order, on the sup backend at p = 2 with its upper end.
    """
    _check_p(p)
    if strategy not in ("candidates", "exact"):
        raise ValueError(f"strategy must be \"candidates\" or \"exact\", "
                         f"got {strategy!r}")
    volume_grid = np.asarray(volume_grid, dtype=float)
    top = np.fmax.reduce(volume_grid, initial=-np.inf)  # NaN sets no cut
    if strategy == "exact":
        mu_b, den_b = _space_tables(space, backend)
        masks = np.flatnonzero(mu_b[1:-1] <= top) + 1
        masses, den, fam = mu_b[masks], den_b[masks], None
        members = (_mask_indices(m, space.n) for m in masks)
    else:
        fam = _candidate_table(space, backend)
        keep = np.flatnonzero(fam.masses <= top)
        masses = fam.masses[keep]
        members = (fam.indices(j) for j in keep.tolist())
        if p == 1:
            den = _cuts(space, backend, fam.masks(keep))
    uppers, modes = np.full(masses.size, np.inf), {"exact"}
    if p == 1:
        values = _ratio(masses, den)
    else:
        ranks = np.searchsorted(np.sort(volume_grid), masses)
        rows = [r[1:] for r in _sweep(space, backend, p, members, ranks)]
        values, uppers = (np.array([r[k] for r in rows], dtype=float)
                          for k in (0, 1))
        modes = {r[2] for r in rows}
    mode = "exact" if fam is None and modes <= {"exact"} else "lower_bound"

    def pick(j):
        sub, label = (_mask_indices(masks[j], space.n), "exhaustive") \
            if fam is None else (fam.indices(keep[j]), fam.label(keep[j]))
        wit = {"indices": sub, "label": label, "measure": masses[j],
               "value": values[j]}
        if backend.kind == "sup" and p == 2:
            wit["upper"] = uppers[j]
        return wit

    out, witnesses = _first_best(volume_grid, masses, values, "below", pick)
    return ProfileCurve("j_p", volume_grid, out, mode, witnesses,
                        {"p": p, "backend": backend.describe(),
                         "strategy": strategy})


def _first_best(grid, masses, values, side, pick):
    """Per g in grid: the largest value of a member of mass <= g (side
    "below") or the smallest of one of mass >= g ("above"), and pick(j) of
    the first such member j in table order; NaN and None if none fits. A
    NaN value, or an infinite one on the losing side, never wins."""
    score = values if side == "below" else -values
    rankable = score > -np.inf
    out = np.full(grid.size, np.nan)
    witnesses = [None] * grid.size
    for i, g in enumerate(grid):
        fits = rankable & (masses <= g if side == "below" else masses >= g)
        if fits.any():
            j = int(np.argmax(np.where(fits, score, -np.inf)))
            out[i], witnesses[i] = values[j], pick(j)
    return out, witnesses


def profile_in_balls(space, backend, p, radius_grid) -> ProfileCurve:
    """J restricted to balls: t -> max over centers of J_p(B(x, t)).

    The centres are every point when N <= 400, else a stride-capped
    subset (their number is recorded in meta). Each radius sweeps its balls
    in centre order and reports the first strictly best. Unlike subset
    profiles, the infinity sentinel is kept: a ball that swallows the whole
    space genuinely has J = inf and the curve should say so; the radius
    stops at its first infinite ball. On the sup backend at p = 2 each
    witness also carries the ball's ``upper`` end.
    """
    _check_p(p)
    centers = range(0, space.n, max(1, space.n // 400))
    radius_grid = np.asarray(radius_grid, dtype=float)
    values = np.zeros(radius_grid.size)
    witnesses = [None] * radius_grid.size
    modes = set()
    for i, t in enumerate(radius_grid):
        best, wit = -np.inf, None
        # each block of balls is read when the sweep reaches it
        balls = (np.flatnonzero(row) for rows, _ in
                 _ball_rows(space, centers, [t], limit=t) for row in rows)
        for x, (ball, value, upper, mode, reason) in zip(
                centers, _sweep(space, backend, p, balls,
                                np.zeros(len(centers)))):
            modes.add(mode)
            if value > best:
                best = value
                wit = {"center": x, "radius": float(t), "indices": ball,
                       "value": value, "reason": reason}
                if backend.kind == "sup" and p == 2:
                    wit["upper"] = upper
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
    points, the first optimum in mask order is reported). "balls" is the
    proper balls B(x, r), for each x with r on the _radius_grid (cap 10)
    of its distances. For "balls" or an explicit family, I is the same
    infimum restricted to the family and is labeled "upper_bound".
    I_down/I_up are the family-restricted lower/upper envelopes (inf of
    boundary above mass t / sup of boundary below mass t) and are exact
    statements about the family itself.

    An explicit family may contain the whole space (a caller asking about
    X gets its empty boundary back); "all" and "balls" leave it out.
    """
    if t_grid is None:
        t_grid = np.unique(np.cumsum(np.sort(space.measure)))
    t_grid = np.asarray(t_grid, dtype=float)
    exact = isinstance(family, str) and family == "all"
    indices, masses, bounds = _boundary_table(space, h, family)
    if not (exact or masses.size):
        raise ValueError("boundary_profile needs a nonempty family of "
                         "nonempty subsets")

    def pick(j):
        return {"indices": indices(j), "measure": masses[j],
                "boundary": bounds[j]}

    I_vals, I_wit = _first_best(t_grid, masses, bounds, "above", pick)
    up_vals, up_wit = _first_best(t_grid, masses, bounds, "below", pick)
    fam_name = family if isinstance(family, str) else "provided"
    meta = {"h": h, "family": fam_name}
    mode_i = "exact" if exact else "upper_bound"
    return (ProfileCurve("I", t_grid, I_vals, mode_i, I_wit, meta),
            ProfileCurve("I_down", t_grid, I_vals.copy(), "exact",
                         list(I_wit), meta),
            ProfileCurve("I_up", t_grid, up_vals, "exact", up_wit, meta))


def _boundary_table(space, h, family, top=np.inf):
    """(indices, masses, boundaries) at scale h of the members with
    0 < mu(A) <= top, in table order, indices(j) sorted: "all" proper
    subsets in mask order from mask 1, "balls", or an iterable of Subsets
    or index arrays."""
    backend = Backend.sup(h)
    if isinstance(family, str) and family == "all":
        mu_b, den_b = _space_tables(space, backend)
        keep = np.flatnonzero(mu_b[1:-1] <= top)
        return lambda j: _mask_indices(keep[j] + 1, space.n), \
            mu_b[keep + 1], den_b[keep + 1]
    if isinstance(family, str) and family == "balls":
        fam = _table(space, _ball_rows(space, range(space.n)))
        keep = np.flatnonzero(fam.masses <= top)
        return lambda j: fam.indices(keep[j]), fam.masses[keep], \
            _cuts(space, backend, fam.masks(keep))
    if isinstance(family, str):
        raise ValueError(f"family must be \"all\", \"balls\" or a list of "
                         f"index arrays, got {family!r}")
    fam = [a if hasattr(a, "indices") else space.subset(a) for a in family]
    fam = [a for a in fam if 0 < a.measure <= top]
    return (lambda j: fam[j].indices,) + _family_table(space, backend, fam)


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
    identity (2 (||f||_2^2 - ||Pf||_2^2)), which refuses a field with a
    NaN or infinite value.
    """
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

    family="all" enumerates every subset (at most EXACT_ENUM_LIMIT points);
    "balls" or an iterable of subsets/index arrays is read as by
    boundary_profile. The first minimiser in table order is reported.
    """
    half = space.total_measure / 2.0
    indices, mu, den = _boundary_table(space, h, family, top=half)
    if not mu.size:
        raise ValueError("no subset satisfies mu(A) <= mu(X)/2"
                         if isinstance(family, str) and family == "all" else
                         "cheeger needs a nonempty family with "
                         "mu(A) <= mu(X)/2")
    ratio = den / mu
    m = int(np.argmin(ratio))
    return float(ratio[m]), space.subset(indices(m))
