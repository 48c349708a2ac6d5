"""Rate functions, J_p evaluation, profile curves, inequality fitting."""

import itertools
import linecache
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg.lapack import dpotrf
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from coarsecalc import calculus, profiles, zoo
from coarsecalc import space as space_mod
from coarsecalc.profiles import Backend, RateFunction
from coarsecalc.randomwalk import lazy_srw
from coarsecalc.space import MetricMeasureSpace, boundary, chain_metric
from coarsecalc.viewpoint import (
    Viewpoint, is_symmetric, random_symmetric_viewpoint, standard_viewpoint)


# ---------------------------------------------------------------- rates


def test_power_rate_evaluation():
    phi = RateFunction.power(0.5, coef=2.0)
    assert phi(4.0) == pytest.approx(4.0)
    assert phi(9.0) == pytest.approx(6.0)


def test_log_power_monotone():
    phi = RateFunction.log_power(1.0, 0.5)
    xs = np.linspace(2.0, 50.0, 25)
    ys = [phi(x) for x in xs]
    assert all(a < b for a, b in zip(ys, ys[1:]))


def test_tabulated_rate_and_inverse():
    phi = RateFunction.tabulated([1.0, 2.0, 4.0], [1.0, 3.0, 5.0])
    assert phi(2.0) == pytest.approx(3.0)
    assert phi(1.0) < phi(1.5) < phi(2.0)


# ---------------------------------------------------------------- J_p


@pytest.mark.parametrize("idx,expected", [
    ([0], 0.5),        # endpoint: boundary {0, 1}
    ([4], 1.0 / 3.0),  # interior: boundary {3, 4, 5}
])
def test_j1_single_points_on_path(idx, expected):
    res = profiles.jp_subset(zoo.path(9), Backend.sup(1.0), idx, 1)
    assert res.value == pytest.approx(expected)
    assert res.mode == "exact"


@pytest.mark.parametrize("p", [1, 2])
def test_jp_subset_reads_a_as_a_set(p):
    # a repeated index once gathered its row twice: a zero eigenvalue, and
    # J = inf read as exact
    space, b = zoo.path(9), Backend.lp(1.0)
    want = profiles.jp_subset(space, b, [3, 4, 5], p).value
    assert want == pytest.approx(2.25 if p == 1 else 1.6002, rel=1e-4)
    for idx in ([3, 4, 4, 5], [5, 4, 3]):
        assert profiles.jp_subset(space, b, idx, p).value == want
    with pytest.raises(ValueError, match="subset index 9 out of range"):
        profiles.jp_subset(space, b, [3, 9], p)


@pytest.mark.parametrize("p", [0.5, 0, -1, np.nan])
@pytest.mark.parametrize("call", [
    lambda s, p: profiles.jp_subset(s, Backend.lp(1.0), [3, 4, 5], p),
    lambda s, p: profiles.isoperimetric_profile(s, Backend.lp(1.0), p, [2]),
    lambda s, p: profiles.isoperimetric_profile(s, Backend.sup(1.0), p, [2],
                                                strategy="exact"),
    lambda s, p: profiles.profile_in_balls(s, Backend.sup(1.0), p, [1]),
], ids=["jp_subset", "candidates", "exact", "balls"])
def test_p_below_one_is_refused(call, p):
    # J_p is defined for 1 <= p <= inf; p = 0.5 once returned 2.18
    with pytest.raises(ValueError, match=r"p in \[1, inf\]"):
        call(zoo.path(9), p)


def test_unknown_strategy_is_refused():
    with pytest.raises(ValueError, match='"candidates" or "exact"'):
        profiles.isoperimetric_profile(zoo.path(9), Backend.sup(1.0), 1, [2],
                                       strategy="exhaustive")


def test_jp_whole_space_sentinel():
    space = zoo.path(6)
    with pytest.warns(UserWarning, match="whole_space"):
        res = profiles.jp_subset(space, Backend.sup(1.0), list(range(6)), 1)
    assert np.isinf(res.value)
    assert res.reason == "whole_space"


def test_j1_isolated_point_sentinel():
    # distances double, so at h = 1 every ball is a single point and every
    # nonempty B inside A has an empty boundary
    space = zoo.scale_metric(zoo.path(6), 2.0)
    with pytest.warns(UserWarning, match="isolated_at_scale"):
        res = profiles.jp_subset(space, Backend.sup(1.0), [2, 3, 5], 1)
    assert np.isinf(res.value)
    assert res.reason == "isolated_at_scale"
    np.testing.assert_array_equal(res.witness_subset, [2])   # mask 1


# ----------------------------------------------------- exhaustive tables


ORACLE_SPACES = {
    "path9": (lambda: zoo.path(9), 1.0),
    "grid3_l1": (lambda: zoo.grid(2, 3), 1.0),
    "grid3_linf": (lambda: zoo.grid(2, 3, "linf"), 1.0),
    "geo12": (lambda: zoo.random_geometric(12, 5), 0.6),
}


@pytest.mark.parametrize("unit", [True, False], ids=["unit", "weighted"])
@pytest.mark.parametrize("name", sorted(ORACLE_SPACES))
def test_subset_tables_match_brute_force(name, unit):
    make, h = ORACLE_SPACES[name]
    space = make()
    if not unit:
        space = space.with_measure(
            np.random.default_rng(3).uniform(0.5, 2.0, space.n))
    vp = random_symmetric_viewpoint(space, h, np.random.default_rng(1))
    for backend in (Backend.sup(h), Backend.lp(h), Backend.viewpoint(vp)):
        pw = backend.pair_weights(space)
        for idx in (np.arange(space.n), np.arange(1, space.n, 2)):
            mu_b, den_b = profiles._subset_tables(space, backend, idx)
            assert mu_b.shape == den_b.shape == (1 << idx.size,)
            tol = 1e-12 * max(1.0, den_b.max())
            for m in range(mu_b.size):
                sub = idx[[j for j in range(idx.size) if m >> j & 1]]
                mu = space.measure[sub].sum()
                if pw is None:
                    den = boundary(space, sub, h).measure
                else:
                    ind = np.zeros(space.n)
                    ind[sub] = 1.0
                    rows, cols, w = pw
                    den = np.sum(w * np.abs(ind[rows] - ind[cols]))
                if backend.kind == "sup" and unit:
                    assert (mu_b[m], den_b[m]) == (mu, den)
                    continue
                assert mu_b[m] == pytest.approx(mu, rel=1e-12, abs=0)
                if den > tol:
                    assert den_b[m] == pytest.approx(den, rel=1e-12, abs=0)
                else:
                    assert abs(den_b[m]) <= tol


def _spread_path(trial):
    """path(n) with mu = 10^U(-30, 30), n from 3 to 7, and a proper subset
    A of at least two points, drawn from default_rng(trial)."""
    rng = np.random.default_rng(trial)
    n = int(rng.integers(3, 8))
    space = zoo.path(n).with_measure(10.0 ** rng.uniform(-30, 30, n))
    return space, np.sort(rng.choice(n, int(rng.integers(2, n)),
                                     replace=False))


@pytest.mark.parametrize("kind", ["lp", "viewpoint"])
def test_cuts_on_spread_measures_sum_positive_terms(kind):
    # measures spread over 60 decades once made a cut formula with a
    # subtraction go negative, or read 0 though pairs cross: J_1 = inf on
    # subsets _settled leaves alone (trials 1, 40, 87 and 126 among them)
    for trial in (1, 40, 87, 126, *range(200, 230)):
        space, A = _spread_path(trial)
        for h in (1.0, 2.0):
            backend = Backend.lp(h) if kind == "lp" else \
                Backend.viewpoint(standard_viewpoint(space, h))
            rows, cols, w = backend.pair_weights(space)
            for idx in (np.arange(space.n), A):
                mu_b, den_b = profiles._subset_tables(space, backend, idx)
                assert np.all(den_b >= 0)
                ind = np.zeros((mu_b.size, space.n), dtype=bool)
                ind[:, idx] = (np.arange(mu_b.size)[:, None] >>
                               np.arange(idx.size)) & 1
                want = np.sum(w * (ind[:, rows] != ind[:, cols]), axis=1)
                np.testing.assert_allclose(den_b, want, rtol=1e-12, atol=0)
            mu_b, den_b = profiles._space_tables(space, backend)
            for m in range(1, mu_b.size - 1):
                sub = profiles._mask_indices(m, space.n)
                if profiles._settled(space, backend, sub, 1) is None:
                    assert den_b[m] > 0
            for b in (backend, Backend.sup(h)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    res = profiles.jp_subset(space, b, A, 1)
                assert (res.mode, res.reason) == ("exact", None)
                assert 0 < res.value < np.inf


# ------------------------------------------------- exact J_2 and descent


def _jp2_oracle(space, h, idx):
    """Exact lp J_2 the slow way: slice the freshly built form, scale it by
    1/sqrt(mu mu^T) as a sparse matrix and densify. Returns (value, mode,
    reason, witness field)."""
    Q = calculus.l2_gradient_form(space, h).tocsr()
    root = np.sqrt(space.measure[idx])
    C = Q[idx][:, idx].multiply(1.0 / np.outer(root, root))
    w, v = np.linalg.eigh(np.asarray(C.todense()))
    lam = float(w[0])
    f = np.zeros(space.n)
    f[idx] = v[:, 0] / root
    if lam <= 1e-14 * max(1.0, float(w[-1])):
        return np.inf, "exact", "isolated_at_scale", f
    return lam ** -0.5, "exact", None, f


def _same_jp2(res, want):
    value, mode, reason, f = want
    assert (res.value, res.mode, res.reason) == (value, mode, reason)
    assert res.witness_field.tobytes() == f.tobytes()


JP2_SPACES = {
    "path9": (lambda: zoo.path(9), 1.0),
    "grid4_l1": (lambda: zoo.grid(2, 4), 1.0),
    "grid4_linf": (lambda: zoo.grid(2, 4, "linf"), 1.0),
    "grid5_l2": (lambda: zoo.grid(2, 5, "l2"), 1.5),
    "geo20": (lambda: zoo.random_geometric(20, 8), 0.35),
}


def _jp2_subsets(space, r, rng):
    """Balls of radius r, coordinate boxes, their complements and random
    subsets; the whole space and the empty set left out."""
    coords = space.meta["coords"]
    lo = coords.min(axis=0)
    span = coords.max(axis=0) - lo
    out = []
    for x in (0, space.n // 2, space.n - 1):
        ball = space.ball(x, r)
        out += [ball, np.setdiff1d(np.arange(space.n), ball)]
    for frac in (0.3, 0.6):
        box = np.all(coords <= lo + frac * span, axis=1)
        out += [np.flatnonzero(box), np.flatnonzero(~box)]
    for size in (1, 3, space.n // 2, space.n - 1):
        out.append(np.sort(rng.choice(space.n, size=size, replace=False)))
    return [sub for sub in out if 0 < sub.size < space.n]


@pytest.mark.parametrize("unit", [True, False], ids=["unit", "weighted"])
@pytest.mark.parametrize("name", sorted(JP2_SPACES))
def test_jp2_matches_sliced_form_oracle(name, unit):
    make, h = JP2_SPACES[name]
    space = make()
    if not unit:
        space = space.with_measure(
            np.random.default_rng(3).uniform(0.5, 2.0, space.n))
    subsets = _jp2_subsets(space, h, np.random.default_rng(11))
    assert len(subsets) >= 10
    for idx in subsets:
        res = profiles.jp_subset(space, Backend.lp(h), idx, 2)
        _same_jp2(res, _jp2_oracle(space, h, idx))


def test_j2_matches_dirichlet_eigenvalue():
    # for a symmetric kernel the gradient form's quotient is the Dirichlet
    # eigenvalue delta = 2 (1 - lambda_max(M_A)), M the kernel conjugated by
    # sqrt(mu); the oracle is a plain eigvalsh of that block
    for name, (make, h) in sorted(JP2_SPACES.items()):
        for unit in (True, False):
            space = make()
            if not unit:
                space = space.with_measure(
                    np.random.default_rng(3).uniform(0.5, 2.0, space.n))
            for vp in (lazy_srw(space, h), random_symmetric_viewpoint(
                    space, h, np.random.default_rng(1))):
                assert is_symmetric(vp).symmetric
                M = vp.symmetric_matrix().toarray()
                for idx in _jp2_subsets(space, h, np.random.default_rng(11)):
                    res = profiles.jp_subset(space, Backend.viewpoint(vp),
                                             idx, 2)
                    lam = np.linalg.eigvalsh(M[np.ix_(idx, idx)])[-1]
                    delta = 2.0 * (1.0 - lam)
                    assert res.mode == "exact"
                    assert res.value == pytest.approx(delta ** -0.5,
                                                      rel=1e-12, abs=0)


@pytest.mark.parametrize("unit", [True, False], ids=["unit", "weighted"])
@pytest.mark.parametrize("name", sorted(JP2_SPACES))
def test_asymmetric_viewpoint_j2_is_exact(name, unit):
    make, h = JP2_SPACES[name]
    space = make()
    if not unit:
        space = space.with_measure(
            np.random.default_rng(3).uniform(0.5, 2.0, space.n))
    vp = standard_viewpoint(space, h)
    assert not is_symmetric(vp).symmetric
    backend = Backend.viewpoint(vp)
    rng = np.random.default_rng(4)
    for size in (2, 3, space.n // 3):
        idx = np.sort(rng.choice(space.n, size=size, replace=False))
        res = profiles.jp_subset(space, backend, idx, 2)
        assert res.mode == "exact"
        # the descent's lower bound can land above it by rounding only
        low = profiles._jp_descent(space, backend, idx, 2)
        assert res.value >= low.value * (1 - 1e-12)
        f = res.witness_field
        quotient = calculus.lp_norm(space, f, 2) / calculus.lp_norm(
            space, calculus.grad_viewpoint(vp, f, 2), 2)
        assert quotient == pytest.approx(res.value, rel=1e-12, abs=0)


def test_j2_blocks_above_dense_size_are_exact():
    # blocks above DENSE_EIG_SIZE are gathered as CSR for Lanczos
    big = zoo.grid(2, 46)
    box = np.flatnonzero(np.all(big.meta["coords"] < 45, axis=1))
    assert box.size == 2025
    res = profiles.jp_subset(big, Backend.lp(1.0), box, 2)
    assert res.mode == "exact"
    f = res.witness_field
    quotient = calculus.lp_norm(big, f, 2) / calculus.lp_norm(
        big, calculus.grad_lp(big, f, 1.0, 2), 2)
    assert quotient == pytest.approx(res.value, rel=1e-10, abs=0)
    space = zoo.grid(2, 20)
    vp = standard_viewpoint(space, 1.0)
    idx = np.flatnonzero(np.all(space.meta["coords"] < 18, axis=1))
    assert idx.size > calculus.DENSE_EIG_SIZE
    res = profiles.jp_subset(space, Backend.viewpoint(vp), idx, 2)
    assert res.mode == "exact"
    Q = calculus.l2_gradient_form(space, vp=vp).tocsr()[idx][:, idx]
    want = np.linalg.eigvalsh(Q.toarray())[0] ** -0.5
    assert res.value == pytest.approx(want, rel=1e-10, abs=0)


def test_jp2_isolated_point_sentinel():
    # distances double, so at h = 1 every ball is a single point and the
    # form vanishes
    space = zoo.scale_metric(zoo.path(6), 2.0)
    idx = np.array([2, 3, 5])
    with pytest.warns(UserWarning, match="isolated_at_scale"):
        res = profiles.jp_subset(space, Backend.lp(1.0), idx, 2)
    assert np.isinf(res.value)
    _same_jp2(res, _jp2_oracle(space, 1.0, idx))


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, np.inf])
def test_isolated_point_sentinel_for_every_p(p):
    # point 1 has no other point within 0.25, so 1_{1} has zero gradient;
    # descent (p = 1.5, 2, 3 on the sup backend) used to report a finite
    # lower bound for p = 1.5 and 2
    space = zoo.random_geometric(10, 3)
    A = np.array([0, 1, 2, 4, 5])
    with pytest.warns(UserWarning, match="isolated_at_scale"):
        res = profiles.jp_subset(space, Backend.sup(0.25), A, p)
    assert np.isinf(res.value)
    assert (res.mode, res.reason) == ("exact", "isolated_at_scale")
    if res.witness_field is not None:
        f = res.witness_field
        assert np.any(f[A] != 0) and not np.any(np.delete(f, A))
        assert not np.any(calculus.grad_sup(space, f, 0.25))


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, np.inf])
def test_closed_component_sentinel_for_every_p(p):
    # points 0 and 2 see only each other at 0.25, so 1_{0,2} has zero
    # gradient; descent used to report 25,336.8 (p = 2) and 192.9 (p = 1.5)
    space = zoo.random_geometric(10, 3)
    A = np.array([0, 2, 4, 5])
    with pytest.warns(UserWarning, match="isolated_at_scale"):
        res = profiles.jp_subset(space, Backend.sup(0.25), A, p)
    assert np.isinf(res.value)
    assert (res.mode, res.reason) == ("exact", "isolated_at_scale")
    if res.witness_field is not None:
        f = res.witness_field
        assert np.any(f[A] != 0) and not np.any(np.delete(f, A))
        assert not np.any(calculus.grad_sup(space, f, 0.25))


@pytest.mark.parametrize("p", [1.5, 2, 3])
@pytest.mark.parametrize("unit", [True, False], ids=["unit", "random_mu"])
def test_descent_one_point_subset_is_exact(p, unit):
    # centring a random start zeroed every one-point field, so descent
    # raised; J_p({x}) = ||1_x||_p / ||grad 1_x||_p exactly
    space = zoo.grid(2, 4)
    if not unit:
        space = space.with_measure(
            np.random.default_rng(1).uniform(0.5, 2.0, space.n))
    f = np.zeros(space.n)
    f[5] = 1.0
    want = calculus.lp_norm(space, f, p) / calculus.lp_norm(
        space, calculus.grad_sup(space, f, 1.0), p)
    res = profiles.jp_subset(space, Backend.sup(1.0), [5], p)
    assert res.mode == "exact"
    assert res.value == pytest.approx(want, rel=1e-12)
    assert np.array_equal(res.witness_field, f)
    # J_p is monotone in A
    assert res.value <= profiles.jp_subset(space, Backend.sup(1.0),
                                           [5, 6], p).value


def test_jp2_form_memo_isolation():
    space = zoo.grid(2, 4)
    subsets = _jp2_subsets(space, 1.0, np.random.default_rng(5))
    for idx in subsets:                      # warm the memo at h = 1
        profiles.jp_subset(space, Backend.lp(1.0), idx, 2)
    m = np.random.default_rng(2).uniform(0.5, 2.0, space.n)
    moved = space.with_measure(m)
    fresh = zoo.grid(2, 4).with_measure(m)
    for idx in subsets:
        a = profiles.jp_subset(moved, Backend.lp(1.0), idx, 2)
        b = profiles.jp_subset(fresh, Backend.lp(1.0), idx, 2)
        _same_jp2(a, (b.value, b.mode, b.reason, b.witness_field))
        _same_jp2(a, _jp2_oracle(fresh, 1.0, idx))
    # a second scale on the same space keeps its own form
    for idx in subsets:
        for h in (2.0, 1.0):
            _same_jp2(profiles.jp_subset(space, Backend.lp(h), idx, 2),
                      _jp2_oracle(space, h, idx))
    assert sorted(space._forms) == [1.0, 2.0]
    # up to DENSE_EIG_SIZE points each scale's form is one dense array
    one, two = space._forms[1.0], space._forms[2.0]
    assert one.shape == two.shape == (space.n, space.n)
    assert one.tobytes() != two.tobytes()
    for arr in (one, two):
        assert not arr.flags.writeable


def _energy_grad_oracle(space, h, p, f):
    """The sup-gradient energy and its subgradient, one point at a time."""
    mu = space.measure
    e = 0.0
    g = np.zeros(space.n)
    for x, ball in enumerate(space.ball_rows(h)):
        d = np.abs(f[ball] - f[x])
        j = int(np.argmax(d))
        m = d[j]
        e += mu[x] * m ** p
        if m > 0:
            y = ball[j]
            s = mu[x] * p * m ** (p - 1) * np.sign(f[x] - f[y])
            g[x] += s
            g[y] -= s
    return float(e), g


@pytest.mark.parametrize("p", [2, 3, 1.5])
def test_sup_energy_grad_matches_loop_oracle(p):
    rng = np.random.default_rng(9)
    cases = [(zoo.path(8), 1.0), (zoo.grid(2, 3), 1.0),
             (zoo.grid(2, 4, "linf"), 1.0),
             # isolated points: single-point rows with m = 0
             (zoo.random_geometric(10, 3), 0.25),
             (zoo.scale_metric(zoo.path(6), 2.0), 1.0)]
    for space, h in cases:
        for unit in (True, False):
            if not unit:
                space = space.with_measure(rng.uniform(0.5, 2.0, space.n))
            energy_grad = profiles._energy_grad(space, Backend.sup(h), p)
            # integer fields tie the row maxima
            F = np.vstack([rng.integers(-2, 3, (3, space.n)),
                           rng.standard_normal((3, space.n))])
            E, G = energy_grad(F)
            assert E.shape == (6,) and G.shape == F.shape
            for f, e, g in zip(F, E, G):
                e_o, g_o = _energy_grad_oracle(space, h, p, f)
                if p == 2:
                    assert e == e_o
                    assert g.tobytes() == g_o.tobytes()
                else:
                    assert e == pytest.approx(e_o, rel=1e-13, abs=0)
                    np.testing.assert_allclose(g, g_o, rtol=1e-13, atol=0)


def _pair_energy_grad_oracle(space, backend, p, f):
    """The pair-weight energy and its gradient, one pair at a time."""
    e = 0.0
    g = np.zeros(space.n)
    for x, y, w in zip(*backend.pair_weights(space)):
        diff = f[x] - f[y]
        e += w * abs(diff) ** p
        if x != y and diff != 0:
            t = p * w * abs(diff) ** (p - 2) * diff
            g[x] += t
            g[y] -= t
    return e, g


@pytest.mark.parametrize("p", [2, 3, 1.5])
def test_pair_energy_grad_matches_loop_oracle(p):
    rng = np.random.default_rng(4)
    for space, h in [(zoo.path(8), 1.0), (zoo.grid(2, 4, "l2"), 1.5),
                     (zoo.random_geometric(10, 3), 0.25)]:
        space = space.with_measure(rng.uniform(0.5, 2.0, space.n))
        vp = random_symmetric_viewpoint(space, h, np.random.default_rng(1))
        for backend in (Backend.lp(h), Backend.viewpoint(vp)):
            F = np.vstack([rng.integers(-2, 3, (3, space.n)),
                           rng.standard_normal((3, space.n))])
            E, G = profiles._energy_grad(space, backend, p)(F)
            assert E.shape == (6,) and G.shape == F.shape
            for f, e, g in zip(F, E, G):
                e_o, g_o = _pair_energy_grad_oracle(space, backend, p, f)
                assert e == pytest.approx(e_o, rel=1e-12, abs=0)
                np.testing.assert_allclose(g, g_o, rtol=1e-12, atol=1e-15)


def _energy_grad_1d_oracle(space, backend, p):
    """The one-field energy function the sequential descent used."""
    mu = space.measure
    pw = backend.pair_weights(space)
    if pw is not None:
        rows, cols, w = pw
        keep = rows != cols

        def energy_grad(f):
            diff = f[rows] - f[cols]
            mag = np.abs(diff)
            e = float(np.sum(w * mag ** p))
            term = np.where(mag > 0, p * w * mag ** (p - 2) * diff, 0.0)
            g = np.zeros(space.n)
            np.add.at(g, rows[keep], term[keep])
            np.add.at(g, cols[keep], -term[keep])
            return e, g
    else:
        indptr, cols = backend.relation_rows(space)
        counts = np.diff(indptr)
        at = np.arange(cols.size)

        def energy_grad(f):
            d = np.abs(f[cols] - np.repeat(f, counts))
            m = np.maximum.reduceat(d, indptr[:-1])
            first = np.minimum.reduceat(
                np.where(d == np.repeat(m, counts), at, cols.size),
                indptr[:-1])
            e = np.cumsum(mu * m ** p)[-1]
            x = np.flatnonzero(m > 0)
            y = cols[first[x]]
            s = mu[x] * p * m[x] ** (p - 1) * np.sign(f[x] - f[y])
            g = np.zeros(space.n)
            np.add.at(g, np.column_stack((x, y)).ravel(),
                      np.column_stack((s, -s)).ravel())
            return float(e), g
    return energy_grad


def _jp_descent_oracle(space, backend, idx, p):
    """The descent with its restarts run one after another, from the same
    fixed starts."""
    indptr, cols = backend.relation_rows(space)
    rel = csr_matrix((np.ones(cols.size), cols, indptr),
                     shape=(space.n, space.n))
    comp = connected_components(rel, directed=False)[1]
    outside = np.setdiff1d(np.arange(space.n), idx)
    lost = idx[~np.isin(comp[idx], comp[outside])]
    if lost.size:
        f = np.zeros(space.n)
        f[lost] = 1.0
        return profiles._inf_result("isolated_at_scale", f)
    mu = space.measure
    energy_grad = _energy_grad_1d_oracle(space, backend, p)
    if idx.size == 1:
        f = np.zeros(space.n)
        f[idx] = 1.0
        value = (mu[idx[0]] / energy_grad(f)[0]) ** (1.0 / p)
        return profiles.JpResult(float(value), "exact", witness_field=f)
    rng = np.random.default_rng(0)
    best_q, best_f = np.inf, None
    for _ in range(profiles.DESCENT_RESTARTS):
        f = np.zeros(space.n)
        f[idx] = rng.normal(size=idx.size)
        f[idx] -= np.average(f[idx], weights=mu[idx])
        norm = calculus.lp_norm(space, f, p)
        if norm == 0:
            continue
        f /= norm
        stall, last = 0, np.inf
        for it in range(profiles.DESCENT_ITERS):
            e, ge = energy_grad(f)
            gn = p * mu * np.abs(f) ** (p - 1) * np.sign(f)
            d = ge - e * gn
            d[outside] = 0.0
            nd = np.linalg.norm(d)
            if nd == 0:
                break
            f = f - (0.2 / (1.0 + 0.02 * it)) * d / nd
            f[outside] = 0.0
            norm = calculus.lp_norm(space, f, p)
            if norm == 0:
                break
            f /= norm
            q = energy_grad(f)[0]
            if q < best_q:
                best_q, best_f = q, f.copy()
            if abs(last - q) < profiles.DESCENT_TOL * max(1.0, q):
                stall += 1
                if stall > 20:
                    break
            else:
                stall = 0
            last = q
    if best_f is None:
        raise ValueError("descent failed to produce a nonzero field")
    value = best_q ** (-1.0 / p)
    return profiles.JpResult(float(value), "lower_bound", witness_field=best_f)


def _same_descent(space, backend, idx, p):
    """Both descents: the same value, mode, reason and witness bytes."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = profiles._jp_descent(space, backend, idx, p)
        want = _jp_descent_oracle(space, backend, idx, p)
    assert (got.value, got.mode, got.reason) == \
        (want.value, want.mode, want.reason)
    assert got.witness_field.tobytes() == want.witness_field.tobytes()
    return got


DESCENT_SPACES = {
    "path8": (lambda: zoo.path(8), 1.0),
    "grid4_l1": (lambda: zoo.grid(2, 4), 1.0),
    "grid4_linf": (lambda: zoo.grid(2, 4, "linf"), 1.0),
    "geo12": (lambda: zoo.random_geometric(12, 5), 1.0),
    # isolated points and closed components at h = 0.25
    "geo10_isolated": (lambda: zoo.random_geometric(10, 3), 0.25),
    "tree34": (lambda: zoo.regular_tree(3, 4), 1.0),
}


@pytest.mark.parametrize("name", sorted(DESCENT_SPACES))
def test_descent_matches_sequential_oracle(name, monkeypatch):
    # 60 steps a restart keep the matrix quick; the stall and zero-step
    # exits it meets come well before that, and the full length is
    # compared below
    monkeypatch.setattr(profiles, "DESCENT_ITERS", 60)
    make, h = DESCENT_SPACES[name]
    rng = np.random.default_rng(12)
    for unit in (True, False):
        space = make()
        if not unit:
            space = space.with_measure(rng.uniform(0.5, 2.0, space.n))
        # asymmetric, except where every ball with two points pairs them
        vp = standard_viewpoint(space, h)
        assert name == "geo10_isolated" or not is_symmetric(vp).symmetric
        cases = [(Backend.sup(h), 1.5), (Backend.sup(h), 2),
                 (Backend.sup(h), 3), (Backend.lp(h), 1.5),
                 (Backend.lp(h), 3), (Backend.viewpoint(vp), 2)]
        for i, (backend, p) in enumerate(cases):
            # subsets of 2 to N/2 points
            for size in {2, 2 + (i + 3 * unit) % (space.n // 2 - 1)}:
                idx = np.sort(rng.choice(space.n, size=size, replace=False))
                _same_descent(space, backend, idx, p)


def _sup_quotient(space, h, f):
    return calculus.lp_norm(space, f, 2) / calculus.lp_norm(
        space, calculus.grad_sup(space, f, h), 2)


@pytest.mark.parametrize("make,idx,want", [
    (lambda: zoo.path(8), [2, 3, 4], np.sqrt(1.2)),
    (lambda: zoo.grid(2, 3), [0, 1, 3], 1.0),
], ids=["path8", "grid3"])
def test_sup_j2_bracket_holds_the_known_value(make, idx, want):
    space = make()
    res = profiles.jp_subset(space, Backend.sup(1.0), idx, 2)
    assert res.mode == "lower_bound"
    assert res.value * (1 - 1e-9) <= want <= res.upper * (1 + 1e-9)
    assert res.upper - res.value <= profiles.DUAL_GAP * res.value
    assert _sup_quotient(space, 1.0, res.witness_field) == res.value


@pytest.mark.parametrize("unit", [True, False], ids=["unit", "random_mu"])
def test_sup_j2_bracket_on_every_subset_of_a_path(unit):
    # the lp weights mu(y) / V(x, h) put at most mass 1 on B(x, h) minus x,
    # so the exact lp J_2 bounds the sup J_2 from above
    space = zoo.path(6)
    if not unit:
        space = space.with_measure(
            np.random.default_rng(6).uniform(0.5, 2.0, space.n))
    for m in range(1, (1 << space.n) - 1):
        idx = profiles._mask_indices(m, space.n)
        res = profiles.jp_subset(space, Backend.sup(1.0), idx, 2)
        assert 0 < res.value <= res.upper < np.inf
        quotient = _sup_quotient(space, 1.0, res.witness_field)
        assert quotient == pytest.approx(res.value, rel=1e-12, abs=0)
        lp = profiles.jp_subset(space, Backend.lp(1.0), idx, 2).value
        assert res.value <= lp * (1 + 1e-12)


def test_descent_stays_below_the_sup_j2_upper_end(monkeypatch):
    # any field's sup quotient is a lower bound, however short the descent
    monkeypatch.setattr(profiles, "DESCENT_ITERS", 60)
    rng = np.random.default_rng(13)
    for name in sorted(DESCENT_SPACES):
        make, h = DESCENT_SPACES[name]
        for unit in (True, False):
            space = make()
            if not unit:
                space = space.with_measure(rng.uniform(0.5, 2.0, space.n))
            for size in (2, space.n // 2):
                idx = np.sort(rng.choice(space.n, size=size, replace=False))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    res = profiles.jp_subset(space, Backend.sup(h), idx, 2)
                    low = profiles._jp_descent(space, Backend.sup(h), idx, 2)
                assert np.isinf(res.upper) == (res.reason is not None)
                assert low.value <= res.upper * (1 + 1e-12)


def test_sup_j2_reads_no_random_numbers(monkeypatch):
    space = zoo.grid(2, 4)
    a = profiles.jp_subset(space, Backend.sup(1.0), [0, 1, 5, 6], 2)

    def no_generator(*args, **kwargs):
        raise AssertionError("sup J_2 made a generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    b = profiles.jp_subset(space, Backend.sup(1.0), [0, 1, 5, 6], 2)
    assert (a.value, a.upper) == (b.value, b.upper)
    assert a.witness_field.tobytes() == b.witness_field.tobytes()


def test_p_below_2_warns_of_nothing():
    # every pair set holds (x, x), whose zero difference has no finite
    # power below 2
    space = zoo.grid(2, 4)
    vp = standard_viewpoint(space, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = profiles.jp_subset(space, Backend.lp(1.0), [0, 1, 5], 1.5)
        lap = calculus.laplacian(vp, np.arange(space.n) % 3.0, 1.5)
    assert res.mode == "lower_bound" and 0 < res.value < np.inf
    assert np.all(np.isfinite(lap))


@pytest.mark.parametrize("make,backend,idx,p", [
    (lambda: zoo.path(8), Backend.sup(1.0), [2, 3, 4], 2),
    (lambda: zoo.grid(2, 3), Backend.sup(1.0), [0, 1, 3], 2),
    # restarts end at different steps: stalls, a zero step, the full run
    (lambda: zoo.random_geometric(12, 5), Backend.lp(1.0), [1, 7], 1.5),
], ids=["path8_sup", "grid3_sup", "geo12_lp_mixed_exits"])
def test_descent_full_length_matches_oracle(make, backend, idx, p):
    _same_descent(make(), backend, np.array(idx), p)


def test_descent_on_spread_measures_is_a_finite_lower_bound():
    # measures spread over 60 decades: from some starts a restart reaches
    # an energy under 1e-18, which a zero-energy exit used to report as
    # J = inf; yet every point of A is joined to the outside, so J is
    # finite, and the fixed starts give lower bounds from 0.63 to 1.3e32
    for trial in (1, 40, 87, 126):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(3, 8))
        space = zoo.path(n).with_measure(10.0 ** rng.uniform(-30, 30, n))
        idx = np.sort(rng.choice(n, int(rng.integers(2, n)), replace=False))
        for p in (1.5, 3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = profiles.jp_subset(space, Backend.lp(1.0), idx, p)
            assert (res.mode, res.reason) == ("lower_bound", None)
            f = res.witness_field
            quotient = calculus.lp_norm(space, f, p) / calculus.lp_norm(
                space, calculus.grad_lp(space, f, 1.0, p), p)
            assert res.value == pytest.approx(quotient, rel=1e-12, abs=0)
            assert _same_descent(space, Backend.lp(1.0), idx, p).value == \
                res.value


# the p = 1 and p = inf paths, each as (side of the grid, call on the
# space, its backend and the unit of measure); J is a ratio of two
# mu-weighted norms over a relation read from distances at the scale
UNIT_PATHS = {
    "exhaustive_profile": (4, lambda s, b, c: profiles.isoperimetric_profile(
        s, b, 1, c * np.array([1.0, 2.0, 4.0, 8.0]),
        strategy="exact").values),
    "candidate_profile": (5, lambda s, b, c: profiles.isoperimetric_profile(
        s, b, 1, c * np.array([1.0, 2.0, 4.0, 8.0, 12.0])).values),
    "jp1_enumerated": (5, lambda s, b, c: profiles.jp_subset(
        s, b, [0, 1, 5, 6, 7, 12], 1).value),
    "jp1_ball_search": (5, lambda s, b, c: profiles.jp_subset(
        s, b, np.arange(20), 1).value),
    "jp_inf": (5, lambda s, b, c: profiles.jp_subset(
        s, b, [0, 1, 5, 6, 7, 12], np.inf).value),
}


@pytest.mark.parametrize("scaled", ["measure", "distance"])
@pytest.mark.parametrize("kind", ["sup", "lp", "viewpoint"])
@pytest.mark.parametrize("path", sorted(UNIT_PATHS))
def test_exact_paths_do_not_depend_on_units(path, kind, scaled):
    # mu times 2^k, or distances and h times 2^k, is exact in floating
    # point, so every value must come out in the same bits
    side, call = UNIT_PATHS[path]
    got = []
    for k in (-60, -30, 0, 30, 60):
        c = 2.0 ** k
        space = zoo.grid(2, side)
        mu = np.random.default_rng(0).uniform(0.5, 2.0, space.n)
        if scaled == "measure":
            space, h, unit = space.with_measure(mu * c), 1.0, c
        else:
            space, h, unit = zoo.scale_metric(space, c).with_measure(mu), \
                c, 1.0
        backend = {"sup": Backend.sup, "lp": Backend.lp}[kind](h) \
            if kind != "viewpoint" else \
            Backend.viewpoint(standard_viewpoint(space, h))
        got.append(np.asarray(call(space, backend, unit), dtype=float))
    assert np.all(np.isfinite(got[2]))
    for vals in got:
        assert vals.tobytes() == got[2].tobytes()


def test_jp_inf_of_the_standard_viewpoint_is_the_lp_one():
    space = zoo.grid(2, 4).with_measure(
        np.random.default_rng(4).uniform(0.5, 2.0, 16))
    vp = standard_viewpoint(space, 1.0)
    assert not is_symmetric(vp).symmetric
    for A in ([5, 6], [0, 1, 4, 5], [5, 6, 9, 10], list(range(12))):
        got = profiles.jp_subset(space, Backend.viewpoint(vp), A, np.inf)
        want = profiles.jp_subset(space, Backend.lp(1.0), A, np.inf)
        assert (got.value, got.mode) == (want.value, want.mode)
        assert got.witness_field.tobytes() == want.witness_field.tobytes()


def test_jp_inf_reads_a_one_way_relation_both_ways():
    # row x holds x and x + 1 only: by rows alone point 1 takes 4 steps to
    # leave A = {1, 2, 3, 4} (at 5), against them it takes 1 (to 0)
    space = zoo.path(6)
    dens = np.zeros((6, 6))
    for x in range(5):
        dens[x, x:x + 2] = 0.5
    dens[5, 5] = 1.0
    vp = Viewpoint(space, 1.0, dens, None)
    res = profiles.jp_subset(space, Backend.viewpoint(vp), [1, 2, 3, 4],
                             np.inf)
    assert (res.value, res.mode) == (2.0, "exact")
    np.testing.assert_array_equal(res.witness_field, [0, 1, 2, 2, 1, 0])
    f = res.witness_field
    quotient = calculus.lp_norm(space, f, np.inf) / calculus.lp_norm(
        space, calculus.grad_viewpoint(vp, f, np.inf), np.inf)
    assert quotient == res.value


@pytest.mark.parametrize("call", [
    lambda s: profiles.isoperimetric_profile(s, Backend.sup(1.0), 1, [1.0],
                                             strategy="exact"),
    lambda s: profiles.isoperimetric_profile(s, Backend.sup(1.0), 2, [1.0],
                                             strategy="exact"),
    lambda s: profiles.boundary_profile(s, 1.0, family="all"),
    lambda s: profiles.cheeger(s, 1.0, "all"),
], ids=["j1_exact", "j2_exact", "boundary_all", "cheeger_all"])
def test_exhaustive_enumeration_cap(call):
    space = zoo.path(profiles.EXACT_ENUM_LIMIT + 1)
    with pytest.raises(ValueError, match="EXACT_ENUM_LIMIT = 18"):
        call(space)


def test_exact_profile_mode_follows_its_subsets():
    # the sup backend brackets every subset of two or more points at p = 2
    # and reports the lower end
    curve = profiles.isoperimetric_profile(zoo.path(5), Backend.sup(1.0), 2,
                                           [1.0, 2.0, 3.0], strategy="exact")
    assert curve.mode == "lower_bound"
    space = zoo.grid(2, 3)
    vp = standard_viewpoint(space, 1.0)
    assert not is_symmetric(vp).symmetric
    curve = profiles.isoperimetric_profile(space, Backend.viewpoint(vp), 2,
                                           [1.0, 2.0, 3.0], strategy="exact")
    assert curve.mode == "exact"
    # only one-point subsets fit a grid of [1.0], and each is exact
    curve = profiles.isoperimetric_profile(zoo.path(5), Backend.sup(1.0), 2,
                                           [1.0], strategy="exact")
    assert curve.mode == "exact"


@pytest.mark.parametrize("p,counted", [(np.inf, "jp_subset"),
                                       (2, "_j2_eig")])
def test_exact_profile_evaluates_only_reportable_subsets(monkeypatch, p,
                                                         counted):
    space = zoo.grid(2, 3).with_measure(
        np.random.default_rng(4).uniform(0.5, 2.0, 9))
    backend = Backend.sup(1.0) if counted == "jp_subset" else Backend.lp(1.0)
    grid = [1.5, 3.0]
    masses = [space.measure[profiles._mask_indices(m, space.n)].sum()
              for m in range(1, 2 ** space.n - 1)]
    seen = []
    original = getattr(profiles, counted)

    def record(space_, backend_, idx, *rest):
        seen.append(float(space.measure[idx].sum()))
        return original(space_, backend_, idx, *rest)

    monkeypatch.setattr(profiles, counted, record)
    curve = profiles.isoperimetric_profile(space, backend, p, grid,
                                           strategy="exact")
    assert len(seen) == sum(m <= 3.0 for m in masses) < len(masses) // 4
    assert max(seen) <= 3.0
    assert np.isfinite(curve.values).all()


def _old_exhaustive_profile(space, backend, p, grid):
    """isoperimetric_profile(strategy="exact") as it ran before the sweep:
    J_p of every proper subset in mask order, all warnings ignored; also
    the mode it reported and the mode of the subsets of measure at most
    max(grid)."""
    n = space.n
    mu_b, den_b = profiles._subset_tables(space, backend, np.arange(n))
    modes, top_modes = {"exact"}, {"exact"}
    uppers = np.full(mu_b.size, np.inf)
    if p == 1:
        values = profiles._ratio(mu_b, den_b)
    else:
        values = np.empty(mu_b.size)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for m in range(1, mu_b.size - 1):
                res = profiles.jp_subset(space, backend,
                                         profiles._mask_indices(m, n), p)
                values[m], uppers[m] = res.value, res.upper
                modes.add(res.mode)
                if mu_b[m] <= max(grid):
                    top_modes.add(res.mode)
    found = [(profiles._mask_indices(m, n), "exhaustive")
             for m in range(1, mu_b.size - 1)]
    want = _old_envelope(backend, p, grid, found, mu_b[1:-1],
                         values[1:-1], uppers[1:-1])
    return want + tuple("exact" if m == {"exact"} else "lower_bound"
                        for m in (modes, top_modes))


def _old_candidate_profile(space, backend, p, grid):
    """The candidate branch of isoperimetric_profile before the sweep."""
    fam, found = [], []
    for sub, label in profiles.candidate_subsets(space, backend):
        if sub.measure <= max(grid):
            fam.append(sub)
            found.append((sub.indices, label))
    uppers = np.full(len(fam), np.inf)
    if p == 1:
        masses, den = profiles._family_table(space, backend, fam)
        values = profiles._ratio(masses, den)
    else:
        masses = np.array([sub.measure for sub in fam])
        values = np.empty(len(fam))
        for i, sub in enumerate(fam):
            if p == 2 and backend.kind != "sup":
                values[i] = profiles._j2_eig(space, backend, sub.indices)[0]
            else:
                res = profiles.jp_subset(space, backend, sub.indices, p)
                values[i], uppers[i] = res.value, res.upper
    return _old_envelope(backend, p, grid, found, masses, values, uppers)


def _old_envelope(backend, p, grid, found, masses, values, uppers):
    """Per grid point the largest value of a member of mass <= g (a NaN
    or -inf never wins), the first in table order, with its witness."""
    out, wits = [], []
    for g in grid:
        fits = [j for j in range(len(found))
                if masses[j] <= g and values[j] > -np.inf]
        if not fits:
            out.append(np.nan)
            wits.append(None)
            continue
        j = max(fits, key=lambda j: values[j])      # the first maximum
        sub, label = found[j]
        wit = {"indices": sub, "label": label, "measure": masses[j],
               "value": values[j]}
        if backend.kind == "sup" and p == 2:
            wit["upper"] = uppers[j]
        out.append(values[j])
        wits.append(wit)
    return out, wits


def _old_ball_profile(space, backend, p, radius_grid):
    """profile_in_balls before the sweep: (values, witnesses, mode, number
    of infinite balls evaluated)."""
    centers = range(0, space.n, max(1, space.n // 400))
    values, witnesses, modes, n_inf = [], [], set(), 0
    for t in np.asarray(radius_grid, dtype=float):
        best, wit = -np.inf, None
        for x in centers:
            ball = space.ball(x, t)
            res = profiles.jp_subset(space, backend, ball, p)
            modes.add(res.mode)
            n_inf += bool(np.isinf(res.value))
            if res.value > best:
                best = res.value
                wit = {"center": x, "radius": float(t),
                       "indices": ball, "value": res.value,
                       "reason": res.reason}
                if backend.kind == "sup" and p == 2:
                    wit["upper"] = res.upper
            if np.isinf(best):
                break
        values.append(best)
        witnesses.append(wit)
    return (values, witnesses,
            "exact" if modes <= {"exact"} else "lower_bound", n_inf)


def _sweep_case(case):
    if case == "lp_isolated":
        # points 1, 3 and 7 are isolated at 0.25
        return zoo.random_geometric(10, 3), Backend.lp(0.25)
    space = zoo.path(5)
    if case == "lp":
        return space.with_measure(
            np.random.default_rng(6).uniform(0.5, 2.0, 5)), Backend.lp(1.0)
    if case == "vp":
        return space, Backend.viewpoint(lazy_srw(space, 1.0))
    return space, Backend.sup(1.0)


def _warnings_of(call):
    """call()'s result and the number of 'J is infinite' warnings."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = call()
    return out, sum("J is infinite" in str(w.message) for w in seen)


@pytest.mark.parametrize("case,p,route", [
    (case, p, route) for case in ["sup", "lp", "vp", "lp_isolated"]
    for p in [1, 2, 3, np.inf] for route in ["exact", "candidates", "balls"]
    # the old loop would descend on all 1,022 subsets, about 10 s
    if (case, p, route) != ("lp_isolated", 3, "exact")])
def test_profile_sweep_matches_the_three_old_loops(case, p, route):
    space, backend = _sweep_case(case)
    grid = [1.0, 2.0, 3.5, 4.0]
    if route == "balls":
        diameter = max(space.dist_row(x).max() for x in range(space.n))
        radii = [0.0, 1.0, 0.5 * diameter, diameter + 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want, want_wit, mode, n_inf = _old_ball_profile(
                space, backend, p, radii)
        curve, warned = _warnings_of(lambda: profiles.profile_in_balls(
            space, backend, p, radii))
        assert curve.mode == mode and warned == n_inf > 0
        _assert_same_curve(curve, want, want_wit)
        return
    if route == "exact":
        want, want_wit, old_mode, mode = _old_exhaustive_profile(
            space, backend, p, grid)
        # the one mode change the sweep may make: a curve whose reportable
        # subsets are all exact is exact
        assert mode == old_mode or (old_mode, mode) == ("lower_bound",
                                                        "exact")
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want, want_wit = _old_candidate_profile(space, backend, p, grid)
        mode = "lower_bound"
    curve, warned = _warnings_of(lambda: profiles.isoperimetric_profile(
        space, backend, p, grid, strategy=route))
    assert curve.mode == mode
    _assert_same_curve(curve, want, want_wit)
    # only the sweep warns: at p = 1 every value is read from a table
    assert (warned > 0) == (p != 1 and case == "lp_isolated")


def test_candidate_profile_evaluates_only_reportable_subsets(monkeypatch):
    space = zoo.grid(2, 4)
    backend = Backend.lp(1.0)
    grid = [2.0, 4.0]
    scan = [(sub, label, profiles.jp_subset(space, backend, sub.indices,
                                             2).value)
            for sub, label in profiles.candidate_subsets(space, backend)]
    assert len(scan) == 234
    # each candidate that fits the grid is either solved (one eigensolve)
    # or certified below its bar by the cut, never both
    solved, certified = [], []
    eig, above = profiles.symmetric_eig, profiles.above

    def certify(*args):
        ok = above(*args)
        certified.append(ok)
        return ok

    monkeypatch.setattr(profiles, "symmetric_eig",
                        lambda *a: solved.append(1) or eig(*a))
    monkeypatch.setattr(profiles, "above", certify)
    curve = profiles.isoperimetric_profile(space, backend, 2, grid)
    assert len(solved) + sum(certified) == 85
    assert sum(sub.measure <= 4 for sub, _, _ in scan) == 85
    assert 0 < sum(certified) < 85
    for i, v in enumerate(grid):
        fits = [c for c in scan if c[0].measure <= v]
        best = max(val for _, _, val in fits)
        sub, label, val = next(c for c in fits if c[2] == best)
        assert curve.values[i] == val
        assert curve.witnesses[i]["label"] == label
        assert np.array_equal(curve.witnesses[i]["indices"], sub.indices)


def _uncut_sweep(space, backend, p, members, ranks):
    """profiles._sweep before the cut: every member is solved."""
    for idx in members:
        if p == 2 and backend.kind != "sup" and idx.size < space.n:
            value = profiles._j2_eig(space, backend, idx)[0]
            yield (value, np.inf, "exact",
                   "isolated_at_scale" if value == np.inf else None)
        else:
            res = profiles.jp_subset(space, backend, idx, p)
            yield res.value, res.upper, res.mode, res.reason


def _cut_case(kind, weighted, route):
    if kind == "lp_isolated":
        # points 1, 3 and 7 are isolated at 0.25
        space, h = zoo.random_geometric(10, 3), 0.25
    else:
        space, h = zoo.grid(2, 3 if route == "exact" else 4), 1.0
    if weighted:
        space = space.with_measure(
            10.0 ** np.random.default_rng(8).uniform(-1, 1, space.n))
    if kind in ("lp", "lp_isolated"):
        return space, Backend.lp(h)
    make = standard_viewpoint if kind == "standard" else lazy_srw
    return space, Backend.viewpoint(make(space, h))


@pytest.mark.parametrize("kind", ["lp", "standard", "lazy_srw",
                                  "lp_isolated"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("route", ["candidates", "exact", "balls"])
def test_cut_sweep_matches_the_uncut_sweep(monkeypatch, kind, weighted,
                                           route):
    space, backend = _cut_case(kind, weighted, route)
    # NaN and unsorted entries; the largest reaches past half the space
    grid = np.array([np.nan, 3.0, 1.5, 6.0, 2.0, np.nan, 4.0]) * \
        space.total_measure / space.n
    radii = [2.0, 0.5, 1.0, 3.0]

    def run():
        if route == "balls":
            return profiles.profile_in_balls(space, backend, 2, radii)
        return profiles.isoperimetric_profile(space, backend, 2, grid,
                                              strategy=route)

    certified, above = [], profiles.above

    def certify(*args):
        certified.append(above(*args))
        return certified[-1]

    monkeypatch.setattr(profiles, "above", certify)
    curve, warned = _warnings_of(run)
    monkeypatch.setattr(profiles, "_sweep", _uncut_sweep)
    want, want_warned = _warnings_of(run)
    assert curve.mode == want.mode
    assert warned == want_warned
    assert (warned > 0) == (kind == "lp_isolated")
    # the cut fired: the curves compared come from different work
    assert any(certified) or kind == "lp_isolated"
    _assert_same_curve(curve, want.values, want.witnesses)


def test_cut_skips_most_candidates_of_the_transfer_grid(monkeypatch):
    space, backend = zoo.grid(2, 5, "l1"), Backend.lp(1.0)
    grid = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
    members = sum(sub.measure <= max(grid) for sub, _ in
                  profiles.candidate_subsets(space, backend))
    solved = []
    eig = profiles.symmetric_eig
    monkeypatch.setattr(profiles, "symmetric_eig",
                        lambda *a: solved.append(1) or eig(*a))
    profiles.isoperimetric_profile(space, backend, 2, grid)
    assert len(solved) < 0.25 * members


@given(st.integers(0, 4), st.sampled_from(["lp", "standard", "lazy_srw"]),
       st.sampled_from([0.25, 1.0, 2.0]), st.integers(0, 2 ** 32 - 1))
def test_cut_certificate_skips_only_members_below_their_bar(which, kind, h,
                                                            seed):
    rng = np.random.default_rng(seed)
    space = [zoo.path(7), zoo.grid(2, 3), zoo.grid(2, 4, "linf"),
             zoo.regular_tree(3, 2), zoo.random_geometric(12, 5)][which]
    space = space.with_measure(10.0 ** rng.uniform(-6, 6, space.n))
    backend = Backend.lp(h) if kind == "lp" else Backend.viewpoint(
        (standard_viewpoint if kind == "standard" else lazy_srw)(space, h))
    idx = np.flatnonzero(rng.random(space.n) < rng.uniform(0.1, 0.9))
    if not 0 < idx.size < space.n:
        idx = np.array([int(rng.integers(space.n))])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value = profiles._j2_eig(space, backend, idx)[0]
        bars = [1e-300, 1e-6, 1.0, 1e6, 1e300]
        if np.isfinite(value):
            near = [value]
            for step in (np.inf, -np.inf):
                b = value
                for _ in range(4):
                    b = np.nextafter(b, step)
                    near.append(b)
            bars += near + [value * 1e-3, value * 1e3]
        for bar in bars:
            got = profiles._j2_eig(space, backend, idx, bar)[0]
            if np.isnan(got):
                # skipped: finite (so not isolated) and below the bar
                assert value < bar, (value, bar)
            else:
                # a member that runs, runs unchanged
                assert got == value or (np.isinf(got) and np.isinf(value))


def _candidate_oracle(space, backend, grid, value):
    """The candidate profile with one value(sub) call per candidate; also
    the number of candidates it evaluates whose value is infinite."""
    top = max(grid)
    scan = [(sub, label, value(sub))
            for sub, label in profiles.candidate_subsets(space, backend)
            if sub.measure <= top]
    values, witnesses = [], []
    for v in grid:
        fits = [c for c in scan if c[0].measure <= v]
        if not fits:
            values.append(np.nan)
            witnesses.append(None)
            continue
        best = max(val for _, _, val in fits)
        sub, label, val = next(c for c in fits if c[2] == best)
        values.append(val)
        witnesses.append({"indices": sub.indices, "label": label,
                          "measure": sub.measure, "value": val})
    return values, witnesses, sum(np.isinf(val) for _, _, val in scan)


def _grid_backend(kind):
    space = zoo.grid(2, 4)
    if kind == "lp_weighted":
        space = space.with_measure(
            np.random.default_rng(3).uniform(0.5, 2.0, space.n))
        return space, Backend.lp(1.0)
    vp = lazy_srw(space, 1.0) if kind == "vp_symmetric" else \
        standard_viewpoint(space, 1.0)
    assert is_symmetric(vp).symmetric == (kind == "vp_symmetric")
    return space, Backend.viewpoint(vp)


CANDIDATE_J2_CASES = {
    "lp_weighted": lambda: _grid_backend("lp_weighted"),
    "vp_symmetric": lambda: _grid_backend("vp_symmetric"),
    "vp_asymmetric": lambda: _grid_backend("vp_asymmetric"),
    # above DENSE_EIG_SIZE the form stays CSR and blocks are sliced from it
    "lp_csr": lambda: (zoo.grid(2, 17), Backend.lp(1.0)),
    # points 1, 3 and 7 are isolated at 0.25
    "lp_isolated": lambda: (zoo.random_geometric(10, 3), Backend.lp(0.25)),
}


@pytest.mark.parametrize("case", sorted(CANDIDATE_J2_CASES))
def test_candidate_j2_profile_matches_jp_subset_loop(case):
    space, backend = CANDIDATE_J2_CASES[case]()
    grid = [1.0, 2.0, 4.0, 6.0] if case == "lp_csr" else \
        [1.0, 2.0, 4.0, 8.0, 12.0]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        want, want_wit, n_inf = _candidate_oracle(
            space, backend, grid,
            lambda sub: profiles.jp_subset(space, backend, sub.indices,
                                           2).value)
        del seen[:]
        curve = profiles.isoperimetric_profile(space, backend, 2, grid)
    # the profile warns once per infinite candidate, as jp_subset does
    assert sum("isolated_at_scale" in str(w.message) for w in seen) == n_inf
    assert (n_inf > 0) == (case == "lp_isolated")
    if case == "lp_csr":
        assert space.n > calculus.DENSE_EIG_SIZE
        assert not isinstance(space._forms[1.0], np.ndarray)
        for arr in (space._forms[1.0].data, space._forms[1.0].indices):
            assert not arr.flags.writeable
    _assert_same_curve(curve, want, want_wit)
    if case == "lp_isolated":
        assert np.isinf(curve.values).any()


def _assert_same_curve(curve, want, want_wit):
    """Values and witnesses equal bit for bit."""
    assert np.array(want).tobytes() == curve.values.tobytes()
    assert len(curve.witnesses) == len(want_wit)
    for got, wit in zip(curve.witnesses, want_wit):
        if wit is None:
            assert got is None
            continue
        assert got.keys() == wit.keys()
        for key, val in wit.items():
            if isinstance(val, str):
                assert got[key] == val
            else:
                assert np.asarray(got[key]).tobytes() == \
                    np.asarray(val).tobytes()


def _indicator_ratio_oracle(space, backend, sub):
    """mu(B)/denom(B) of one subset, computed on its own: inf when the
    denominator is 0."""
    mu_b = float(space.measure[sub].sum())
    pw = backend.pair_weights(space)
    if pw is None:
        den = boundary(space, sub, backend.scale).measure
    else:
        ind = np.zeros(space.n)
        ind[sub] = 1.0
        rows, cols, w = pw
        den = float(np.sum(w * np.abs(ind[rows] - ind[cols])))
    return np.inf if den == 0 else mu_b / den


CANDIDATE_J1_CASES = {
    "sup": lambda: (zoo.grid(2, 5), Backend.sup(1.0)),
    "sup_weighted": lambda: (zoo.grid(2, 5).with_measure(
        np.random.default_rng(5).uniform(0.5, 2.0, 25)), Backend.sup(1.0)),
    "lp_weighted": lambda: _grid_backend("lp_weighted"),
    "vp_symmetric": lambda: _grid_backend("vp_symmetric"),
    "vp_asymmetric": lambda: _grid_backend("vp_asymmetric"),
    "sup_isolated": lambda: (zoo.random_geometric(10, 3), Backend.sup(0.25)),
    "lp_isolated": lambda: (zoo.random_geometric(10, 3), Backend.lp(0.25)),
}


@pytest.mark.parametrize("case", sorted(CANDIDATE_J1_CASES))
def test_candidate_j1_profile_matches_ratio_loop(case):
    space, backend = CANDIDATE_J1_CASES[case]()
    grid = [1.0, 2.0, 4.0, 8.0, 12.0]
    want, want_wit, n_inf = _candidate_oracle(
        space, backend, grid,
        lambda sub: _indicator_ratio_oracle(space, backend, sub.indices))
    curve = profiles.isoperimetric_profile(space, backend, 1, grid)
    _assert_same_curve(curve, want, want_wit)
    assert (n_inf > 0) == case.endswith("isolated")


def _jp1_ball_search_oracle(space, backend, idx):
    """J_1(A) by the ball search one subset at a time: (value, witness),
    returning at the first infinite ratio."""
    best, best_sub = -np.inf, None
    radii = profiles._radius_grid(space.dist_row(int(idx[0])))
    for x in idx:
        d = space.dist_row(int(x))
        for r in radii:
            sub = np.intersect1d(np.flatnonzero(d <= r), idx)
            q = _indicator_ratio_oracle(space, backend, sub)
            if np.isinf(q):
                return q, sub
            if q > best:
                best, best_sub = q, sub
    return best, best_sub


def _tailed_path():
    """A 22-point path with point 22 hung off its end by an edge of
    length 3, so at scale 1 point 22 sees nothing else; weighted."""
    edges = [(i, i + 1, 1.0) for i in range(21)] + [(21, 22, 3.0)]
    return MetricMeasureSpace.from_graph(
        23, edges, np.random.default_rng(2).uniform(0.5, 2.0, 23))


@pytest.mark.parametrize("kind", ["sup", "lp", "vp"])
@pytest.mark.parametrize("idx", [np.arange(1, 23), np.arange(0, 21)],
                         ids=["isolated", "connected"])
def test_jp1_ball_search_matches_one_by_one_loop(kind, idx):
    space = _tailed_path()
    backend = Backend.viewpoint(lazy_srw(space, 1.0)) if kind == "vp" else \
        getattr(Backend, kind)(1.0)
    assert idx.size > profiles.EXACT_ENUM_LIMIT
    value, sub = _jp1_ball_search_oracle(space, backend, idx)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        res = profiles.jp_subset(space, backend, idx, 1)
    assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
    assert res.witness_subset.tobytes() == sub.tobytes()
    isolated = 22 in idx
    assert np.isinf(value) == isolated
    assert (res.mode, res.reason) == (("exact", "isolated_at_scale")
                                      if isolated else ("lower_bound", None))
    # the sentinel's warning names jp_subset's call, as before
    where = [(w.filename, linecache.getline(w.filename, w.lineno).strip())
             for w in seen]
    assert where == ([(profiles.__file__, "return _jp1(space, backend, idx)")]
                     if isolated else [])


def test_jp1_ball_search_without_radii_is_minus_inf():
    # in the chain metric at b = 2 point 0 is alone, so its distance row
    # has no finite positive entry and the search has no radius to try
    edges = [(0, 1, 10.0)] + [(i, i + 1, 1.0) for i in range(1, 20)]
    space = chain_metric(
        MetricMeasureSpace.from_graph(21, edges, np.ones(21)), 2.0)
    assert space.disconnected
    res = profiles.jp_subset(space, Backend.sup(1.0), np.arange(20), 1)
    assert (res.value, res.mode, res.witness_subset, res.reason) == \
        (-np.inf, "lower_bound", None, None)


def _candidate_subsets_oracle(space):
    """candidate_subsets without a backend, its boxes one at a time."""
    seen, out = set(), []

    def push(indices, label):
        if 0 < indices.size < space.n and indices.tobytes() not in seen:
            seen.add(indices.tobytes())
            out.append((profiles._subset(space, indices), label))

    for ball in profiles._balls(space, range(0, space.n,
                                             max(1, space.n // 80))):
        push(*ball)
    shape = space.meta["shape"]
    coords = np.stack(np.meshgrid(*[np.arange(s) for s in shape],
                                  indexing="ij"), axis=-1).reshape(space.n, -1)
    count = 0
    for corner in itertools.product(*[profiles._strided_range(0, s - 1)
                                      for s in shape]):
        for size in itertools.product(*[profiles._strided_range(1, s)
                                        for s in shape]):
            if count > profiles.MAX_CANDIDATES:
                return out[:profiles.MAX_CANDIDATES]
            lo = np.array(corner)
            hi = lo + np.array(size)
            if np.any(hi > np.array(shape)):
                continue
            inside = np.all((coords >= lo) & (coords < hi), axis=1)
            push(np.flatnonzero(inside), f"box({corner},{size})")
            push(np.flatnonzero(~inside), f"cobox({corner},{size})")
            count += 2
    return out[:profiles.MAX_CANDIDATES]


def test_candidate_subsets_read_one_distance_row_per_centre(monkeypatch):
    # path(200): every second point is a centre; grid(2, 9): every point
    for space in (zoo.path(200), zoo.grid(2, 9)):
        rows = []
        dist_rows = space.dist_rows
        monkeypatch.setattr(space, "dist_rows", lambda xs, *a: rows.extend(
            np.asarray(xs).tolist()) or dist_rows(xs, *a))
        profiles.candidate_subsets(space)
        assert rows == list(range(0, space.n, max(1, space.n // 80)))
    # the boxes, built a corner at a time, are the box-by-box family:
    # members, order, labels, dedup and the MAX_CANDIDATES cut (grid(2, 8)
    # and grid(3, 4) reach it)
    for space in (zoo.grid(2, 5), zoo.grid(2, 8), zoo.grid(3, 4),
                  zoo.path(16)):
        got = profiles.candidate_subsets(space)
        want = _candidate_subsets_oracle(space)
        assert [(s.indices.tobytes(), label, s.measure) for s, label in got] \
            == [(s.indices.tobytes(), label, s.measure) for s, label in want]


def _push_loop_family(space, backend=None):
    """candidate_subsets one push per member, as it was built before the
    table: balls centre by centre, boxes a (corner, size) pair at a time,
    eigenfield levels threshold by threshold; each member a flatnonzero,
    kept at its first occurrence unless empty or the whole space, with its
    measure summed on its own; cut at MAX_CANDIDATES. (indices, label,
    measure) triples."""
    seen, out = set(), []

    def push(indices, label):
        if 0 < indices.size < space.n and indices.tobytes() not in seen:
            seen.add(indices.tobytes())
            out.append((indices, label, float(space.measure[indices].sum())))

    for x in range(0, space.n, max(1, space.n // 80)):
        d = space.dist_row(x)
        for r in _radius_grid_oracle(d, cap=10):
            push(np.flatnonzero(d <= r), f"ball({x},{r:g})")
    shape = space.meta.get("shape")
    if shape is not None:
        coords = np.stack(np.meshgrid(*[np.arange(s) for s in shape],
                                      indexing="ij"),
                          axis=-1).reshape(space.n, -1)
        sizes = list(itertools.product(*[_strided_range_oracle(1, s)
                                         for s in shape]))
        left = profiles.MAX_CANDIDATES // 2 + 1
        for corner in itertools.product(*[_strided_range_oracle(0, s - 1)
                                          for s in shape]):
            for size in sizes:
                hi = np.array(corner) + np.array(size)
                if left and np.all(hi <= np.array(shape)):
                    inside = np.all((coords >= corner) & (coords < hi),
                                    axis=1)
                    push(np.flatnonzero(inside), f"box({corner},{size})")
                    push(np.flatnonzero(~inside), f"cobox({corner},{size})")
                    left -= 1
    if backend is not None and backend.kind == "viewpoint" and \
            is_symmetric(backend.vp).symmetric and space.n >= 3:
        _, V, _ = calculus.symmetric_eig(backend.vp.symmetric_matrix(), "LA",
                                         k=2)
        g = V[:, 0] / np.sqrt(space.measure)
        for t in _levels_oracle(np.unique(g), 32):
            push(np.flatnonzero(g <= t), f"sublevel({t:.3g})")
            push(np.flatnonzero(g > t), f"suplevel({t:.3g})")
    return out[:profiles.MAX_CANDIDATES]


def _spread(space, seed, decades):
    """space under a measure 10^U(-decades, decades)."""
    rng = np.random.default_rng(seed)
    return space.with_measure(10.0 ** rng.uniform(-decades, decades,
                                                  space.n))


# name -> () -> (space, h); grid(2,8), grid(3,4) and grid(2,17) reach
# MAX_CANDIDATES, grid(2,17) before its eigenfield levels (its measure
# spreads over less than a decade: at 10^U(-3, 3), Lanczos does not
# converge on the eigenfield of its lazy walk)
PUSH_SPACES = {
    "path16": lambda: (zoo.path(16), 1.0),
    "grid2_5_spread": lambda: (_spread(zoo.grid(2, 5), 1, 3), 1.0),
    "grid2_8": lambda: (zoo.grid(2, 8), 1.0),
    "grid3_4_weighted": lambda: (_spread(zoo.grid(3, 4), 2, 0.3), 1.0),
    "grid2_5_l2_weighted": lambda: (_spread(zoo.grid(2, 5, "l2"), 3, 0.3),
                                    1.5),
    "tree_weighted": lambda: (_spread(zoo.regular_tree(3, 3), 4, 0.3), 1.0),
    "geo_spread": lambda: (_spread(zoo.random_geometric(30, 2), 5, 3), 0.3),
    "grid2_17_weighted": lambda: (_spread(zoo.grid(2, 17), 6, 0.3), 1.0),
}


def _push_backend(space, h, kind):
    if kind in ("sup", "lp"):
        return getattr(Backend, kind)(h)
    if kind == "none":
        return None
    if kind == "random_symmetric":
        return Backend.viewpoint(random_symmetric_viewpoint(
            space, h, np.random.default_rng(7)))
    make = lazy_srw if kind == "lazy_srw" else standard_viewpoint
    return Backend.viewpoint(make(space, h))


def _family_rows(fam):
    return [(idx.tobytes(), idx.dtype.str, label, measure, type(measure))
            for idx, label, measure in fam]


@pytest.mark.parametrize("kind", ["none", "sup", "lp", "lazy_srw",
                                  "random_symmetric", "standard"])
@pytest.mark.parametrize("name", sorted(PUSH_SPACES))
def test_candidate_table_matches_the_push_loop(name, kind):
    # members, order, labels and masses (==) of the one-push-per-member
    # family, on unit, weighted and spread measures, under every backend
    space, h = PUSH_SPACES[name]()
    backend = _push_backend(space, h, kind)
    want = _push_loop_family(space, backend)
    got = profiles.candidate_subsets(space, backend)
    assert _family_rows([(s.indices, label, s.measure) for s, label in got]) \
        == _family_rows(want)
    fam = profiles._candidate_table(space, backend)
    assert fam.masses.tobytes() == np.array([m for _, _, m in want]).tobytes()
    assert len(want) <= profiles.MAX_CANDIDATES
    if name in ("grid2_8", "grid3_4_weighted", "grid2_17_weighted"):
        assert len(want) == profiles.MAX_CANDIDATES
    if kind in ("lazy_srw", "random_symmetric") and \
            name in ("tree_weighted", "geo_spread"):
        # no boxes there, so the level rows are new members
        assert any(label.startswith("sublevel") for _, label, _ in want)


def test_candidate_table_stops_at_the_cut(monkeypatch):
    # balls and boxes fill grid(2,17)'s MAX_CANDIDATES: no block after the
    # one that reaches the cut is built, and no level row at all, though
    # the eigenfield is still solved once, as for any family
    space, h = PUSH_SPACES["grid2_17_weighted"]()
    backend = Backend.viewpoint(lazy_srw(space, h))
    want = _push_loop_family(space, backend)
    assert len(want) == profiles.MAX_CANDIDATES
    assert not any("level" in label for _, label, _ in want)
    made, solved = [], []
    rows_of, eig = profiles._candidate_rows, profiles.symmetric_eig
    monkeypatch.setattr(profiles, "_candidate_rows", lambda *a: (
        made.append(fmt(rows.shape[0] - 1)) or (rows, fmt)
        for rows, fmt in rows_of(*a)))
    monkeypatch.setattr(profiles, "symmetric_eig", lambda *a, **k: (
        solved.append(a[1]) or eig(*a, **k)))
    got = profiles.candidate_subsets(space, backend)
    assert _family_rows([(s.indices, label, s.measure) for s, label in got]) \
        == _family_rows(want)
    assert solved == ["LA"]
    assert not any("level" in label for label in made)
    every = [fmt(rows.shape[0] - 1) for rows, fmt in rows_of(space, backend)]
    assert made == every[:len(made)] and "level" in every[-1]


@pytest.mark.parametrize("name", ["grid2_8", "geo_spread", "path16"])
def test_candidate_table_builds_a_block_of_entries_at_a_time(monkeypatch,
                                                              name):
    space, h = PUSH_SPACES[name]()
    backend = Backend.viewpoint(lazy_srw(space, h))
    want = _push_loop_family(space, backend)
    # three rows a block: balls, boxes and levels span many blocks
    monkeypatch.setattr(profiles, "BLOCK_ENTRIES", 3 * space.n)
    monkeypatch.setattr(space_mod, "BLOCK_ENTRIES", 2 * space.n)
    blocks = []
    rows_of = profiles._candidate_rows
    monkeypatch.setattr(profiles, "_candidate_rows", lambda *a: (
        blocks.append(rows.size) or (rows, fmt) for rows, fmt in
        rows_of(*a)))
    got = profiles.candidate_subsets(space, backend)
    assert _family_rows([(s.indices, label, s.measure) for s, label in got]) \
        == _family_rows(want)
    assert len(blocks) > len(want) // 3
    assert max(blocks) <= 3 * space.n
    # p = 1 unpacks the kept masks three rows at a time as well
    fam = profiles._candidate_table(space, backend)
    members = np.arange(fam.masses.size)[::-1]
    for j, mask in zip(members, fam.masks(members)):
        assert np.flatnonzero(mask).tobytes() == fam.indices(j).tobytes()


@pytest.mark.parametrize("name,kind,p", [
    (name, kind, p) for name in ["path16", "grid2_5_spread",
                                 "grid3_4_weighted", "tree_weighted",
                                 "geo_spread"]
    for kind in ["lp", "sup", "lazy_srw"] for p in [1, 2]
    # a dual ascent per member: the two smaller spaces only
    if (kind, p) != ("sup", 2) or name in ("path16", "grid2_5_spread")])
def test_candidate_profile_matches_the_push_loop_family(monkeypatch, name,
                                                        kind, p):
    # curves, witnesses (indices, labels, masses, values) and modes of the
    # profile over the one-push-per-member family, every member solved
    space, h = PUSH_SPACES[name]()
    backend = _push_backend(space, h, kind)
    per_point = space.total_measure / space.n
    grid = np.array([np.nan, 1.5, 3.0, 5.0]) * per_point
    if kind == "sup" and p == 2:
        grid = grid[:3]
    labels = []
    label_of = profiles._Family.label
    monkeypatch.setattr(profiles._Family, "label", lambda fam, j: (
        labels.append(j) or label_of(fam, j)))
    curve, _ = _warnings_of(lambda: profiles.isoperimetric_profile(
        space, backend, p, grid))
    # a label is formatted for each reported witness only
    assert len(labels) == sum(w is not None for w in curve.witnesses)
    monkeypatch.setattr(profiles, "candidate_subsets", lambda s, b: [
        (s.subset(idx), label) for idx, label, _ in _push_loop_family(s, b)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want, want_wit = _old_candidate_profile(space, backend, p,
                                                grid[1:])
    assert curve.mode == "lower_bound"
    _assert_same_curve(curve, [np.nan] + list(want), [None] + want_wit)
    assert all(w is not None for w in curve.witnesses[1:])


def _above_oracle(C, s):
    """calculus.above as it read the trace and eps on each call."""
    k = C.shape[0]
    shifted = C.copy()
    shifted.flat[::k + 1] -= s + 4 * (k + 1) ** 2 * np.finfo(float).eps \
        * np.trace(C)
    return dpotrf(shifted, lower=1, clean=0, overwrite_a=1)[1] == 0


@pytest.mark.parametrize("make", [
    lambda: (zoo.grid(2, 5), Backend.lp(1.0)),
    lambda: (_spread(zoo.random_geometric(40, 3), 2, 6), Backend.lp(0.3)),
    lambda: (zoo.grid(2, 17), Backend.lp(1.0)),
    lambda: (_spread(zoo.grid(2, 17), 3, 2), Backend.viewpoint(
        lazy_srw(_spread(zoo.grid(2, 17), 3, 2), 1.0)))],
    ids=["dense", "dense_spread", "sparse", "sparse_viewpoint"])
def test_cut_margin_reads_the_trace_from_the_diagonal(make):
    # the block's diagonal gives trace(C) bit for bit, so the cut certifies
    # exactly the blocks it certified with np.trace
    space, backend = make()
    if backend.kind == "viewpoint":
        space = backend.vp.space
    rng = np.random.default_rng(9)
    Q = calculus._form(space, backend.h, backend.vp)
    for _ in range(40):
        idx = np.flatnonzero(rng.random(space.n) < rng.uniform(0.02, 0.5))
        if not 0 < idx.size <= calculus.DENSE_EIG_SIZE:
            continue
        C = calculus._block(Q, idx)
        diag = C.diagonal()
        C = C.toarray() if hasattr(C, "toarray") else C
        assert diag.sum().tobytes() == np.trace(C).tobytes()
        theta = np.linalg.eigvalsh(C)[0]
        for s in (theta * (1 - 1e-9), theta * (1 - 1e-15), theta,
                  theta * (1 + 1e-9), 0.5 * theta, np.inf):
            assert calculus.above(C, s, diag) == _above_oracle(C, s)


def _radius_grid_oracle(d, cap=12):
    vals = np.unique(d[np.isfinite(d)])
    vals = vals[vals > 0]
    if vals.size > cap:
        vals = vals[np.linspace(0, vals.size - 1, cap).astype(int)]
    return vals


def _strided_range_oracle(lo, hi, cap=12):
    vals = list(range(lo, hi + 1))
    if len(vals) > cap:
        pick = np.unique(np.linspace(0, len(vals) - 1, cap).astype(int))
        vals = [vals[i] for i in pick]
    return vals


def _levels_oracle(levels, cap):
    # the eigenfield levels' own thinning, as candidate_subsets had it
    if levels.size > cap:
        levels = levels[np.linspace(0, levels.size - 1, cap).astype(int)]
    return levels


def test_thinned_grids_match_their_inline_copies():
    for n in range(1, 200):
        got = profiles._strided_range(3, n + 2)
        assert got == _strided_range_oracle(3, n + 2)
        assert all(type(v) is int for v in got)
    rng = np.random.default_rng(0)
    for d in (rng.integers(0, 40, 300).astype(float),
              np.append(rng.uniform(0, 5, 50), [np.inf, 0.0]),
              np.array([0.0, np.inf]), np.zeros(0)):
        for cap in (1, 2, 10, 12):
            assert profiles._radius_grid(d, cap).tobytes() == \
                _radius_grid_oracle(d, cap).tobytes()


@pytest.mark.parametrize("kind", ["sup", "lp", "vp"])
@pytest.mark.parametrize("make", [
    lambda: zoo.grid(2, 5), lambda: zoo.grid(2, 17), lambda: zoo.grid(3, 4),
    lambda: zoo.path(40), lambda: zoo.random_geometric(60, 1)],
    ids=["grid2_5", "grid2_17", "grid3_4", "path40", "rgg60"])
def test_candidate_family_matches_inline_thinning(monkeypatch, make, kind):
    # members, labels and order as with the ball radii, box strides and
    # eigenfield levels each thinned by its own copy of the rule
    space = make()
    backend = Backend.viewpoint(lazy_srw(space, 1.0)) if kind == "vp" else \
        getattr(Backend, kind)(1.0)
    got = profiles.candidate_subsets(space, backend)
    monkeypatch.setattr(profiles, "_radius_grid", _radius_grid_oracle)
    monkeypatch.setattr(profiles, "_strided_range", _strided_range_oracle)
    monkeypatch.setattr(profiles, "_thin", _levels_oracle)
    want = profiles.candidate_subsets(space, backend)
    assert [(s.indices.tobytes(), label) for s, label in got] == \
        [(s.indices.tobytes(), label) for s, label in want]


def test_isoperimetric_profile_monotone():
    space = zoo.path(12)
    curve = profiles.isoperimetric_profile(space, Backend.sup(1.0), 1,
                                           np.arange(1.0, 12.0))
    vals = curve.values[np.isfinite(curve.values)]
    assert np.all(np.diff(vals) >= -1e-12)


def test_candidates_equal_exact_on_small_path():
    space = zoo.path(9)
    v = np.arange(1.0, 9.0)
    cand = profiles.isoperimetric_profile(space, Backend.sup(1.0), 1, v)
    exact = profiles.isoperimetric_profile(space, Backend.sup(1.0), 1, v,
                                           strategy="exact")
    np.testing.assert_allclose(cand.values, exact.values, atol=1e-12)


@pytest.mark.parametrize("strategy", ["candidates", "exact"])
def test_nan_volume_leaves_the_other_samples(strategy):
    # the mass cut reads the largest volume that is a number
    b = Backend.sup(1.0)
    want = profiles.isoperimetric_profile(zoo.path(5), b, 1, [2.0],
                                          strategy=strategy)
    curve = profiles.isoperimetric_profile(zoo.path(5), b, 1,
                                           [2.0, np.nan], strategy=strategy)
    assert curve.values[0] == want.values[0] == 1.0
    assert np.isnan(curve.values[1]) and curve.witnesses[1] is None


def test_profile_in_balls_monotone_and_saturates():
    space = zoo.path(10)
    with pytest.warns(UserWarning, match="whole_space"):
        curve = profiles.profile_in_balls(space, Backend.sup(1.0), 1,
                                          [1.0, 2.0, 4.0, 9.0, 12.0])
    finite = np.isfinite(curve.values)
    assert np.all(np.diff(curve.values[finite]) >= -1e-12)
    # a ball of radius >= diameter is the whole space: J explodes
    assert np.isinf(curve.values[-1])


# ------------------------------------------------------- boundary curves


def test_boundary_profile_exact_on_path():
    # end intervals have one-sided rim of measure 2, and nothing beats them
    I, _, _ = profiles.boundary_profile(zoo.path(12), 1.0,
                                        t_grid=np.arange(1.0, 12.0))
    np.testing.assert_allclose(I.values, 2.0)
    assert I.mode == "exact"


def test_boundary_profile_interior_intervals():
    space = zoo.path(12)
    fam = [list(range(a, b + 1)) for a in range(1, 11)
           for b in range(a, 11)]
    I, I_down, I_up = profiles.boundary_profile(space, 1.0, family=fam,
                                                t_grid=np.arange(1.0, 11.0))
    # a singleton has a three-point rim; every longer interval has four
    np.testing.assert_allclose(I.values, [3.0] + [4.0] * 9)
    assert I.mode == "upper_bound"
    np.testing.assert_allclose(I_down.values, I.values)


def test_boundary_profile_whole_space_family():
    space = zoo.path(7)
    I, I_down, I_up = profiles.boundary_profile(
        space, 1.0, family=[list(range(7))], t_grid=[3.0, 7.0])
    np.testing.assert_allclose(I_down.values, 0.0)


def _ball_family_oracle(space):
    """family="balls" built the old way: for each point, a ball query per
    radius of at most 10 distinct positive distances from it."""
    fam = []
    for x in range(space.n):
        d = space.dist_row(x)
        vals = np.unique(d[np.isfinite(d)])
        vals = vals[vals > 0]
        if vals.size > 10:
            vals = vals[np.linspace(0, vals.size - 1, 10).astype(int)]
        fam += [space.subset(space.ball(x, r)) for r in vals]
    return fam


@pytest.mark.parametrize("make", [
    lambda: zoo.regular_tree(3, 3),                     # graph
    lambda: zoo.grid(2, 5, "l2"),                       # coords
    lambda: zoo.scale_metric(zoo.path(14), 1.5),
    lambda: zoo.random_geometric(16, 2).with_measure(
        np.random.default_rng(1).uniform(0.5, 2.0, 16)),
], ids=["tree", "grid_l2", "path_scaled", "geo_weighted"])
def test_boundary_profile_ball_family_unchanged(make):
    space = make()
    got = profiles.boundary_profile(space, 1.0, family="balls")
    want = profiles.boundary_profile(space, 1.0,
                                     family=_ball_family_oracle(space))
    for g, w in zip(got, want):
        assert (g.kind, g.mode, g.meta["family"]) == \
            (w.kind, w.mode, "balls")
        assert g.values.tobytes() == w.values.tobytes()
        for a, b in zip(g.witnesses, w.witnesses):
            if b is None:
                assert a is None
                continue
            assert a["indices"].tobytes() == b["indices"].tobytes()
            assert (a["measure"], a["boundary"]) == \
                (b["measure"], b["boundary"])


def _boundary_loop_oracle(space, h, family):
    """I and I_up over an explicit family by the per-subset boundary loop:
    for each curve its values and witnesses."""
    fam = [a if hasattr(a, "indices") else space.subset(a) for a in family]
    fam = [a for a in fam if 0 < len(a)]
    masses = np.array([a.measure for a in fam])
    bounds = np.array([boundary(space, a, h).measure for a in fam])
    t_grid = np.unique(np.cumsum(np.sort(space.measure)))
    curves = {"I": ([], []), "I_up": ([], [])}
    for t in t_grid:
        ge = np.flatnonzero(masses >= t)
        le = np.flatnonzero(masses <= t)
        for kind, pick in (("I", ge[np.argmin(bounds[ge])] if ge.size
                            else None),
                           ("I_up", le[np.argmax(bounds[le])] if le.size
                            else None)):
            vals, wits = curves[kind]
            vals.append(np.nan if pick is None else bounds[pick])
            wits.append(None if pick is None else
                        {"indices": fam[pick].indices,
                         "measure": masses[pick], "boundary": bounds[pick]})
    return curves


def _cheeger_loop_oracle(space, h, family):
    """(value, witness) by the per-subset loop over members with
    0 < mu(A) <= mu(X)/2; the first strict minimum wins."""
    half = space.total_measure / 2.0
    best, wit = np.inf, None
    for a in family:
        a = a if hasattr(a, "indices") else space.subset(a)
        if 0 < a.measure <= half:
            q = boundary(space, a, h).measure / a.measure
            if q < best:
                best, wit = q, a
    return best, wit


FAMILY_SPACES = {
    "grid": (lambda: zoo.grid(2, 5), 1.0),
    "tree_weighted": (lambda: zoo.regular_tree(3, 3).with_measure(
        np.random.default_rng(4).uniform(0.5, 2.0, 22)), 1.0),
    "geo_weighted": (lambda: zoo.random_geometric(16, 2).with_measure(
        np.random.default_rng(1).uniform(0.5, 2.0, 16)), 0.3),
    "path_scaled": (lambda: zoo.scale_metric(zoo.path(14), 1.5), 2.0),
}


@pytest.mark.parametrize("kind", ["balls", "subsets", "index_lists"])
@pytest.mark.parametrize("name", sorted(FAMILY_SPACES))
def test_boundary_profile_and_cheeger_match_subset_loops(name, kind):
    make, h = FAMILY_SPACES[name]
    space = make()
    if kind == "balls":
        family, members = "balls", _ball_family_oracle(space)
    else:
        members = [sub for sub, _ in profiles.candidate_subsets(
            space, Backend.sup(h))] + [space.subset(np.arange(space.n))]
        if kind == "index_lists":
            # unsorted, repeated and empty members
            members = [list(sub.indices[::-1]) + [int(sub.indices[0])]
                       for sub in members] + [[]]
        family = members
    want = _boundary_loop_oracle(space, h, members)
    I, I_down, I_up = profiles.boundary_profile(space, h, family=family)
    for curve in (I, I_up):
        _assert_same_curve(curve, *want[curve.kind])
    _assert_same_curve(I_down, *want["I"])
    assert (I.mode, I_down.mode, I_up.mode) == ("upper_bound", "exact",
                                                "exact")
    value, wit = profiles.cheeger(space, h, family)
    want_value, want_wit = _cheeger_loop_oracle(space, h, members)
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
    assert wit.indices.tobytes() == want_wit.indices.tobytes()
    assert wit.measure == want_wit.measure


def _boundary_set_oracle(space, idx, h):
    """boundary(A, h) the per-set way: the union of A's rows of
    neighbourhoods(h) meets the union of its complement's, as a Subset."""
    indptr, indices, _ = space.neighbourhoods(h)

    def reach(mask):
        out = np.zeros(space.n, dtype=bool)
        out[indices[np.repeat(mask, np.diff(indptr))]] = True
        return out

    mask = np.zeros(space.n, dtype=bool)
    mask[idx] = True
    return space.subset(np.flatnonzero(reach(mask) & reach(~mask)))


def _asymmetric_graph():
    """(space, h): a weighted graph whose non-dyadic edge weights make
    d(x, y) and d(y, x) differ in the last bit, at a tie h = d(x, y) where
    y is in B(x, h) but x is not in B(y, h)."""
    rng = np.random.default_rng(0)
    n = 24
    edges = [[i, i + 1, rng.uniform(0.1, 1.0)] for i in range(n - 1)]
    edges += [[int(a), int(b), rng.uniform(0.1, 1.0)]
              for a, b in rng.integers(0, n, (30, 2)) if a != b]
    space = MetricMeasureSpace.from_graph(n, edges, rng.uniform(0.5, 2, n))
    D = space.dense_matrix()
    x, y = np.argwhere(D < D.T)[0]
    h = float(D[x, y])
    indptr, indices, _ = space.neighbourhoods(h)
    rel = csr_matrix((np.ones(indices.size), indices, indptr),
                     shape=(space.n, space.n))
    assert (rel != rel.T).nnz
    return space, h


# name -> () -> (space, h)
READER_SPACES = {name: lambda make=make, h=h: (make(), h)
                 for name, (make, h) in FAMILY_SPACES.items()}
READER_SPACES["graph_asymmetric"] = _asymmetric_graph


@pytest.mark.parametrize("name", sorted(READER_SPACES))
def test_boundary_reader_matches_per_set_boundary(name, monkeypatch):
    space, h = READER_SPACES[name]()
    rng = np.random.default_rng(5)
    family = [sub for sub, _ in profiles.candidate_subsets(
        space, Backend.sup(h))] + [space.subset([]),
                                   space.subset(np.arange(space.n))]
    family += [space.subset(np.flatnonzero(rng.random(space.n) < q))
               for q in (0.2, 0.5, 0.8)]
    masks = np.array([sub.mask() for sub in family])
    want = [_boundary_set_oracle(space, sub.indices, h) for sub in family]
    want_bytes = np.array([w.measure for w in want]).tobytes()
    # three sets a chunk, so the family spans many chunks
    monkeypatch.setattr(space_mod, "BLOCK_ENTRIES", 3 * space.n)
    assert len(family) > 3
    rows = list(space_mod.boundaries(space, masks, h))
    assert len(rows) == len(family)
    for row, w in zip(rows, want):
        assert np.flatnonzero(row).tobytes() == w.indices.tobytes()
    assert space_mod.boundary_measures(space, masks, h).tobytes() == \
        want_bytes
    assert profiles._family_table(space, Backend.sup(h), family)[1] \
        .tobytes() == want_bytes
    for sub, w in zip(family, want):
        got = boundary(space, sub.indices, h)
        assert got.indices.tobytes() == w.indices.tobytes()
        assert np.float64(got.measure).tobytes() == \
            np.float64(w.measure).tobytes()
    assert space_mod.boundary_measures(space, masks[:0], h).shape == (0,)


def _coarea_loop_oracle(space, f, h):
    """(T/2, T) by the per-level threshold loop."""
    vals = np.unique(f)
    T = 0.0
    for i in range(1, vals.size):
        level = np.flatnonzero(f >= vals[i])
        T += (vals[i] - vals[i - 1]) * \
            _boundary_set_oracle(space, level, h).measure
    return T / 2.0, T


@pytest.mark.parametrize("name", sorted(READER_SPACES))
def test_coarea_matches_the_threshold_loop_bitwise(name, monkeypatch):
    space, h = READER_SPACES[name]()
    monkeypatch.setattr(space_mod, "BLOCK_ENTRIES", 4 * space.n)
    rng = np.random.default_rng(2)
    fields = [rng.random(space.n), rng.integers(0, 4, space.n) * 0.3,
              np.zeros(space.n), np.ones(space.n),
              (rng.random(space.n) < 0.4).astype(float)]
    for f in fields:
        lower, _, upper = calculus.coarea(space, f, h)
        want = _coarea_loop_oracle(space, f, h)
        assert np.float64(lower).tobytes() == np.float64(want[0]).tobytes()
        assert np.float64(upper).tobytes() == np.float64(want[1]).tobytes()


def test_exhaustive_tables_are_kept_per_space_and_scale(monkeypatch):
    space = zoo.path(9).with_measure(
        np.random.default_rng(7).uniform(0.5, 2.0, 9))
    builds = []
    real = profiles._subset_tables

    def counted(space, backend, idx):
        builds.append((backend.kind, idx.size))
        return real(space, backend, idx)

    monkeypatch.setattr(profiles, "_subset_tables", counted)
    sup = Backend.sup(1.0)
    first = profiles.cheeger(space, 1.0, "all")
    profiles.boundary_profile(space, 1.0)
    profiles.isoperimetric_profile(space, sup, 1, [2.0, 4.0], "exact")
    assert builds == [("sup", 9)]
    assert profiles.cheeger(space, 1.0, "all")[0] == first[0]
    profiles.isoperimetric_profile(space, Backend.lp(1.0), 1, [2.0], "exact")
    profiles.cheeger(space, 2.0, "all")
    assert builds == [("sup", 9), ("lp", 9), ("sup", 9)]
    assert sorted(space._tables) == [("lp", 1.0), ("sup", 1.0), ("sup", 2.0)]
    for table in space._tables.values():
        for arr in table:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
    # the tables depend on the measure, so a new measure starts none
    other = space.with_measure(np.ones(9))
    assert other._tables == {} and other._balls is space._balls
    profiles.cheeger(other, 1.0, "all")
    assert len(builds) == 4
    # proper-subset and viewpoint tables are built on every call
    profiles.jp_subset(space, sup, [1, 2, 3], 1)
    profiles.jp_subset(space, sup, [1, 2, 3], 1)
    vp = Backend.viewpoint(standard_viewpoint(space, 1.0))
    for _ in range(2):
        profiles.isoperimetric_profile(space, vp, 1, [2.0], "exact")
    assert builds[4:] == [("sup", 3)] * 2 + [("viewpoint", 9)] * 2


# ---------------------------------------------------------------- fits


def test_sobolev_definitional_pass():
    # feeding the profile's own witnesses with the profile itself as the
    # rate gives C = C' = 1 by construction
    space = zoo.path(12)
    b = Backend.sup(1.0)
    v = np.arange(1.0, 12.0)
    curve = profiles.isoperimetric_profile(space, b, 1, v)
    keep = np.isfinite(curve.values)
    phi = RateFunction.tabulated(v[keep], curve.values[keep])
    fields = []
    for w, ok in zip(curve.witnesses, keep):
        if ok and w is not None:
            f = np.zeros(space.n)
            f[w["indices"]] = 1.0
            fields.append(f)
    rep = profiles.sobolev_verify(space, b, 1, phi, fields)
    assert rep.passes
    assert rep.C == pytest.approx(1.0, rel=1e-9)
    assert rep.C_prime == 1.0


def test_sobolev_zero_gradient_is_hard_failure():
    space = zoo.path(12)
    rep = profiles.sobolev_verify(space, Backend.sup(1.0), 1,
                                  RateFunction.power(0.5),
                                  [np.ones(12)])
    assert not rep.passes
    assert rep.failures and rep.failures[0]["reason"].startswith("zero")


def test_sobolev_constant_rate_degrades_with_size():
    # a bounded rate cannot absorb growing boxes: the fitted constant climbs
    phi = RateFunction.tabulated([1.0, 10 ** 6], [1.0, 1.0])
    cs = []
    for L in (8, 16, 32):
        space = zoo.grid(2, L)
        f = np.zeros(space.n)
        half = np.flatnonzero(
            np.arange(space.n) // L < L // 2)
        f[half] = 1.0
        rep = profiles.sobolev_verify(space, Backend.lp(1.0), 1, phi, [f])
        assert rep.passes
        cs.append(rep.C)
    assert cs[0] < cs[1] < cs[2]


def test_nash_check_small():
    space = zoo.grid(2, 6)
    vp = lazy_srw(space, 1.0)
    rng = np.random.default_rng(8)
    fields = [rng.standard_normal(space.n) for _ in range(5)]
    rep = profiles.nash_check(space, vp, RateFunction.power(0.5), fields)
    assert rep.passes
    assert np.isfinite(rep.C)


def test_nash_check_rejects_zero_field():
    space = zoo.grid(2, 4)
    vp = lazy_srw(space, 1.0)
    with pytest.raises(ValueError, match="zero"):
        profiles.nash_check(space, vp, RateFunction.power(0.5),
                            [np.zeros(space.n)])


# ---------------------------------------------------------------- cheeger


def test_cheeger_path_pinned():
    # a 4-point end interval has rim measure 2: constant 1/2, and no
    # admissible subset (mass <= 4.5) does better
    val, wit = profiles.cheeger(zoo.path(9), 1.0, "all")
    assert val == pytest.approx(0.5)
    assert wit.measure == pytest.approx(4.0)


@pytest.mark.parametrize("family", ["ball", "foo"])
def test_misspelt_family_names_the_accepted_forms(family):
    space = zoo.path(9)
    for call in (lambda: profiles.cheeger(space, 1.0, family),
                 lambda: profiles.boundary_profile(space, 1.0, family)):
        with pytest.raises(ValueError, match=f'"all", "balls" or a list of '
                                             f"index arrays, got '{family}'"):
            call()


def test_cheeger_family_dominates_exact():
    space = zoo.grid(2, 3)
    fam = [sub for sub, _ in profiles.candidate_subsets(space,
                                                        Backend.sup(1.0))]
    val_f, _ = profiles.cheeger(space, 1.0, fam)
    val_e, _ = profiles.cheeger(space, 1.0, "all")
    assert val_f >= val_e - 1e-12
