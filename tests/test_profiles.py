"""Rate functions, J_p evaluation, profile curves, inequality fitting."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from coarsecalc import calculus, profiles, zoo
from coarsecalc.profiles import Backend, RateFunction
from coarsecalc.randomwalk import lazy_srw
from coarsecalc.space import boundary
from coarsecalc.viewpoint import (
    is_symmetric, random_symmetric_viewpoint, standard_viewpoint)


# ---------------------------------------------------------------- rates


def test_power_rate_evaluation():
    phi = RateFunction.power(0.5, coef=2.0)
    assert phi(4.0) == pytest.approx(4.0)
    assert phi(9.0) == pytest.approx(6.0)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_power_inverse_roundtrip(r):
    phi = RateFunction.power(0.5, coef=2.0)
    v = phi.inverse(r)
    assert phi(v) == pytest.approx(r, rel=1e-9)


def test_log_power_monotone():
    phi = RateFunction.log_power(1.0, 0.5)
    xs = np.linspace(2.0, 50.0, 25)
    ys = [phi(x) for x in xs]
    assert all(a < b for a, b in zip(ys, ys[1:]))


def test_tabulated_rate_and_inverse():
    phi = RateFunction.tabulated([1.0, 2.0, 4.0], [1.0, 3.0, 5.0])
    assert phi(2.0) == pytest.approx(3.0)
    assert phi(1.0) < phi(1.5) < phi(2.0)
    assert phi.inverse(3.0) == pytest.approx(2.0)


def test_bounded_rate_inverse_is_inf_past_sup():
    phi = RateFunction.tabulated([1.0, 2.0], [1.0, 2.0])
    assert np.isinf(phi.inverse(5.0))


# ---------------------------------------------------------------- J_p


@pytest.mark.parametrize("idx,expected", [
    ([0], 0.5),        # endpoint: boundary {0, 1}
    ([4], 1.0 / 3.0),  # interior: boundary {3, 4, 5}
])
def test_j1_single_points_on_path(idx, expected):
    res = profiles.jp_subset(zoo.path(9), Backend.sup(1.0), idx, 1)
    assert res.value == pytest.approx(expected)
    assert res.mode == "exact"


def test_j2_matches_dirichlet_eigenvalue():
    space = zoo.path(12)
    vp = lazy_srw(space, 1.0)
    A = list(range(3, 8))
    res = profiles.jp_subset(space, Backend.viewpoint(vp), A, 2)
    delta = calculus.dirichlet_eigenvalue(vp, A).delta
    assert res.value == pytest.approx(delta ** -0.5, rel=1e-9)


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
        res = profiles.jp_subset(space, Backend.sup(0.25), A, p, rng=0)
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
        res = profiles.jp_subset(space, Backend.sup(0.25), A, p, rng=0)
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
                                           [5, 6], p, rng=0).value


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
    assert space._forms[1.0][2].tobytes() != space._forms[2.0][2].tobytes()
    for arr in space._forms[1.0] + space._forms[2.0]:
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


def _jp_descent_oracle(space, backend, idx, p, rng):
    """The descent with its restarts run one after another."""
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
    rng = np.random.default_rng(0 if rng is None else rng)
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
            if e <= 1e-18:
                return profiles._inf_result("isolated_at_scale", f.copy())
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


def _same_descent(space, backend, idx, p, seed):
    """Both descents from equal Generators: the same value, mode, reason
    and witness bytes, and the Generators left in the same state."""
    got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = profiles._jp_descent(space, backend, idx, p, got_rng)
        want = _jp_descent_oracle(space, backend, idx, p, want_rng)
    assert (got.value, got.mode, got.reason) == \
        (want.value, want.mode, want.reason)
    assert got.witness_field.tobytes() == want.witness_field.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
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
                _same_descent(space, backend, idx, p, seed=i)


@pytest.mark.parametrize("make,backend,idx,p", [
    (lambda: zoo.path(8), Backend.sup(1.0), [2, 3, 4], 2),
    (lambda: zoo.grid(2, 3), Backend.sup(1.0), [0, 1, 3], 2),
    # restarts end at different steps: stalls, a zero step, the full run
    (lambda: zoo.random_geometric(12, 5), Backend.lp(1.0), [1, 7], 1.5),
], ids=["path8_sup", "grid3_sup", "geo12_lp_mixed_exits"])
def test_descent_full_length_matches_oracle(make, backend, idx, p):
    _same_descent(make(), backend, np.array(idx), p, seed=0)


def test_descent_zero_energy_exit_matches_oracle():
    # measures spread over 60 decades let a restart reach e <= 1e-18; on
    # seeds 40, 87 and 126 the first to get there is restart 2, 3 or 4,
    # while the restarts before it go on
    hits = 0
    for trial in (1, 40, 87, 126):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(3, 8))
        space = zoo.path(n).with_measure(10.0 ** rng.uniform(-30, 30, n))
        idx = np.sort(rng.choice(n, int(rng.integers(2, n)), replace=False))
        for p in (1.5, 3):
            res = _same_descent(space, Backend.lp(1.0), idx, p, seed=trial)
            hits += res.reason == "isolated_at_scale"
    assert hits >= 5


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


def test_cheeger_family_dominates_exact():
    space = zoo.grid(2, 3)
    fam = [sub for sub, _ in profiles.candidate_subsets(space,
                                                        Backend.sup(1.0))]
    val_f, _ = profiles.cheeger(space, 1.0, fam)
    val_e, _ = profiles.cheeger(space, 1.0, "all")
    assert val_f >= val_e - 1e-12


def test_sinf_volume_check_statuses():
    space = zoo.grid(2, 8)
    ok = profiles.sinf_volume_check(space, RateFunction.power(2.0),
                                    [1.0, 2.0])
    assert ok.status in ("pass", "fail")
    bounded = profiles.sinf_volume_check(
        space, RateFunction.tabulated([1.0, 2.0], [1.0, 1.5]), [4.0])
    assert bounded.status == "phi_bounded"
