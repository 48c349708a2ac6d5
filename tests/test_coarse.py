"""Equivalence certificates, discretization, pullback, transfer bands."""

import numpy as np
import pytest

from coarsecalc import coarse, zoo
from coarsecalc.space import MetricMeasureSpace


@pytest.fixture
def scaled_path9():
    return zoo.scale_metric(zoo.path(9), 2.0)


def test_certify_identity_is_tight():
    space = zoo.grid(2, 5)
    cert = coarse.certify_lse(space, space, np.arange(space.n),
                              r_grid=(1.0, 2.0))
    assert cert.ok
    assert cert.rho_plus_at(1.0) == pytest.approx(1.0)
    assert cert.rho_minus_at(1.0) == pytest.approx(1.0)
    for v in cert.C_r.values():
        assert v == pytest.approx(1.0)


def test_certify_flags_collapsing_map():
    space = zoo.path(9)
    target = zoo.path(9)
    F = np.zeros(9, dtype=int)   # everything lands on vertex 0
    cert = coarse.certify_lse(space, target, F, r_grid=(2.0,))
    assert not cert.ok
    assert cert.violation is not None


def test_discretize_scaled_path_worked_example(scaled_path9):
    # stretching the 9-point path by 2 and discretizing at the same scale
    # keeps every other point; Voronoi cells carry two units each except
    # the last
    disc = coarse.discretize(scaled_path9, 2.0)
    assert disc.centers.tolist() == [0, 2, 4, 6, 8]
    assert disc.graph.measure.tolist() == [2.0, 2.0, 2.0, 2.0, 1.0]
    assert disc.certificate.ok
    assert disc.graph.total_measure == pytest.approx(
        scaled_path9.total_measure)


def _discretize_loop_oracle(space, h):
    """The net, cells and edge list by the per-point rule: x joins when
    d(x, c) > h for every earlier centre c, read from x's own row."""
    centers = []
    for x in range(space.n):
        d = space.dist_row(x)
        if not centers or min(d[c] for c in centers) > h:
            centers.append(x)
    rows = np.vstack([space.dist_row(c) for c in centers])
    edges = [(i, j) for i in range(len(centers))
             for j in range(i + 1, len(centers))
             if rows[i, centers[j]] <= 2.0 * h]
    return centers, np.argmin(rows, axis=0), edges


@pytest.mark.parametrize("make", [
    lambda: zoo.path(40),
    lambda: zoo.grid(2, 9),
    lambda: zoo.grid(2, 8, "l2"),
    lambda: zoo.grid(2, 7, "linf"),
    lambda: zoo.regular_tree(3, 4),
    lambda: zoo.free_group_ball(2, 3),
    lambda: zoo.heisenberg_ball(2),
    lambda: zoo.random_geometric(80, 4),
    lambda: zoo.scale_metric(zoo.grid(2, 6), 1.7),
    lambda: zoo.scale_metric(zoo.regular_tree(3, 3), 0.7),
    lambda: zoo.scale_metric(zoo.random_geometric(60, 1), 3.3),
], ids=["path", "grid", "grid_l2", "grid_linf", "tree", "free_group",
        "heisenberg", "rgg", "grid_scaled", "tree_scaled", "rgg_scaled"])
def test_discretize_matches_per_point_oracle(make):
    space = make()
    reach = space.dist_row(0).max()
    scales = [0.5, 1.0, 1.5, 2.0, 3.0] + \
        [f * reach for f in (0.1, 0.15, 0.2, 0.3)]
    checked = 0
    for h in scales:
        try:
            disc = coarse.discretize(space, h)
        except ValueError as exc:
            assert "disconnected" in str(exc)
            continue
        checked += 1
        centers, assign, edges = _discretize_loop_oracle(space, h)
        assert disc.centers.tolist() == centers
        assert disc.assign.tolist() == assign.tolist()
        g = disc.graph._graph.tocoo()
        assert sorted((int(i), int(j)) for i, j in zip(g.row, g.col)
                      if i < j) == edges
    assert checked >= 3


@pytest.mark.parametrize("make", [
    lambda: zoo.random_geometric(80, 4),
    lambda: zoo.scale_metric(zoo.regular_tree(3, 3), 0.7),
], ids=["rgg", "tree_scaled"])
def test_discretize_to_one_point_passes_its_certificate(make):
    # radius at most h: every point is within h of point 0, so the net is
    # point 0 alone, carrying the whole measure
    space = make()
    disc = coarse.discretize(space, 3.0)
    assert disc.centers.tolist() == [0]
    assert disc.assign.tolist() == [0] * space.n
    assert disc.graph.measure.tolist() == [space.total_measure]
    assert disc.certificate.ok
    assert disc.certificate.bin_edges[-1] <= 6.0


def test_discretize_rejects_disconnecting_scale():
    coords = np.array([[0.0], [1.0], [30.0], [31.0]])
    clusters = MetricMeasureSpace.from_coords(coords, np.ones(4))
    with pytest.raises(ValueError, match="disconnected"):
        coarse.discretize(clusters, 1.0)


def test_pullback_of_indicator(scaled_path9):
    disc = coarse.discretize(scaled_path9, 2.0)
    f = np.zeros(disc.graph.n)
    f[0] = 1.0
    back = coarse.pullback(scaled_path9, f, disc.assign, 2.0)
    assert back.shape == (9,)
    assert back[0] > 0
    assert back[8] == 0.0


def test_pullback_transfer_report_identity():
    space = zoo.grid(2, 6)
    cert = coarse.certify_lse(space, space, np.arange(space.n),
                              r_grid=(1.0, 2.0))
    f = np.zeros(space.n)
    f[[14, 15, 20, 21]] = 1.0
    rep = coarse.pullback_transfer_report(space, space, np.arange(space.n),
                                          cert, f, h=1.0, p=2)
    assert rep.status == "ok"
    assert rep.c_l1 > 0
    assert np.isfinite(rep.C_l2) and np.isfinite(rep.C_l3)


def test_thicken_support_trims_rim_and_covers_with_balls():
    # plateau on {10..49} at h=2: the rim within distance 1 of the
    # complement is dropped and the kept core thickened back by h/2
    space = zoo.path(60)
    f = np.zeros(60)
    f[10:50] = 1.0
    res = coarse.thicken_support(space, f, 2.0)
    assert res.status == "thinned"
    assert np.flatnonzero(res.field).tolist() == list(range(11, 49))
    assert sorted(res.thick_support.indices.tolist()) == list(range(10, 50))
    assert res.measure_inflation == pytest.approx(40.0 / 38.0)
    assert res.gradient_ratio <= 2.0


def test_thicken_support_fallback_when_gradient_dominates():
    # a 5-point plateau at h=2 loses its whole interior to the rim
    space = zoo.path(20)
    f = np.zeros(20)
    f[8:13] = 1.0
    res = coarse.thicken_support(space, f, 2.0)
    assert res.status == "fallback"


def test_rough_volume_clause_and_skip():
    space = zoo.grid(2, 8)
    ident = np.arange(space.n)
    small = space.subset(space.ball(0, 2.0))
    big = space.subset(space.ball(0, 3.0))
    rep = coarse.rough_volume_check(space, space, ident, big, small, u=1.0)
    assert rep.status == "clause1"
    assert rep.holds

    skip = coarse.rough_volume_check(space, space, ident, small, small,
                                     u=1.0)
    assert skip.status == "skipped_no_containment"
    assert skip.holds is None


def test_scale_reduction_on_path_vs_clusters():
    ok = coarse.scale_reduction_check(
        zoo.path(16), b=1.0, h=3.0,
        fields=[np.sin(np.arange(16.0))])
    assert ok.status == "ok"

    coords = np.array([[0.0], [1.0], [30.0], [31.0]])
    clusters = MetricMeasureSpace.from_coords(coords, np.ones(4))
    skipped = coarse.scale_reduction_check(clusters, b=1.0, h=3.0,
                                           fields=[np.ones(4)])
    assert skipped.status == "skipped_not_geodesic"


def test_transfer_band_identity_within():
    space = zoo.path(16)
    cert = coarse.certify_lse(space, space, np.arange(16),
                              r_grid=(2.0, 4.0))
    band = coarse.profile_transfer_band(space, space, np.arange(16), cert,
                                        p=2, h=1.0)
    assert band.within_band
    assert band.K == 1
    assert int(band.in_range.sum()) == len(band.volumes)


def test_transfer_band_out_of_range_volumes_are_reported_not_asserted(
        scaled_path9):
    disc = coarse.discretize(scaled_path9, 2.0)
    band = coarse.profile_transfer_band(
        scaled_path9, disc.graph, disc.assign, disc.certificate, p=2,
        h=2.0, v_grid=[4.0, 64.0, 256.0])
    assert not band.in_range.any()
    assert band.within_band       # vacuous: nothing was asserted
    assert band.ratios.shape == (3,)


def test_transfer_band_requires_volume_constants():
    space = zoo.path(12)
    cert = coarse.certify_lse(space, space, np.arange(12), r_grid=())
    with pytest.raises(ValueError, match="volume constants"):
        coarse.profile_transfer_band(space, space, np.arange(12), cert,
                                     p=2, h=1.0)


# ----------------------------------------------------------------------
# the level-mass rule against the threshold loops it replaced


def _l1_l2_loop_oracle(space, target, F, cert, f_target, h, p, q):
    """(c_l1, C_l2, status, detail) by one threshold at a time."""
    mu, mu_t = space.measure, target.measure
    psi = coarse.pullback(space, f_target, F, h)
    lhs_vals = psi ** p
    rhs_vals = np.abs(f_target) ** p
    ts = np.unique(rhs_vals[rhs_vals > 0])
    if ts.size > 32:
        ts = ts[np.linspace(0, ts.size - 1, 32).astype(int)]
    c_l1 = np.inf
    for t in ts:
        den = mu_t[rhs_vals >= t].sum()
        if den > 0:
            c_l1 = min(c_l1, mu[lhs_vals >= t].sum() / den)
    if not np.isfinite(c_l1):
        c_l1 = 1.0

    h_prime = 2.0 * cert.rho_plus_at(h)
    status, detail = "ok", {}
    g_psi = coarse.grad_sup(space, psi, h) ** q
    g_f = coarse.grad_sup(target, f_target, h_prime) ** q if h_prime > 0 \
        else np.zeros(target.n)
    ts = np.unique(g_psi[g_psi > 0])
    if ts.size > 32:
        ts = ts[np.linspace(0, ts.size - 1, 32).astype(int)]
    C_l2 = 1.0
    for t in ts:
        lhs = mu[g_psi > t].sum()
        rhs = mu_t[g_f > t / 2.0].sum()
        if lhs == 0:
            continue
        if rhs == 0:
            status = "unbounded"
            detail["l2_threshold"] = float(t)
            C_l2 = np.inf
            break
        C_l2 = max(C_l2, lhs / rhs)
    return float(c_l1), float(C_l2), status, detail


def _scale_reduction_loop_oracle(space, b, h, fields):
    """(status, best_C, per_field) by one constant and threshold at a
    time."""
    mu = space.measure
    per_field, worst, feasible = [], 1.0, True
    for f in fields:
        g_h = coarse.grad_sup(space, f, h)
        g_2b = coarse.grad_sup(space, f, 2.0 * b)
        ts = np.unique(g_h[g_h > 0])
        if ts.size > 48:
            ts = ts[np.linspace(0, ts.size - 1, 48).astype(int)]
        best = None
        for C in coarse.CONSTANT_GRID:
            ok = True
            for t in ts:
                if mu[g_h > t].sum() > C * mu[g_2b > t / C].sum():
                    ok = False
                    break
            if ok:
                best = C
                break
        per_field.append(best)
        if best is None:
            feasible = False
        else:
            worst = max(worst, best)
    if not feasible:
        return "no_constant", None, per_field
    return "ok", float(worst), per_field


def _transfer_pairs():
    """(space, target, F, cert, h) for the benchmark's three shapes (an l1
    grid onto its linf grid, an l2 grid and a stretched path onto their
    nets) and a weighted path onto itself, long enough that both lemmas
    thin their thresholds."""
    out = []
    X, Y = zoo.grid(2, 5, "l1"), zoo.grid(2, 5, "linf")
    ident = np.arange(X.n)
    out.append((X, Y, ident, coarse.certify_lse(X, Y, ident, (2.0, 4.0)),
                1.0))
    for src, h in ((zoo.grid(2, 5, "l2"), 1.25),
                   (zoo.scale_metric(zoo.path(9), 2.0), 2.0)):
        disc = coarse.discretize(src, h)
        out.append((src, disc.graph, disc.assign, disc.certificate, h))
    W = zoo.path(120).with_measure(
        np.random.default_rng(4).uniform(0.5, 2.0, 120))
    W2 = W.with_measure(W.measure)   # the same space, a second object
    ident = np.arange(W.n)
    out.append((W, W2, ident, coarse.certify_lse(W, W2, ident, (1.0, 2.0)),
                1.0))
    return out


def _target_fields(n, seed):
    rng = np.random.default_rng(seed)
    ind = np.zeros(n)
    ind[: max(1, n // 3)] = 1.0
    return [rng.standard_normal(n), rng.uniform(0, 1, n) ** 3,
            rng.integers(-2, 3, n).astype(float), ind,
            np.where(rng.uniform(0, 1, n) < 0.5, 0.0, rng.exponential(1, n)),
            np.zeros(n)]


def _assert_same_transfer(space, target, F, cert, f, h, p, q):
    rep = coarse.pullback_transfer_report(space, target, F, cert, f, h,
                                          p=p, q=q)
    got = (rep.c_l1, rep.C_l2, rep.status, rep.detail)
    assert repr(got) == repr(_l1_l2_loop_oracle(space, target, F, cert, f,
                                                h, p, q))
    return rep


def test_pullback_lemmas_match_threshold_loops():
    statuses = set()
    for k, (space, target, F, cert, h) in enumerate(_transfer_pairs()):
        for f in _target_fields(target.n, k):
            for p, q in ((2, 2), (1, 2), (3, 1)):
                rep = _assert_same_transfer(space, target, F, cert, f, h,
                                            p, q)
                statuses.add(rep.status)
        # a vanished field bounds nothing
        rep = coarse.pullback_transfer_report(space, target, F, cert,
                                              np.zeros(target.n), h)
        assert (rep.c_l1, rep.C_l2) == (1.0, 1.0)
    assert statuses == {"ok"}


@pytest.mark.parametrize("factor", [0.0, 0.05, 0.5])
def test_pullback_gradient_ceiling_shrunk_target_matches_loop(monkeypatch,
                                                              factor):
    # the target's gradient shrunk by factor: at 0 and 0.05 L2 stops at
    # its first threshold whose target mass is 0 on every pair; at 0.5
    # some ceilings stay finite above 1
    grad_sup = coarse.grad_sup
    ceilings = []
    for k, (space, target, F, cert, h) in enumerate(_transfer_pairs()):
        monkeypatch.setattr(coarse, "grad_sup", lambda s, f, r: (
            factor if s is target else 1.0) * grad_sup(s, f, r))
        reps = [_assert_same_transfer(space, target, F, cert, f, h, 2, 2)
                for f in _target_fields(target.n, k)]
        assert factor == 0.5 or any(r.status == "unbounded" for r in reps)
        ceilings += [r.C_l2 for r in reps]
    if factor == 0.5:
        assert any(1.0 < c < np.inf for c in ceilings)


# path(60) and grid(2, 9) have more than 48 thresholds
SCALE_CASES = {
    "path60": (zoo.path(60), 1.0, 3.0),
    "grid2_6": (zoo.grid(2, 6), 1.0, 2.5),
    "grid2_9": (zoo.grid(2, 9), 1.0, 3.0),
}


@pytest.mark.parametrize("case", sorted(SCALE_CASES))
@pytest.mark.parametrize("factor", [None, 0.0, 0.3])
def test_scale_reduction_matches_threshold_loop(monkeypatch, case, factor):
    # factor shrinks the 2b gradient: 0 leaves no constant on the grid
    space, b, h = SCALE_CASES[case]
    if factor is not None:
        grad_sup = coarse.grad_sup
        monkeypatch.setattr(coarse, "grad_sup", lambda s, f, r: (
            factor if r == 2.0 * b else 1.0) * grad_sup(s, f, r))
    rng = np.random.default_rng(7)
    fields = [rng.standard_normal(space.n), np.sin(np.arange(space.n)),
              rng.integers(0, 4, space.n).astype(float),
              rng.uniform(0, 1, space.n) ** 4, np.zeros(space.n),
              # on grid(2, 9) its constant moves if the cap of 48 does
              np.random.default_rng(29).exponential(1, space.n)]
    rep = coarse.scale_reduction_check(space, b, h, fields)
    want = _scale_reduction_loop_oracle(space, b, h, fields)
    assert repr((rep.status, rep.best_C, rep.per_field)) == repr(want)
    if factor == 0.0:
        assert rep.status == "no_constant"
