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
