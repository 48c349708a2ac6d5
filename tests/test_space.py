"""Core space container: balls, thickening, boundary, doubling, (de)serialization."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csr_matrix

import coarsecalc
from coarsecalc import zoo
from coarsecalc.space import (
    MetricMeasureSpace,
    boundary,
    chain_metric,
    doubling_profile,
    geodesicity_report,
    load_space,
    save_space,
    space_to_json,
    thicken,
)


def test_from_dense_rejects_triangle_violation():
    d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="triangle"):
        MetricMeasureSpace.from_dense(d, np.ones(3), check_triangle=True)


def test_from_dense_rejects_asymmetry_and_bad_measure():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        MetricMeasureSpace.from_dense(d, np.ones(2))
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        MetricMeasureSpace.from_dense(d, np.array([1.0, 0.0]))


@pytest.mark.parametrize("edges,message", [
    # each edge in input order meets the range, self-loop, sign and
    # finiteness checks in that order; the first edge failing any is named
    ([(0, 1, 1.0), (1, 1, 1.0), (0, 5, 1.0)], r"self-loop at 1 not"),
    ([(0, 1, -1.0), (0, 9, 1.0)], r"edge \(0,1\) has nonpositive weight -1.0"),
    ([(1, 2, 1.0), (9, 9, -1.0), (2, 2, 1.0)],
     r"edge \(9,9\) out of range for n=3"),
    ([(0, -1, 2.0)], r"edge \(0,-1\) out of range"),
    ([[0, 1, 1], [1, 2, 0]], r"edge \(1,2\) has nonpositive weight 0.0"),
    ([(0, 1, 1.0), (1, 2, np.nan)], r"edge \(1,2\) has non-finite weight nan"),
    ([(0, 1, np.inf), (1, 2, 1.0)], r"edge \(0,1\) has non-finite weight inf"),
    ([(0, 1, np.nan), (1, 2, -1.0)],
     r"edge \(0,1\) has non-finite weight nan"),
])
def test_from_graph_names_the_first_bad_edge(edges, message):
    with pytest.raises(ValueError, match=message):
        MetricMeasureSpace.from_graph(3, edges, np.ones(3))


def test_from_graph_matches_edge_by_edge_assembly():
    # repeated edges (both orientations) sum in input order, as entries
    # (i, j), (j, i) appended one edge at a time did
    edges = [(0, 1, 0.1), (1, 2, 0.2), (0, 1, 0.7), (1, 0, 0.3), (2, 3, 1.5)]
    rows, cols, vals = [], [], []
    for i, j, w in edges:
        rows += [i, j]
        cols += [j, i]
        vals += [w, w]
    want = csr_matrix((vals, (rows, cols)), shape=(4, 4))
    got = MetricMeasureSpace.from_graph(4, edges, np.ones(4))._graph
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                 (got.data, want.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    one = MetricMeasureSpace.from_graph(1, [], np.ones(1))
    assert one.n == 1 and one._graph.nnz == 0


@pytest.mark.parametrize("x,r,expected", [
    (0, 1.0, 2),   # endpoint sees itself and one neighbour
    (5, 1.0, 3),
    (5, 2.0, 5),
    (0, 100.0, 10),
])
def test_path_ball_volumes(x, r, expected):
    space = zoo.path(10)
    assert space.volume(x, r) == pytest.approx(expected)
    assert len(space.ball(x, r)) == expected


def test_interval_thicken_and_boundary():
    # closed-ball conventions on the 10-point path: thickening the interval
    # {3,4,5} by 1 adds one point each side, and the two-sided boundary
    # picks up the inner and outer rim, total measure 4.
    space = zoo.path(10)
    A = [3, 4, 5]
    assert sorted(thicken(space, A, 1.0).indices.tolist()) == [2, 3, 4, 5, 6]
    b = boundary(space, A, 1.0)
    assert sorted(b.indices.tolist()) == [2, 3, 5, 6]
    assert b.measure == pytest.approx(4.0)


def test_boundary_is_symmetric_in_complement():
    space = zoo.grid(2, 5)
    rng = np.random.default_rng(11)
    for _ in range(20):
        mask = rng.random(space.n) < 0.4
        if not mask.any() or mask.all():
            continue
        A = np.flatnonzero(mask)
        Ac = np.flatnonzero(~mask)
        left = sorted(boundary(space, A, 1.0).indices.tolist())
        right = sorted(boundary(space, Ac, 1.0).indices.tolist())
        assert left == right


@given(st.integers(min_value=0, max_value=24), st.floats(0.5, 3.0))
def test_thicken_contains_the_set(x, h):
    space = zoo.grid(2, 5)
    A = [x]
    out = thicken(space, A, h).indices
    assert x in out


def test_doubling_profile_on_path():
    # interior of a long path: V(x,2r)/V(x,r) = (2r+1)/(r+1) twice... the
    # report takes the worst point, which sits in the middle.
    rep = doubling_profile(zoo.path(101), [2.0])
    assert rep[0].r == 2.0
    assert rep[0].constant == pytest.approx(9.0 / 5.0)


def test_doubling_constant_bounded_on_grid():
    reps = doubling_profile(zoo.grid(2, 16), [1.0, 2.0, 4.0])
    for rep in reps:
        assert 1.0 <= rep.constant <= 4.0


@pytest.mark.parametrize("space", [
    zoo.path(7),
    zoo.grid(2, 4, metric="linf"),
    zoo.random_geometric(12, seed=3),
])
def test_save_load_roundtrip(space, tmp_path):
    p = tmp_path / "s.json"
    save_space(space, p)
    back = load_space(p)
    assert back.n == space.n
    np.testing.assert_allclose(back.measure, space.measure)
    for x in range(space.n):
        np.testing.assert_allclose(back.dist_row(x), space.dist_row(x),
                                   atol=1e-12)


def test_save_is_deterministic(tmp_path):
    space = zoo.random_geometric(15, seed=9)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_space(space, a)
    save_space(space, b)
    assert a.read_bytes() == b.read_bytes()


def test_geodesicity_statuses():
    path_rep = geodesicity_report(zoo.path(9), [1.0])
    assert path_rep[0]["status"] == "b-geodesic"
    assert path_rep[0]["add"] == pytest.approx(0.0, abs=1e-9)

    # two far clusters: chaining at b=1 cannot bridge the 10.0 gap
    coords = np.array([[0.0], [1.0], [11.0], [12.0]])
    clusters = MetricMeasureSpace.from_coords(coords, np.ones(4))
    rep = geodesicity_report(clusters, [1.0, 20.0])
    assert rep[0]["status"] == "disconnected"
    assert rep[1]["status"] in ("b-geodesic", "quasi-geodesic")


def test_min_dist_to():
    space = zoo.path(10)
    d = space.min_dist_to([0, 9])
    assert d[0] == 0.0 and d[9] == 0.0
    assert d[4] == pytest.approx(4.0)
    assert d[5] == pytest.approx(4.0)


@pytest.mark.parametrize("bad,kind", [(np.nan, "NaN"), (np.inf, "infinite"),
                                       (-np.inf, "infinite")])
def test_from_coords_rejects_non_finite_coordinates(bad, kind):
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    coords[1, 1] = bad
    with pytest.raises(ValueError,
                       match=f"coordinate is {kind} at point 1, axis 1"):
        MetricMeasureSpace.from_coords(coords, np.ones(3))


def test_subset_complement_partition():
    space = zoo.grid(2, 3)
    A = space.subset([0, 4, 8])
    comp = A.complement()
    assert sorted(np.concatenate([A.indices, comp.indices]).tolist()) \
        == list(range(9))
    assert A.measure + comp.measure == pytest.approx(space.total_measure)


def _realised(space, x, k):
    """k distances realised from point x (exact ties for a radius)."""
    d = np.unique(space.dist_row(x))
    return [float(r) for r in d[np.isfinite(d) & (d > 0)][:k]]


def _neighbourhood_cases():
    l2 = zoo.grid(2, 4, "l2")
    rgg = zoo.random_geometric(40, seed=3)
    clusters = MetricMeasureSpace.from_coords(
        np.array([[0.0], [1.0], [11.0], [12.0]]), np.ones(4))
    # coords spaces where the KD-tree's ties are hardest: 0.1 and 0.3
    # multiples are inexact in floats, so equal lattice distances can differ
    # in their last bits
    fine = zoo.scale_metric(zoo.grid(2, 5, "l2"), 0.1)
    thirds = zoo.scale_metric(zoo.path(9), 0.3)
    cube = zoo.grid(3, 4, "l2")
    dupes = MetricMeasureSpace.from_coords(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0],
                  [1.0, 0.0]]), np.ones(5), name="duplicates")
    big_rgg = zoo.random_geometric(300, seed=5)
    # several blocks of rows: 1,457 points read 719 rows at a time
    free6 = zoo.free_group_ball(2, 6)
    big_dense = MetricMeasureSpace.from_dense(
        zoo.scale_metric(free6, 0.3).dense_matrix(), np.ones(free6.n),
        name="free6_dense")
    cases = [
        (zoo.grid(2, 4, "l1"), [0.0, 1.0, 2.0]),
        (l2, [0.0, 1.0, 2.0] + [r for r in _realised(l2, 5, 5)
                                if r != int(r)]),
        (zoo.grid(2, 4, "linf"), [0.0, 1.0, 2.0]),
        (zoo.path(9), [0.0, 0.5, 1.0, 1.5, 2.0, 20.0]),
        (zoo.regular_tree(3, 3), [0.0, 1.0, 2.0]),
        (zoo.free_group_ball(2, 2), [0.0, 1.0, 3.0]),
        (zoo.heisenberg_ball(1), [0.0, 1.0, 2.0]),
        (rgg, [0.0, 0.2] + _realised(rgg, 7, 3)),
        # 0.3 + 0.3 + 0.3 != 0.9 in floats: path sums decide the ties
        (zoo.scale_metric(zoo.regular_tree(3, 3), 0.3),
         [0.0, 0.3, 0.5, 0.6, 0.9]),
        (chain_metric(l2, 1.5), [0.0, 1.0, 1.5, 2.5]),
        (chain_metric(clusters, 1.0), [0.0, 1.0, 2.0]),
        (fine, _realised(fine, 12, 6)),
        (thirds, sorted(set(_realised(thirds, 0, 4) +
                            _realised(thirds, 4, 3)))),
        (cube, [r for r in _realised(cube, 0, 3) if r != int(r)]),
        (dupes, [0.0, 1.0, 1.5]),
        (big_rgg, [0.0] + _realised(big_rgg, 17, 2) + [0.09]),
        (free6, [3.0]),
        (big_dense, [0.3, 0.9]),
    ]
    return [(space, r) for space, radii in cases for r in radii]


@pytest.mark.parametrize("space,r", _neighbourhood_cases(),
                         ids=lambda v: getattr(v, "name", str(v)))
def test_neighbourhoods_match_per_point_oracle(space, r):
    indptr, indices, dist = space.neighbourhoods(r)
    assert indptr.size == space.n + 1
    for x in range(space.n):
        row = space.dist_row(x, limit=r)
        ball = np.flatnonzero(row <= r)
        sl = slice(indptr[x], indptr[x + 1])
        np.testing.assert_array_equal(indices[sl], ball)
        assert dist[sl].tobytes() == row[ball].tobytes()
    # a disconnected chain metric is dense and cannot be saved
    metric = {} if space.disconnected else space_to_json(space)["metric"]
    if metric.get("type") == "graph" and \
            r < 2.0 * min(e[2] for e in metric["edges"]):
        # the adjacency read: x and its incident edges of weight <= r
        near = [{x} for x in range(space.n)]
        for i, j, w in metric["edges"]:
            if w <= r:
                near[i].add(j)
                near[j].add(i)
        for x in range(space.n):
            assert indices[indptr[x]:indptr[x + 1]].tolist() == \
                sorted(near[x])

    assert space.neighbourhoods(r) is space.neighbourhoods(r)
    reweighted = space.with_measure(np.linspace(1.0, 2.0, space.n))
    assert reweighted.neighbourhoods(r) is space.neighbourhoods(r)
    for arr in (indptr, indices, dist):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]

    rng = np.random.default_rng(space.n)
    for _ in range(3):
        A = np.flatnonzero(rng.random(space.n) < 0.3)
        union = np.unique(np.concatenate(
            [space.ball(int(a), r) for a in A] + [np.array([], np.int64)]))
        np.testing.assert_array_equal(thicken(space, A, r).indices, union)


@given(points=arrays(np.int64, st.tuples(st.integers(2, 40), st.integers(1, 3)),
                     elements=st.integers(-6, 6)),
       scale=st.sampled_from([0.1, 0.3]),
       p_norm=st.sampled_from([1.0, 2.0, np.inf]))
def test_coords_neighbourhoods_equal_per_point_rule_bitwise(points, scale,
                                                            p_norm):
    space = MetricMeasureSpace.from_coords(points * scale,
                                           np.ones(len(points)), p_norm)
    rows = space.dense_matrix()   # the dist_row of every point
    # every realised distance is a radius with ties at exactly r
    for r in np.unique(rows).tolist():
        inside = rows <= r
        indptr, indices, dist = space.neighbourhoods(r)
        np.testing.assert_array_equal(np.diff(indptr), inside.sum(axis=1))
        np.testing.assert_array_equal(indices, np.nonzero(inside)[1])
        assert dist.tobytes() == rows[inside].tobytes()


def test_coords_neighbourhoods_make_no_dist_row_call(monkeypatch):
    # the oracle cases above hold this space's balls at r = 0.09 to the
    # per-point rule; here they must come without a single dist_row
    def refuse(self, x, limit=None):
        raise AssertionError("coords balls must not be built point by point")

    monkeypatch.setattr(MetricMeasureSpace, "dist_row", refuse)
    indptr, indices, _ = zoo.random_geometric(300, seed=5).neighbourhoods(0.09)
    assert np.all(np.diff(indptr) >= 1) and indptr[-1] == indices.size


def test_import_leaves_scipy_spatial_unloaded():
    # the KD-tree is imported where coords balls are built, so importing
    # the package (set-up of every run) does not pay for scipy.spatial
    src = str(Path(coarsecalc.__file__).resolve().parents[1])
    code = "import sys, coarsecalc; print('scipy.spatial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
