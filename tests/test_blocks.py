"""Block distance reads (``dist_rows`` / ``dist_blocks``) against the
one-row-at-a-time loops they replace.

The spaces span several blocks at the default ``BLOCK_ENTRIES``: a graph
and a dense space of 1,457 points (719 rows a block) and an l1 coords grid
of 900 points (582 rows a block), so every caller crosses block edges.
"""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from coarsecalc import coarse, profiles, space as space_module, zoo
from coarsecalc.space import MetricMeasureSpace
from coarsecalc.viewpoint import Certificate, Violation, standard_viewpoint, \
    validate


def _weights(n):
    return np.random.default_rng(n).uniform(0.05, 0.3, n)


def _graph():
    g = zoo.free_group_ball(2, 6)
    return g.with_measure(_weights(g.n))


def _dense():
    g = zoo.free_group_ball(2, 6)
    return MetricMeasureSpace.from_dense(g.dense_matrix(), _weights(g.n))


def _coords():
    c = zoo.grid(2, 30, "l1")
    return c.with_measure(_weights(c.n))


SPACES = {"graph": _graph, "dense": _dense, "coords": _coords}


@pytest.fixture(scope="module", params=sorted(SPACES))
def space(request):
    out = SPACES[request.param]()
    assert out.block_rows() < out.n / 1.5      # at least two blocks
    return out


@pytest.fixture(scope="module")
def rows(space):
    """Every distance row, read one point at a time."""
    return np.vstack([space.dist_row(x) for x in range(space.n)])


# ------------------------------------------------------------- dist_rows


def test_dist_rows_equal_single_point_reads_bitwise():
    rng = np.random.default_rng(0)
    edges = [(i, i + 1, w) for i, w in enumerate(rng.uniform(0.1, 1.0, 59))]
    edges += [(int(i), int(j), float(w)) for i, j, w in zip(
        rng.integers(0, 60, 40), rng.integers(0, 60, 40),
        rng.uniform(0.1, 1.0, 40)) if i != j]
    graph = MetricMeasureSpace.from_graph(60, edges, np.ones(60))
    xs = np.array([5, 0, 59, 5, 31])
    for limit in (None, 0.7, 2.5):
        lim = np.inf if limit is None else limit
        got = graph.dist_rows(xs, limit=limit)
        for k, x in enumerate(xs):
            want = dijkstra(graph._graph, directed=False, indices=x,
                            limit=lim)
            assert got[k].tobytes() == want.tobytes()

    D = np.abs(np.subtract.outer(np.arange(7.0), np.arange(7.0))) * 0.3
    dense = MetricMeasureSpace.from_dense(D, np.ones(7))
    assert dense.dist_rows([6, 2, 2]).tobytes() == D[[6, 2, 2]].tobytes()

    X = rng.normal(size=(40, 3))
    for p, norm in ((1, lambda d: np.abs(d).sum(axis=1)),
                    (2, lambda d: np.sqrt((d * d).sum(axis=1))),
                    (np.inf, lambda d: np.abs(d).max(axis=1))):
        coords = MetricMeasureSpace.from_coords(X, np.ones(40), p)
        got = coords.dist_rows([3, 39, 0])
        for k, x in enumerate([3, 39, 0]):
            assert got[k].tobytes() == norm(X - X[x]).tobytes()


@pytest.mark.parametrize("make", [lambda: zoo.path(5),
                                  lambda: zoo.grid(2, 3),
                                  lambda: MetricMeasureSpace.from_dense(
                                      1 - np.eye(4), np.ones(4))],
                         ids=["graph", "coords", "dense"])
def test_dist_rows_reject_negative_and_large_indices(make):
    space = make()
    for bad in ([-1], [space.n], [0, space.n + 3]):
        with pytest.raises(IndexError, match="out of range"):
            space.dist_rows(bad)
    with pytest.raises(IndexError):
        space.dist_row(-1)


def test_dense_matrix_equals_rows(space, rows):
    assert space.dense_matrix().tobytes() == rows.tobytes()


def test_min_dist_to_equals_running_minimum(space, rows):
    rng = np.random.default_rng(1)
    targets = rng.choice(space.n, size=space.block_rows() + 40,
                         replace=False)
    want = np.full(space.n, np.inf)
    for t in targets:
        np.minimum(want, rows[t], out=want)
    assert space.min_dist_to(targets).tobytes() == want.tobytes()
    empty = space.min_dist_to([])
    assert empty.shape == (space.n,) and np.all(np.isinf(empty))


# ------------------------------------------------------------- callers


def test_certify_lse_matches_pair_loop(space, rows):
    F = np.arange(space.n) // 2
    cert = coarse.certify_lse(space, space, F, r_grid=(1.0, 2.0))
    # every pair x < y in row order, a row at a time
    src = np.concatenate([rows[x, x + 1:] for x in range(space.n)])
    img = np.concatenate([rows[F[x], F[x + 1:]] for x in range(space.n)])
    edges = np.unique(src)
    assert edges.size <= coarse.MAX_BINS     # one bin per distance
    assert cert.bin_edges.tobytes() == edges.tobytes()
    assert cert.rho_plus.tobytes() == np.array(
        [img[src <= e].max() for e in edges]).tobytes()
    assert cert.rho_minus.tobytes() == np.array(
        [img[src >= e].min() for e in edges]).tobytes()
    assert cert.onto_C == rows[np.unique(F)].min(axis=0).max()
    for r in (1.0, 2.0):
        vs = (rows <= r) @ space.measure
        vt = vs[F]
        assert cert.C_r[r] == pytest.approx(
            max((vs / vt).max(), (vt / vs).max()), rel=1e-12)


def test_certify_lse_witness_is_first_farthest_pair(space, rows):
    F = np.zeros(space.n, dtype=np.int64)        # a collapsing map
    cert = coarse.certify_lse(space, zoo.path(3), F)
    far = max(rows[x, x + 1:].max() for x in range(space.n - 1))
    x = next(x for x in range(space.n - 1) if rows[x, x + 1:].max() == far)
    y = x + 1 + int(np.argmax(rows[x, x + 1:]))
    assert cert.violation.axiom == "a"
    assert cert.violation.witness == (x, y)


def test_certify_lse_witness_past_the_first_block():
    # a unit path with two tails of length 1e4 hung off its middle: the
    # farthest pair is the two tail ends, in the last block
    n = 1500
    edges = [(i, i + 1, 1.0) for i in range(n - 3)]
    edges += [(n // 2, n - 2, 1e4), (n // 2, n - 1, 1e4)]
    space = MetricMeasureSpace.from_graph(n, edges, np.ones(n))
    assert space.block_rows() < n - 2
    cert = coarse.certify_lse(space, zoo.path(3), np.zeros(n, np.int64))
    assert cert.violation.witness == (n - 2, n - 1)


def _validate_loop(rows, dens, h):
    """The per-point axiom check: (A, c) or the first (x, y) where a ball
    point is outside the support."""
    A, c = 1.0, np.inf
    for x, d in enumerate(rows):
        sl = slice(dens.indptr[x], dens.indptr[x + 1])
        sup, vals = dens.indices[sl], dens.data[sl]
        if sup.size:
            A = max(A, d[sup].max() / h)
        ball = np.flatnonzero(d <= h)
        in_sup = np.isin(ball, sup)
        if not np.all(in_sup):
            return x, int(ball[~in_sup][0])
        c = min(c, vals[np.isin(sup, ball)].min())
    return float(A), float(c)


def test_validate_matches_row_loop(space, rows):
    # a kernel spread over B(x, 2) checked at h = 1: A = 2 and the floor
    # is read on the smaller balls
    dens = standard_viewpoint(space, 2.0).dens
    cert = validate(space, dens, 1.0)
    assert isinstance(cert, Certificate)
    A, c = _validate_loop(rows, dens, 1.0)
    assert np.float64(cert.A).tobytes() == np.float64(A).tobytes()
    assert np.float64(cert.c).tobytes() == np.float64(c).tobytes()
    assert cert.A == 2.0


def test_validate_reports_the_first_hole(space, rows):
    # holes in a row of the last block and in a later row of it: the
    # earlier row is the witness, at its first missing ball point
    dens = standard_viewpoint(space, 1.0).dens.tolil()
    mu = space.measure
    for x in (space.n - 7, space.n - 2):
        ball = space.ball(x, 1.0)
        y = int(ball[ball != x][0])
        dens[x, x] += dens[x, y] * mu[y] / mu[x]
        dens[x, y] = 0.0
    dens = csr_matrix(dens)
    out = validate(space, dens, 1.0)
    assert isinstance(out, Violation)
    assert (out.x, out.y) == _validate_loop(rows, dens, 1.0)
    assert out.x == space.n - 7


def test_fallback_ball_matches_centre_loop(space, rows):
    # the last point alone has mass 1, so the best centre is in the last
    # block
    w = space.measure.copy()
    w[-1] = 1.0
    space = space.with_measure(w)
    best = None
    for x in range(space.n):
        order = np.argsort(rows[x], kind="stable")
        csum = np.cumsum(space.measure[order])
        k = int(np.argmin(np.abs(csum - 1.0)))
        if best is None or abs(csum[k] - 1.0) < best[0]:
            best = (abs(csum[k] - 1.0), x, np.sort(order[:k + 1]), csum[k])
    res = coarse._fallback_ball(space, 2.0)
    assert res.status == "fallback"
    assert res.detail == {"center": best[1], "ball_measure": best[3]}
    assert res.field.tobytes() == np.isin(np.arange(space.n),
                                          best[2]).astype(float).tobytes()
    assert best[1] == space.n - 1
    # unit weights: every point alone has mass 1, and the first centre wins
    ones = space.with_measure(np.ones(space.n))
    assert coarse._fallback_ball(ones, 2.0).detail["center"] == 0


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of a few rows, so that small spaces cross many block edges."""
    monkeypatch.setattr(space_module, "BLOCK_ENTRIES", 100)


@pytest.mark.parametrize("make", [lambda: zoo.regular_tree(3, 4),
                                  lambda: zoo.grid(2, 5, "l2")],
                         ids=["graph", "coords"])
def test_ball_family_matches_centre_loop(make, small_blocks):
    space = make()
    centers = range(1, space.n, 2)
    assert space.block_rows() < len(centers) / 3
    want = []
    for x in centers:
        d = space.dist_row(x)
        want += [(np.flatnonzero(d <= r), f"ball({x},{r:g})")
                 for r in profiles._radius_grid(d, cap=10)]
    got = [(np.flatnonzero(row), fmt(i))
           for rows, fmt in profiles._ball_rows(space, centers)
           for i, row in enumerate(rows)]
    assert [lab for _, lab in got] == [lab for _, lab in want]
    for (a, _), (b, _) in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_jp1_ball_search_family_matches_centre_loop(small_blocks,
                                                    monkeypatch):
    space = zoo.path(23).with_measure(_weights(23))
    idx = np.arange(1, 23)
    assert idx.size > profiles.EXACT_ENUM_LIMIT
    assert space.block_rows() < idx.size / 3
    seen = []
    table = profiles._table
    monkeypatch.setattr(profiles, "_table", lambda *a: seen.append(
        table(*a)) or seen[-1])
    profiles.jp_subset(space, profiles.Backend.sup(1.0), idx, 1)
    radii = profiles._radius_grid(space.dist_row(int(idx[0])))
    # the parts in A of the balls, each at its first occurrence
    want = {}
    for x in idx:
        for r in radii:
            sub = np.intersect1d(np.flatnonzero(space.dist_row(int(x)) <= r),
                                 idx)
            want.setdefault(sub.tobytes(), (sub, f"ball({x},{r:g})"))
    fam, = seen
    assert [(fam.indices(j).tolist(), fam.label(j))
            for j in range(fam.masses.size)] == \
        [(sub.tolist(), label) for sub, label in want.values()]


# ------------------------------------------------------------- guards


def test_loops_over_points_make_no_dist_row_call(monkeypatch):
    def refuse(self, x, limit=None):
        raise AssertionError("a loop over points read a single row")

    dense = MetricMeasureSpace.from_dense(zoo.grid(2, 4).dense_matrix(),
                                          np.ones(16))
    graph = zoo.regular_tree(3, 3)
    coords = zoo.grid(2, 5)
    monkeypatch.setattr(MetricMeasureSpace, "dist_row", refuse)
    for space in (dense, graph, coords):
        assert space.neighbourhoods(2.5)[0][-1] > space.n
        F = np.arange(space.n)
        assert coarse.certify_lse(space, space, F, r_grid=(1.0,)).ok
        assert isinstance(validate(space, standard_viewpoint(space, 1.0).dens,
                                   1.0), Certificate)
        assert space.min_dist_to([0, 3]).shape == (space.n,)
    f = np.zeros(graph.n)
    f[[0, 1]] = 1.0
    assert coarse.thicken_support(graph, f, 2.0).status == "fallback"
