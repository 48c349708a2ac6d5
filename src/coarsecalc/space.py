"""Finite metric measure spaces and the set calculus at a scale.

A space is a finite point set ``{0, ..., N-1}`` with a metric ``d`` and a
strictly positive weight per point. All geometry queries (balls, volumes,
thickenings, boundaries, doubling diagnostics, chain metrics) go through
:class:`MetricMeasureSpace`.

The metric is held by one of three interchangeable providers, and read
through :meth:`MetricMeasureSpace.dist_rows` a block of rows at a time
(loops over the points walk :meth:`MetricMeasureSpace.dist_blocks`):

* ``dense``  -- an explicit N x N array (validated on construction);
* ``graph``  -- a weighted undirected graph, distances are shortest paths
  computed on demand (always a metric, so no triangle check is needed);
* ``coords`` -- points in R^k with an l1 / l2 / linf norm; rows are
  computed on demand, whole-space balls come from one KD-tree query (never
  materializes N^2 floats).

Balls come in two forms. :meth:`MetricMeasureSpace.ball` answers a single
query and keeps nothing. Whole-space sweeps (gradients, kernels, volumes,
thickenings, boundaries, doubling, chain metrics) read
:meth:`MetricMeasureSpace.neighbourhoods`, which returns every closed ball
at one radius as a CSR triple, built once and memoised per radius. The memo
depends only on the metric, so :meth:`MetricMeasureSpace.with_measure`
shares it.

Conventions
-----------
* Balls are closed: ``B(x, r) = {y : d(x, y) <= r}``; ties at exactly ``r``
  are inside.
* ``thicken(A, h) = [A]_h = {x : d(x, A) <= h}``.
* ``boundary(A, h) = [A]_h & [A^c]_h`` with the complement taken inside the
  space; the definition is symmetric in ``A`` and ``A^c``.
* Disconnection (in ``chain_metric``) is reported by an ``inf`` sentinel plus
  a ``disconnected`` flag, never by a silently large float.
"""

from __future__ import annotations

import copy
import itertools
import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix, issparse
from scipy.sparse.csgraph import connected_components, dijkstra

# Triangle-inequality validation is O(N^3): on by default up to this size,
# opt-in above it.
TRIANGLE_CHECK_LIMIT = 300

# Hard cap for materializing dense N x N distance matrices.
DENSE_LIMIT = 6000

# Float64 entries (8 MB) in one block of distance rows or coords differences.
BLOCK_ENTRIES = 2 ** 20


class MetricMeasureSpace:
    """A finite point set with a metric and a strictly positive measure.

    Immutable after construction; all queries are read-only, so instances are
    safe to share across parallel workers. The only state added later is
    three memos of read-only arrays: :meth:`neighbourhoods` per radius,
    shared by :meth:`with_measure`; the lp gradient forms
    ``calculus._form`` keeps per scale; and the exhaustive subset tables
    ``profiles._space_tables`` keeps per backend kind and scale. The last
    two depend on the measure and are not shared. A viewpoint's form is
    kept on the viewpoint, and its tables are not kept. A deep copy
    carries the memos, read-only like the originals.

    Use the classmethods :meth:`from_dense`, :meth:`from_graph`,
    :meth:`from_coords` to construct, or :func:`load_space` to read the JSON
    format.
    """

    def __init__(self, n, measure, name, mode, *, dense=None, graph=None,
                 coords=None, p_norm=None, meta=None, disconnected=False):
        measure = np.asarray(measure, dtype=float)
        if measure.shape != (n,):
            raise ValueError(f"measure must have shape ({n},), got {measure.shape}")
        if not np.all(measure > 0):
            bad = int(np.argmin(measure))
            raise ValueError(f"measure must be strictly positive; point {bad} "
                             f"has weight {measure[bad]}")
        self.n = int(n)
        self.measure = measure
        self.total_measure = float(measure.sum())
        self.name = str(name)
        self.meta = dict(meta) if meta else {}
        self.disconnected = bool(disconnected)
        self._mode = mode
        self._dense = dense
        self._graph = graph
        self._coords = coords
        self._p_norm = p_norm
        self._balls = {}   # radius -> neighbourhoods(radius)
        self._forms = {}   # lp scale h -> calculus._form(self, h)
        self._tables = {}  # (kind, h) -> profiles._space_tables(self, ...)

    def __deepcopy__(self, memo):
        """A deep copy whose memos are read-only, as the originals are."""
        out = copy.copy(self)
        memo[id(self)] = out
        out.__dict__.update(copy.deepcopy(self.__dict__, memo))
        _read_only(out._balls, out._forms, out._tables)
        return out

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_dense(cls, dist, measure, name="space", check_triangle=None,
                   meta=None):
        """Build from an explicit distance matrix.

        Validates symmetry, exact zero diagonal, positivity off the diagonal
        and (for N <= TRIANGLE_CHECK_LIMIT by default, opt-in above) the
        triangle inequality. The first violation is reported with indices.
        """
        dist = np.asarray(dist, dtype=float)
        n = dist.shape[0]
        if dist.shape != (n, n):
            raise ValueError(f"distance matrix must be square, got {dist.shape}")
        if n > DENSE_LIMIT:
            raise ValueError(f"dense provider capped at N={DENSE_LIMIT}; "
                             "use a graph- or coords-backed space")
        if np.any(np.isnan(dist)):
            i, j = np.argwhere(np.isnan(dist))[0]
            raise ValueError(f"distance is NaN at pair ({i}, {j})")
        if np.any(np.isinf(dist)):
            i, j = np.argwhere(np.isinf(dist))[0]
            raise ValueError(f"distance is infinite at pair ({i}, {j})")
        diag = np.diagonal(dist)
        if np.any(diag != 0):
            i = int(np.argmax(diag != 0))
            raise ValueError(f"diagonal must be exactly zero; d({i},{i}) = {diag[i]}")
        asym = np.abs(dist - dist.T)
        if np.any(asym > 0):
            i, j = np.argwhere(asym > 0)[0]
            raise ValueError(f"metric not symmetric at pair ({i}, {j}): "
                             f"{dist[i, j]} vs {dist[j, i]}")
        off = dist + np.eye(n)  # shift diagonal away from the positivity test
        if np.any(off <= 0):
            i, j = np.argwhere(off <= 0)[0]
            raise ValueError(f"off-diagonal distance must be positive; "
                             f"d({i},{j}) = {dist[i, j]}")
        if check_triangle is None:
            check_triangle = n <= TRIANGLE_CHECK_LIMIT
        if check_triangle:
            _check_triangle(dist)
        return cls(n, measure, name, "dense", dense=dist, meta=meta)

    @classmethod
    def from_graph(cls, n, edges, measure, name="space", meta=None):
        """Build from a weighted undirected graph; the metric is the
        shortest-path distance. The graph must be connected (a disconnected
        graph does not define a finite metric)."""
        e = np.asarray(edges, dtype=float).reshape(-1, 3)
        i, j, w = e[:, 0].astype(np.int64), e[:, 1].astype(np.int64), e[:, 2]
        # the first bad edge in input order is reported, by the first of
        # these checks it fails
        checks = ((i < 0) | (i >= n) | (j < 0) | (j >= n), i == j, w <= 0,
                  ~np.isfinite(w))
        bad = np.logical_or.reduce(checks)
        if bad.any():
            k = int(np.argmax(bad))
            a, b, wk = int(i[k]), int(j[k]), float(w[k])
            if checks[0][k]:
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            if checks[1][k]:
                raise ValueError(f"self-loop at {a} not allowed")
            if checks[2][k]:
                raise ValueError(f"edge ({a},{b}) has nonpositive weight {wk}")
            raise ValueError(f"edge ({a},{b}) has non-finite weight {wk}")
        # entries (i, j), (j, i) edge by edge, so repeated edges sum in
        # input order
        graph = csr_matrix((np.repeat(w, 2), (np.stack([i, j], 1).ravel(),
                                              np.stack([j, i], 1).ravel())),
                           shape=(n, n))
        ncomp, _ = connected_components(graph, directed=False)
        if ncomp != 1:
            raise ValueError(f"graph must be connected; found {ncomp} components")
        return cls(n, measure, name, "graph", graph=graph, meta=meta)

    @classmethod
    def from_coords(cls, coords, measure, p_norm=2.0, name="space", meta=None):
        """Build from points in R^k with an l^p norm (p in {1, 2, inf})."""
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2:
            raise ValueError("coords must be a 2-d array (points x axes)")
        if not np.all(np.isfinite(coords)):
            i, k = np.argwhere(~np.isfinite(coords))[0]
            kind = "NaN" if np.isnan(coords[i, k]) else "infinite"
            raise ValueError(f"coordinate is {kind} at point {i}, axis {k}")
        if p_norm not in (1, 2, np.inf, 1.0, 2.0):
            raise ValueError("p_norm must be 1, 2 or inf")
        meta = dict(meta) if meta else {}
        meta.setdefault("coords", coords)
        return cls(coords.shape[0], measure, name, "coords", coords=coords,
                   p_norm=float(p_norm), meta=meta)

    def with_measure(self, measure, name=None):
        """Copy of this space with a different measure (same metric, same
        neighbourhood memo, no form or table memo)."""
        out = MetricMeasureSpace(
            self.n, measure, name or self.name, self._mode, dense=self._dense,
            graph=self._graph, coords=self._coords, p_norm=self._p_norm,
            meta=self.meta, disconnected=self.disconnected)
        out._balls = self._balls
        return out

    # ------------------------------------------------------------------
    # distance queries

    def dist_rows(self, xs, limit=None):
        """Distances from each point of ``xs`` to all points, one row each,
        as a matrix row slice, one multi-source Dijkstra or a broadcast
        norm. For graph-backed spaces entries beyond ``limit`` come back as
        ``inf``; dense/coords providers ignore ``limit``."""
        xs = np.asarray(xs, dtype=np.int64)
        bad = xs[(xs < 0) | (xs >= self.n)]
        if bad.size:
            raise IndexError(f"point index {bad[0]} out of range (N={self.n})")
        if self._mode == "dense":
            return self._dense[xs]
        if self._mode == "graph":
            return dijkstra(self._graph, directed=False, indices=xs,
                            limit=np.inf if limit is None else limit)
        return _norm_rows(self._coords - self._coords[xs, None], self._p_norm)

    def dist_row(self, x, limit=None):
        """Distances from point ``x``: one row of :meth:`dist_rows`."""
        return self.dist_rows([x], limit)[0]

    def block_rows(self):
        """Rows per block: BLOCK_ENTRIES over N (times the coords axes)."""
        k = self._coords.shape[1] if self._mode == "coords" else 1
        return max(1, BLOCK_ENTRIES // (self.n * k))

    def dist_blocks(self, xs=None, limit=None):
        """Yield ``(block, dist_rows(block, limit))`` over consecutive
        blocks of ``block_rows()`` points of ``xs`` (default: every point)."""
        xs = np.arange(self.n) if xs is None else np.asarray(xs, np.int64)
        step = self.block_rows()
        for lo in range(0, xs.size, step):
            yield xs[lo:lo + step], self.dist_rows(xs[lo:lo + step], limit)

    def dist(self, x, y):
        return float(self.dist_row(x)[y])

    def dense_matrix(self):
        """Full N x N distance matrix (materialized; capped at DENSE_LIMIT)."""
        if self._mode == "dense":
            return self._dense
        if self.n > DENSE_LIMIT:
            raise ValueError(f"refusing to materialize {self.n}^2 distances")
        return np.vstack([D for _, D in self.dist_blocks()])

    # ------------------------------------------------------------------
    # balls and subsets

    def ball(self, x, r):
        """Closed ball ``{y : d(x, y) <= r}`` as a sorted index array.

        A single query: it neither builds nor reads the neighbourhood memo.
        """
        if r < 0:
            raise ValueError(f"radius must be >= 0, got {r}")
        return np.flatnonzero(self.dist_row(x, limit=r) <= r)

    def volume(self, x, r):
        """Measure of the closed ball ``B(x, r)``."""
        return float(self.measure[self.ball(x, r)].sum())

    def neighbourhoods(self, r):
        """Every closed ball ``B(x, r)`` as one CSR triple
        ``(indptr, indices, dist)``.

        Row x holds the points of B(x, r) in index order, and ``dist`` holds
        d(x, y) beside each of them. Rows are never empty (x lies in its own
        ball). Membership and distances are bit-identical to :meth:`ball`
        and :meth:`dist_rows`. The triple is built on first use, memoised
        per radius and read-only; callers that hand it to a structure that
        mutates in place must copy it.

        Builders: coords spaces re-measure the pairs of one KD-tree query
        with :meth:`dist_rows`' formula; graph spaces read the adjacency
        while r is below twice the lightest edge; other spaces take the
        entries <= r of each block of :meth:`dist_blocks`. A graph row sums
        path weights from its own point, so on non-dyadic weights d(x, y)
        and d(y, x) can differ in the last bit and a tie with r fall in one
        ball only; block reads keep this.
        """
        r = float(r)
        if r < 0:
            raise ValueError(f"radius must be >= 0, got {r}")
        out = self._balls.get(r)
        if out is None:
            out = self._balls[r] = self._build_neighbourhoods(r)
        return out

    def _build_neighbourhoods(self, r):
        G = self._graph
        pairs = None
        if self._mode == "coords":
            # one KD-tree query at a slightly inflated radius finds every
            # candidate pair; re-measuring them with dist_rows' formula makes
            # ties at exactly r fall as they do row by row. Imported here:
            # scipy.spatial is slow to import and set-up rarely needs it.
            from scipy.spatial import cKDTree
            X = self._coords
            ij = cKDTree(X).query_pairs(np.nextafter(r * (1 + 1e-9), np.inf),
                                        p=self._p_norm, output_type="ndarray")
            d = _norm_rows(X[ij[:, 1]] - X[ij[:, 0]], self._p_norm)
            keep = d <= r
            i, j, d = ij[keep, 0], ij[keep, 1], d[keep]
            pairs = np.concatenate([i, j]), np.concatenate([j, i]), \
                np.concatenate([d, d])
        elif self._mode == "graph" and r < 2.0 * G.data.min(initial=np.inf):
            # no two-edge path fits inside r: B(x, r) is x plus its incident
            # edges of weight <= r, read off the adjacency (cheap on trees
            # far too large for a Dijkstra per point)
            near = G.data <= r
            pairs = np.repeat(np.arange(self.n), np.diff(G.indptr))[near], \
                G.indices[near], G.data[near]
        if pairs is not None:
            # the pairs plus the N self-pairs (distance 0), in row order
            own = np.arange(self.n)
            rows = np.concatenate([own, pairs[0]])
            cols = np.concatenate([own, pairs[1]])
            dist = np.concatenate([np.zeros(self.n), pairs[2]])
            order = np.lexsort((cols, rows))
            cols, dist = cols[order].astype(np.int64), dist[order]
        else:
            # the entries <= r of each block of rows, in row order
            parts = []
            for xb, D in self.dist_blocks(limit=r):
                i, j = np.nonzero(D <= r)
                parts.append((xb[i], j, D[i, j]))
            rows, cols, dist = map(np.concatenate, zip(*parts))
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
        for arr in (indptr, cols, dist):
            arr.flags.writeable = False
        return indptr, cols, dist

    def volumes(self, r):
        """V(x, r) for every x, summed over the rows of neighbourhoods(r)."""
        indptr, indices, _ = self.neighbourhoods(r)
        return np.add.reduceat(self.measure[indices], indptr[:-1])

    def ball_rows(self, r) -> Iterator[np.ndarray]:
        """Yield B(x, r) for every x in index order (rows of
        neighbourhoods(r))."""
        indptr, indices, _ = self.neighbourhoods(r)
        for x in range(self.n):
            yield indices[indptr[x]:indptr[x + 1]]

    def subset(self, indices) -> "Subset":
        """Wrap indices as a :class:`Subset` (deduplicated, sorted, measured)."""
        idx = np.unique(np.asarray(indices, dtype=np.int64))
        if idx.size and (idx[0] < 0 or idx[-1] >= self.n):
            raw = np.asarray(indices, dtype=np.int64).ravel()
            bad = raw[(raw < 0) | (raw >= self.n)][0]   # first as given
            raise ValueError(f"subset index {bad} out of range (N={self.n})")
        return Subset(self, idx, float(self.measure[idx].sum()))

    # ------------------------------------------------------------------

    def min_dist_to(self, targets):
        """``d(x, targets)`` for every x, as one array (all ``inf`` for no
        targets). Graph-backed spaces use a multi-source Dijkstra; others
        take the running minimum over blocks of target rows.
        """
        targets = np.asarray(targets, dtype=np.int64)
        if self._mode == "graph":
            return dijkstra(self._graph, directed=False, indices=targets,
                            min_only=True)
        best = np.full(self.n, np.inf)
        for _, D in self.dist_blocks(targets):
            np.minimum(best, D.min(axis=0), out=best)
        return best

    def __repr__(self):
        return (f"MetricMeasureSpace({self.name!r}, n={self.n}, "
                f"mode={self._mode!r}, total_measure={self.total_measure:g})")


def _norm_rows(diff, p_norm):
    if p_norm == 1:
        return np.abs(diff).sum(axis=-1)
    if p_norm == 2:
        return np.sqrt((diff * diff).sum(axis=-1))
    return np.abs(diff).max(axis=-1)


def _check_triangle(dist):
    """O(N^3) triangle check, vectorized one intermediate point at a time."""
    n = dist.shape[0]
    for k in range(n):
        via = dist[:, k][:, None] + dist[k, :][None, :]
        bad = dist > via + 1e-9 * np.maximum(1.0, via)
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise ValueError(
                f"triangle inequality fails: d({i},{j}) = {dist[i, j]} > "
                f"d({i},{k}) + d({k},{j}) = {via[i, j]}")


def _read_only(*memos):
    """Mark every array of the memos read-only: arrays, the arrays of
    sparse matrices, and those held in dicts and tuples."""
    for m in memos:
        if isinstance(m, (dict, tuple)):
            _read_only(*(m.values() if isinstance(m, dict) else m))
        elif issparse(m):
            _read_only(m.data, m.indices, m.indptr)
        elif isinstance(m, np.ndarray):
            m.flags.writeable = False


@dataclass(frozen=True, eq=False)
class Subset:
    """A set of point indices with its cached measure."""

    space: MetricMeasureSpace
    indices: np.ndarray  # sorted, deduplicated int64
    measure: float

    def __len__(self):
        return int(self.indices.size)

    def mask(self):
        m = np.zeros(self.space.n, dtype=bool)
        m[self.indices] = True
        return m

    def complement(self) -> "Subset":
        return self.space.subset(np.flatnonzero(~self.mask()))

    def __repr__(self):
        return f"Subset(n={len(self)}, measure={self.measure:g})"


def _as_indices(space, A):
    if isinstance(A, Subset):
        return A.indices
    return space.subset(A).indices


# ----------------------------------------------------------------------
# set calculus at a scale


def _reach(space, mask, h):
    """Mask of [A]_h for the set A given as a mask: the union of the rows
    of neighbourhoods(h) that belong to A, i.e. the union of B(a, h)."""
    indptr, indices, _ = space.neighbourhoods(h)
    out = np.zeros(space.n, dtype=bool)
    out[indices[np.repeat(mask, np.diff(indptr))]] = True
    return out


def thicken(space, A, h):
    """Closed thickening ``[A]_h = {x : d(x, A) <= h}``."""
    if h < 0:
        raise ValueError(f"scale must be >= 0, got {h}")
    idx = _as_indices(space, A)
    if idx.size == 0:
        return space.subset([])
    mask = np.zeros(space.n, dtype=bool)
    mask[idx] = True
    return space.subset(np.flatnonzero(_reach(space, mask, h)))


def boundary(space, A, h):
    """Boundary at scale h: ``[A]_h & [A^c]_h`` (complement inside the
    space), one row of :func:`boundaries`."""
    if h < 0:
        raise ValueError(f"scale must be >= 0, got {h}")
    mask = np.zeros(space.n, dtype=bool)
    mask[_as_indices(space, A)] = True
    return space.subset(np.flatnonzero(next(boundaries(space, [mask], h))))


def boundaries(space, masks, h):
    """Yield the mask of ``boundary(A, h)`` for each set mask A (N bools)
    of ``masks``, in order, reading neighbourhoods(h) once per chunk of
    BLOCK_ENTRIES / N sets. The exact count of a in A with y in B(a, h)
    puts y in [A]_h when it is positive and in [A^c]_h when it is below
    the number of balls that hold y."""
    indptr, indices, _ = space.neighbourhoods(h)
    # column x of rel is B(x, h)
    rel = csc_matrix((np.ones(indices.size), indices, indptr),
                     shape=(space.n, space.n))
    deg = np.bincount(indices, minlength=space.n)[:, None]
    masks, step = iter(masks), max(1, BLOCK_ENTRIES // space.n)
    while block := list(itertools.islice(masks, step)):
        count = rel @ np.array(block, dtype=float).T
        yield from ((count > 0) & (count < deg)).T


def boundary_measures(space, masks, h):
    """mu(boundary(A, h)) for each set mask A of :func:`boundaries`, each
    summed over its sorted boundary points as a Subset's measure is."""
    return np.array([space.measure[np.flatnonzero(b)].sum()
                     for b in boundaries(space, masks, h)], dtype=float)


@dataclass(frozen=True)
class DoublingReport:
    """Doubling constant at one scale: C_r = max_x V(x, 2r) / V(x, r)."""

    r: float
    constant: float
    worst_point: int


def doubling_profile(space, scales):
    """Doubling constants ``C_r = max_x V(x,2r)/V(x,r)`` with the maximizer.

    The reported constant is tight: at the worst point the bound
    ``V(x,2r) <= C_r V(x,r)`` holds with equality.
    """
    reports = []
    for r in scales:
        if r <= 0:
            raise ValueError(f"doubling scales must be > 0, got {r}")
        indptr, indices, dist = space.neighbourhoods(2 * r)
        w = space.measure[indices]
        inner = dist <= r
        inner_ptr = np.concatenate([[0], np.cumsum(inner)])[indptr[:-1]]
        ratio = np.add.reduceat(w, indptr[:-1]) / \
            np.add.reduceat(w[inner], inner_ptr)
        worst = int(np.argmax(ratio))
        best, worst = (ratio[worst], worst) if ratio[worst] > 1.0 else (1.0, 0)
        reports.append(DoublingReport(float(r), float(best), worst))
    return reports


def chain_metric(space, b):
    """Chain metric d_b: infimum of chain lengths with steps <= b.

    Computed as shortest paths on the graph whose edges are the pairs at
    distance <= b, weighted by d. Always ``d_b >= d``; equality iff the space
    is b-geodesic. Pairs in different b-components get an ``inf`` sentinel
    and the returned space is flagged ``disconnected`` (not an error).
    """
    if b <= 0:
        raise ValueError(f"chain step must be > 0, got {b}")
    indptr, indices, dist = space.neighbourhoods(b)
    rows = np.repeat(np.arange(space.n), np.diff(indptr))
    up = indices > rows
    rows, cols, vals = rows[up], indices[up], dist[up]
    pairs = (np.concatenate([rows, cols]), np.concatenate([cols, rows]))
    g = csr_matrix((np.concatenate([vals, vals]), pairs),
                   shape=(space.n, space.n))
    ncomp, _ = connected_components(g, directed=False)
    meta = dict(space.meta)
    meta["chain"] = {"b": float(b)}
    name = f"{space.name}|chain_b={b:g}"
    if ncomp == 1:
        return MetricMeasureSpace(space.n, space.measure, name, "graph",
                                  graph=g, meta=meta)
    return MetricMeasureSpace(space.n, space.measure, name, "dense",
                              dense=dijkstra(g, directed=False), meta=meta,
                              disconnected=True)


def geodesicity_report(space, b_grid):
    """Classify the space at each b: b-geodesic, quasi-geodesic, disconnected.

    For each b the report carries the worst multiplicative ratio
    ``max_{x != y} d_b(x,y) / max(d(x,y), b)`` and the worst additive gap
    ``max (d_b - d)``.
    """
    b_grid = list(b_grid)
    if not b_grid:
        raise ValueError("b_grid must be nonempty")
    if space.n > 2048:
        raise ValueError("geodesicity_report materializes all pairs; "
                         "capped at N=2048")
    d = space.dense_matrix()
    out = []
    for b in b_grid:
        chained = chain_metric(space, b)
        db = chained.dense_matrix()
        entry = {"b": float(b)}
        if chained.disconnected:
            entry.update(status="disconnected", mult=np.inf, add=np.inf)
        else:
            off = ~np.eye(space.n, dtype=bool)
            ratio = db[off] / np.maximum(d[off], b)
            gap = db[off] - d[off]
            entry["mult"] = float(ratio.max()) if ratio.size else 1.0
            entry["add"] = float(gap.max()) if gap.size else 0.0
            entry["status"] = ("b-geodesic" if entry["add"] <= 1e-9 * max(1.0, b)
                               else "quasi-geodesic")
        out.append(entry)
    return out


# ----------------------------------------------------------------------
# JSON serialization
#
# {"name": str, "points": int,
#  "metric": {"type": "dense", "rows": [[...]]} | {"type": "graph",
#             "edges": [[i, j, w], ...]},
#  "measure": [w_0, ...]}


def space_to_json(space) -> dict:
    doc = {"name": space.name, "points": space.n,
           "measure": [float(w) for w in space.measure]}
    if space._mode == "graph":
        g = space._graph.tocoo()
        edges = [[int(i), int(j), float(v)]
                 for i, j, v in zip(g.row, g.col, g.data) if i < j]
        doc["metric"] = {"type": "graph", "edges": edges}
    else:
        mat = space.dense_matrix()
        if np.any(np.isinf(mat)):
            raise ValueError("cannot serialize a space with infinite "
                             "distances (disconnected chain metric)")
        doc["metric"] = {"type": "dense", "rows": [[float(v) for v in row]
                                                   for row in mat]}
    return doc


def save_space(space, path):
    with open(path, "w") as fh:
        json.dump(space_to_json(space), fh, sort_keys=True)


def space_from_json(doc) -> MetricMeasureSpace:
    for key in ("name", "points", "metric", "measure"):
        if key not in doc:
            raise ValueError(f"space file missing key {key!r}")
    n = int(doc["points"])
    measure = doc["measure"]
    if len(measure) != n:
        raise ValueError(f"measure has {len(measure)} entries, expected {n}")
    metric = doc["metric"]
    if metric.get("type") == "dense":
        rows = metric["rows"]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("dense metric rows must form an N x N matrix")
        return MetricMeasureSpace.from_dense(np.array(rows, dtype=float),
                                             measure, name=doc["name"])
    if metric.get("type") == "graph":
        return MetricMeasureSpace.from_graph(n, metric["edges"], measure,
                                             name=doc["name"])
    raise ValueError(f"unknown metric type {metric.get('type')!r}")


def load_space(path) -> MetricMeasureSpace:
    with open(path) as fh:
        doc = json.load(fh)
    return space_from_json(doc)
