"""Deterministic generators for benchmark spaces.

Every generator returns a :class:`~coarsecalc.space.MetricMeasureSpace` with
unit counting measure. Group balls carry the word metric of the documented
generating set (not the graph metric of the induced subgraph, which can
differ when geodesics leave the ball); trees carry their graph metric.
``generate`` builds any family of ``FAMILIES`` from a spec dict; the
command line builds every family space through it.

Generating sets
---------------
* free group of rank k: the 2k one-letter words {a_1^±, ..., a_k^±};
* discrete Heisenberg group: {x^±, y^±} where x, y are the two off-diagonal
  unipotent generators, with group law
  (a1,b1,c1)(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1*b2).

``random_geometric`` draws n points uniformly from the unit square using
NumPy's PCG64 generator (two uniform draws per point, row order), so equal
seeds give bit-identical spaces on any platform.
"""

from __future__ import annotations

import numpy as np

from coarsecalc.space import MetricMeasureSpace

# Vertex-count guard for tree / group ball generators.
MAX_POINTS = 2_000_000

GRID_METRICS = ("l1", "l2", "linf")


def grid(d, L, metric="l1") -> MetricMeasureSpace:
    """Integer box {0,...,L-1}^d with an l1, l2 or linf metric, unit weights.

    Points are ordered lexicographically (last axis fastest), so index i
    corresponds to the digits of i base L.
    """
    d, L = int(d), int(L)
    if d < 1 or L < 1:
        raise ValueError(f"grid needs d >= 1 and L >= 1, got d={d}, L={L}")
    if metric not in GRID_METRICS:
        raise ValueError(f"grid metric must be one of {GRID_METRICS}, "
                         f"got {metric!r}")
    n = L ** d
    if n > MAX_POINTS:
        raise ValueError(f"grid would have {n} points (cap {MAX_POINTS})")
    axes = np.meshgrid(*[np.arange(L)] * d, indexing="ij")
    coords = np.stack(axes, axis=-1).reshape(n, d).astype(float)
    p = {"l1": 1.0, "l2": 2.0, "linf": np.inf}[metric]
    return MetricMeasureSpace.from_coords(
        coords, np.ones(n), p_norm=p, name=f"grid_{d}d_L{L}_{metric}",
        meta={"family": "grid", "d": d, "L": L, "metric": metric,
              "shape": (L,) * d})


def path(n) -> MetricMeasureSpace:
    """Path on n points: the 1-d grid."""
    return grid(1, n, "l1")


def _tree_edges(root_degree, child_count, depth):
    """BFS-build a rooted tree: root has root_degree children, every later
    vertex child_count. Returns (n, edges, depths, parent_labels)."""
    sizes = [1]
    frontier = root_degree
    for _ in range(depth):
        sizes.append(frontier)
        frontier *= child_count
    n = sum(sizes)
    if n > MAX_POINTS:
        raise ValueError(f"tree would have {n} vertices (cap {MAX_POINTS})")
    # BFS numbering: the root's children are 1..root_degree, and every
    # later vertex v >= 1 has children numbered in the order of v
    depths = np.repeat(np.arange(depth + 1), sizes)
    parent = np.full(n, -1, dtype=np.int64)
    parent[1:root_degree + 1] = 0
    parent[root_degree + 1:] = 1 + np.arange(n - root_degree - 1) // \
        child_count
    edges = np.column_stack([parent[1:], np.arange(1, n), np.ones(n - 1)])
    return n, edges, depths, parent


def regular_tree(degree, depth) -> MetricMeasureSpace:
    """Ball of the given depth in the infinite degree-regular tree.

    The root has ``degree`` neighbours and every other internal vertex has
    ``degree - 1`` children, so vertex counts follow the closed form
    ``1 + degree * ((degree-1)^depth - 1) / (degree - 2)`` for degree > 2.
    """
    degree, depth = int(degree), int(depth)
    if degree < 3:
        raise ValueError(f"regular_tree needs degree >= 3, got {degree}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    n, edges, depths, _ = _tree_edges(degree, degree - 1, depth)
    space = MetricMeasureSpace.from_graph(
        n, edges, np.ones(n), name=f"tree_deg{degree}_depth{depth}",
        meta={"family": "regular_tree", "degree": degree, "depth": depth,
              "depths": depths})
    return space


def free_group_ball(rank, radius) -> MetricMeasureSpace:
    """Word-metric ball of the free group of the given rank.

    The Cayley graph is the 2*rank-regular tree; geodesics between ball
    elements stay inside the ball, so the graph metric of the ball equals
    the word metric. Size for rank 2 is 2*3^radius - 1.
    """
    rank, radius = int(rank), int(radius)
    if rank < 1:
        raise ValueError(f"free_group_ball needs rank >= 1, got {rank}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    n, edges, depths, _ = _tree_edges(2 * rank, 2 * rank - 1, radius)
    return MetricMeasureSpace.from_graph(
        n, edges, np.ones(n), name=f"free{rank}_ball{radius}",
        meta={"family": "free_group", "rank": rank, "radius": radius,
              "depths": depths})


def _heis_mul(g, h):
    return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])


def _heis_inv(g):
    return (-g[0], -g[1], g[0] * g[1] - g[2])


_HEIS_GENS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))


def heisenberg_ball(radius) -> MetricMeasureSpace:
    """Word-metric ball of the discrete Heisenberg group.

    Elements are triples (a, b, c) for the upper unitriangular matrix with
    a, b off the diagonal and c in the corner. The metric between ball
    elements g, h is the word length of g^{-1} h, which can be up to
    2*radius, so the BFS from the identity runs to depth 2*radius and the
    exact word metric is stored densely.
    """
    radius = int(radius)
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if radius > 10:
        raise ValueError("heisenberg_ball capped at radius 10 "
                         "(the 2*radius BFS grows like radius^4)")
    dist = {(0, 0, 0): 0}
    frontier = [(0, 0, 0)]
    for step in range(1, 2 * radius + 1):
        new = []
        for g in frontier:
            for s in _HEIS_GENS:
                gh = _heis_mul(g, s)
                if gh not in dist:
                    dist[gh] = step
                    new.append(gh)
        frontier = new
    elements = sorted(g for g, w in dist.items() if w <= radius)
    n = len(elements)
    mat = np.zeros((n, n))
    for i, g in enumerate(elements):
        gi = _heis_inv(g)
        for j in range(i + 1, n):
            w = dist[_heis_mul(gi, elements[j])]
            mat[i, j] = mat[j, i] = w
    return MetricMeasureSpace.from_dense(
        mat, np.ones(n), name=f"heisenberg_ball{radius}", check_triangle=False,
        meta={"family": "heisenberg", "radius": radius,
              "elements": elements})


def random_geometric(n, seed) -> MetricMeasureSpace:
    """n uniform points in the unit square, Euclidean metric, unit weights.

    Uses NumPy PCG64 seeded with ``seed``; the draw order (one row of two
    uniforms per point) is part of the contract, so equal seeds give
    bit-identical spaces.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"random_geometric needs n >= 1, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    pts = rng.random((n, 2))
    return MetricMeasureSpace.from_coords(
        pts, np.ones(n), p_norm=2.0, name=f"rgg_n{n}_seed{seed}",
        meta={"family": "random_geometric", "n": n, "seed": int(seed)})


def scale_metric(space, factor) -> MetricMeasureSpace:
    """Same point set and measure with every distance multiplied by factor."""
    factor = float(factor)
    if not factor > 0:
        raise ValueError(f"scale factor must be > 0, got {factor}")
    name = f"{space.name}*{factor:g}"
    meta = dict(space.meta)
    meta["metric_scale"] = factor * meta.get("metric_scale", 1.0)
    if space._mode == "graph":
        g = space._graph.copy()
        g.data = g.data * factor
        return MetricMeasureSpace(space.n, space.measure, name, "graph",
                                  graph=g, meta=meta)
    if space._mode == "coords":
        return MetricMeasureSpace(space.n, space.measure, name, "coords",
                                  coords=space._coords * factor,
                                  p_norm=space._p_norm, meta=meta)
    return MetricMeasureSpace(space.n, space.measure, name, "dense",
                              dense=space._dense * factor, meta=meta)


# family name -> (builder, required parameters, optional parameters with
# their defaults); a spec names a family and its parameters
FAMILIES = {
    "grid": (grid, ("L",), {"d": 2, "metric": "l1"}),
    "path": (path, ("n",), {}),
    "regular_tree": (regular_tree, ("degree", "depth"), {}),
    "free_group": (free_group_ball, ("rank", "radius"), {}),
    "heisenberg": (heisenberg_ball, ("radius",), {}),
    "random_geometric": (random_geometric, ("n", "seed"), {}),
}


def generate(spec) -> MetricMeasureSpace:
    """Build the space a spec dict names, e.g. ``{"family": "grid", "L": 8}``.

    An optional ``"scale"`` multiplies every distance (``scale_metric``).
    Raises ValueError for an unknown family, a missing parameter or a
    parameter the family does not take; deterministic given the spec.
    """
    params = dict(spec)
    family = params.pop("family", None)
    scale = params.pop("scale", None)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of "
                         f"{sorted(FAMILIES)}")
    build, required, optional = FAMILIES[family]
    for key in required:
        if key not in params:
            raise ValueError(f"family {family!r} requires parameter {key!r}")
    for key in sorted(params):
        if key not in required and key not in optional:
            raise ValueError(f"family {family!r} does not take parameter "
                             f"{key!r}")
    space = build(**{**optional, **params})
    return space if scale is None else scale_metric(space, scale)
