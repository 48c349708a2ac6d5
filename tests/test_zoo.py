"""Benchmark space generators: sizes, metrics, determinism, guard rails."""

import numpy as np
import pytest

from coarsecalc import cli, zoo
from coarsecalc.space import save_space


def test_grid_shape_and_measure():
    g = zoo.grid(2, 4)
    assert g.n == 16
    np.testing.assert_allclose(g.measure, 1.0)
    assert g.meta["shape"] == (4, 4)


@pytest.mark.parametrize("metric,expected", [
    ("l1", 2.0),
    ("l2", np.sqrt(2.0)),
    ("linf", 1.0),
])
def test_grid_metric_variants(metric, expected):
    g = zoo.grid(2, 3, metric=metric)
    # (0,0) is index 0 and (1,1) is index 4 in row-major order
    assert g.dist(0, 4) == pytest.approx(expected)


def test_grid_rejects_unknown_metric():
    with pytest.raises(ValueError, match="metric"):
        zoo.grid(2, 3, metric="hamming")


def test_path_is_one_dimensional_grid():
    p = zoo.path(6)
    assert p.n == 6
    assert p.dist(0, 5) == pytest.approx(5.0)


@pytest.mark.parametrize("radius,size", [(1, 5), (2, 17), (3, 53)])
def test_free_group_ball_sizes(radius, size):
    # 4 * 3^(k-1) new words at word length k
    assert zoo.free_group_ball(2, radius).n == size


@pytest.mark.parametrize("depth,size", [(1, 4), (2, 10), (3, 22)])
def test_regular_tree_sizes(depth, size):
    # rooted 3-regular tree: 3 * 2^(k-1) vertices at depth k
    assert zoo.regular_tree(3, depth).n == size


def _tree_edges_oracle(root_degree, child_count, depth):
    """Breadth-first numbering, one vertex at a time."""
    edges, depths, parent = [], [0], [-1]
    layer, nxt = [0], 1
    for level in range(depth):
        new_layer = []
        for v in layer:
            for _ in range(root_degree if v == 0 else child_count):
                edges.append((v, nxt, 1.0))
                depths.append(level + 1)
                parent.append(v)
                new_layer.append(nxt)
                nxt += 1
        layer = new_layer
    return nxt, edges, depths, parent


@pytest.mark.parametrize("args", [(3, 2, 4), (4, 3, 5), (2, 1, 3), (4, 3, 0),
                                  (1, 1, 6)])
def test_tree_edges_match_breadth_first_oracle(args):
    n, edges, depths, parent = zoo._tree_edges(*args)
    want = _tree_edges_oracle(*args)
    assert n == want[0]
    assert np.array_equal(edges, np.array(want[1]).reshape(-1, 3))
    assert depths.tolist() == want[2] and parent.tolist() == want[3]
    assert depths.dtype == parent.dtype == np.int64


def test_tree_is_unit_edge_graph():
    t = zoo.regular_tree(4, 3)
    assert t.dist(0, 1) == pytest.approx(1.0)
    row = t.dist_row(0)
    assert row.max() == pytest.approx(3.0)


def test_heisenberg_ball_growth():
    sizes = [zoo.heisenberg_ball(r).n for r in (1, 2, 3)]
    assert sizes[0] == 5
    # the commutator buys extra words over the abelian lattice, whose
    # l1 ball has exactly 2r^2 + 2r + 1 points; equal at r=1, more after
    for r, s in zip((2, 3), sizes[1:]):
        assert s > 2 * r * r + 2 * r + 1


def test_random_geometric_is_seed_deterministic():
    a = zoo.random_geometric(30, seed=12)
    b = zoo.random_geometric(30, seed=12)
    c = zoo.random_geometric(30, seed=13)
    np.testing.assert_array_equal(a.dist_row(0), b.dist_row(0))
    assert not np.allclose(a.dist_row(0), c.dist_row(0))


def test_scale_metric():
    s = zoo.scale_metric(zoo.path(5), 2.0)
    assert s.dist(0, 4) == pytest.approx(8.0)
    np.testing.assert_allclose(s.measure, 1.0)
    for factor in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="scale factor must be > 0"):
            zoo.scale_metric(zoo.path(5), factor)


def test_generate_dispatch():
    g = zoo.generate({"family": "grid", "d": 2, "L": 3, "metric": "linf"})
    assert g.n == 9
    t = zoo.generate({"family": "regular_tree", "degree": 3, "depth": 2})
    assert t.n == 10
    # d and metric are optional for grids, and scale stretches any family
    assert zoo.generate({"family": "grid", "L": 3}).dist(0, 4) == 2.0
    s = zoo.generate({"family": "path", "n": 5, "scale": 2.0})
    assert s.dist(0, 4) == pytest.approx(8.0)


# One valid spec per family, plus a scaled one: every route that builds a
# space from a spec must save the same bytes.
ROUTE_SPECS = [
    {"family": "grid", "L": 3},
    {"family": "grid", "d": 1, "L": 4, "metric": "linf"},
    {"family": "path", "n": 5},
    {"family": "regular_tree", "degree": 3, "depth": 2},
    {"family": "free_group", "rank": 2, "radius": 2},
    {"family": "heisenberg", "radius": 1},
    {"family": "random_geometric", "n": 12, "seed": 4},
    {"family": "random_geometric", "n": 12, "seed": 4, "scale": 2.5},
]

# Malformed specs and the name every route's error must quote.
BAD_SPECS = [
    ({"family": "hyperbolic_plane", "n": 4}, "'hyperbolic_plane'"),
    ({"family": "grid"}, "'L'"),
    ({"family": "path"}, "'n'"),
    ({"family": "random_geometric", "n": 10}, "'seed'"),
    ({"family": "grid", "L": 3, "degree": 9}, "'degree'"),
]


def _zoo_generate_argv(spec, out):
    argv = ["zoo", "generate", "--out", str(out)]
    for key, val in spec.items():
        argv += [f"--{key}", str(val)]
    return argv


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:          # argparse rejects a bad choice
        return exc.code


def test_every_family_is_in_the_route_table():
    assert {spec["family"] for spec in ROUTE_SPECS} == set(zoo.FAMILIES)


@pytest.mark.parametrize("spec", ROUTE_SPECS,
                         ids=[f"{s['family']}{i}" for i, s in
                              enumerate(ROUTE_SPECS)])
def test_every_route_saves_the_same_space(spec, tmp_path, monkeypatch):
    built = {}
    real = cli._build_space

    def record(spec, base, pointer):
        built[pointer] = real(spec, base, pointer)
        return built[pointer]

    monkeypatch.setattr(cli, "_build_space", record)
    save_space(zoo.generate(spec), tmp_path / "zoo.json")
    assert cli.main(_zoo_generate_argv(spec, tmp_path / "cli.json")) == 0
    assert cli.run({"space": spec, "operations": [
        {"op": "certify", "target": spec}]},
        out_dir=str(tmp_path / "run")) == 0
    assert sorted(built) == ["/operations/0/target", "/space"]
    for pointer, space in built.items():
        save_space(space, tmp_path / "built.json")
        assert (tmp_path / "built.json").read_bytes() == \
            (tmp_path / "zoo.json").read_bytes(), pointer
    assert (tmp_path / "cli.json").read_bytes() == \
        (tmp_path / "zoo.json").read_bytes()


def test_generate_errors(tmp_path, capsys):
    for spec, name in BAD_SPECS:
        with pytest.raises(ValueError, match=name):
            zoo.generate(spec)
        assert _exit_code(_zoo_generate_argv(spec, tmp_path / "x.json")) == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()
        assert cli.run({"space": spec, "operations": [{"op": "cheeger"}]},
                       out_dir=str(tmp_path / "run")) == 2
        assert cli.run({"space": {"family": "path", "n": 4}, "operations": [
            {"op": "certify", "target": spec}]},
            out_dir=str(tmp_path / "op_run")) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("config error at /space") and name in err[0]
        assert err[1].startswith("config error at /operations/0/target")
        assert name in err[1] and "Traceback" not in "".join(err)
        assert not (tmp_path / "run").exists()
    with pytest.raises(ValueError, match="requires parameter 'seed'"):
        zoo.generate({"family": "random_geometric", "n": 10})
    with pytest.raises(ValueError, match="unknown family"):
        zoo.generate({"family": "hyperbolic_plane"})


# BAD_SPECS, then specs only the schema's bounds reject
PARITY_SPECS = [spec for spec, _ in BAD_SPECS] + [
    {"family": "path", "n": 1},
    {"family": "regular_tree", "degree": 3, "depth": 0},
    {"family": "grid", "L": 1},
    # a flag's value is a float, so the config's is one too
    {"family": "grid", "L": 3, "scale": -2.0},
    # NaN passes the schema's bound, and is refused after it
    {"family": "path", "n": 5, "scale": float("nan")},
]


@pytest.mark.parametrize("spec", PARITY_SPECS,
                         ids=[f"{s['family']}{i}" for i, s in
                              enumerate(PARITY_SPECS)])
def test_zoo_generate_exits_at_the_config_pointer(spec, tmp_path, capsys):
    rc = _exit_code(_zoo_generate_argv(spec, tmp_path / "x.json"))
    shot = capsys.readouterr().err
    assert cli.run({"space": spec, "operations": [{"op": "cheeger"}]},
                   out_dir=str(tmp_path / "run")) == rc == 2
    assert capsys.readouterr().err == shot
    assert shot.startswith("config error at /space") and \
        len(shot.splitlines()) == 1
    assert not (tmp_path / "x.json").exists()


def test_point_count_guard():
    with pytest.raises(ValueError):
        zoo.free_group_ball(2, 40)
