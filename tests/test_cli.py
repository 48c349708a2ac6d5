"""End-to-end command line checks, driven in-process through cli.main."""

import json
import math

import pytest

from coarsecalc import calculus, cli, randomwalk, zoo


def _gen_space(tmp_path, name="space.json", family="path", **kw):
    out = tmp_path / name
    argv = ["zoo", "generate", "--family", family, "--out", str(out)]
    for key, val in kw.items():
        argv += [f"--{key}", str(val)]
    assert cli.main(argv) == 0
    return out


def _manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


def test_zoo_generate_is_byte_deterministic(tmp_path):
    a = _gen_space(tmp_path, "a.json", family="grid", d=2, L=4)
    b = _gen_space(tmp_path, "b.json", family="grid", d=2, L=4)
    assert a.read_bytes() == b.read_bytes()


def test_zoo_info_reports_doubling(tmp_path, capsys):
    sp = _gen_space(tmp_path, family="path", n=9)
    assert cli.main(["zoo", "info", "--space", str(sp),
                     "--scales", "1,2", "--b", "1"]) == 0
    out = capsys.readouterr().out
    assert "9 points" in out
    assert "doubling at r=1" in out
    assert "b-geodesic" in out


def test_viewpoint_build_then_check(tmp_path, capsys):
    sp = _gen_space(tmp_path, family="grid", d=2, L=3)
    vp = tmp_path / "vp.json"
    assert cli.main(["viewpoint", "lazy", "--space", str(sp),
                     "--h", "1", "--out", str(vp)]) == 0
    assert cli.main(["viewpoint", "check", "--space", str(sp),
                     "--vp", str(vp)]) == 0
    out = capsys.readouterr().out
    # kernel files carry only h and rows, so a reloaded kernel is "loaded"
    assert "h=1 kind=loaded" in out
    assert "symmetric" in out


def test_one_shot_energy_writes_passing_manifest(tmp_path):
    sp = _gen_space(tmp_path, family="path", n=9)
    out = tmp_path / "run"
    rc = cli.main(["calc", "energy", "--space", str(sp),
                   "--kernel", "lazy_srw", "--h", "1", "--seed", "5",
                   "--fields", "random:6", "--out", str(out)])
    assert rc == 0
    man = _manifest(out)
    assert man["passed"] is True
    assert man["operations"] == [{"op": "energy_check", "outcome": "pass"}]
    assert (out / "00_energy_check.csv").exists()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_config_route_multiple_ops_and_inf_serialization(tmp_path):
    sp = _gen_space(tmp_path, family="path", n=9)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "space": {"file": str(sp)},
        "operations": [
            {"op": "profile", "p": 2, "backend": "sup:1",
             "radii": [1.0, 20.0]},
            {"op": "cheeger", "h": 1.0},
        ],
    }))
    out = tmp_path / "run"
    assert cli.main(["profile", "--config", str(cfg),
                     "--out", str(out)]) == 0
    man = _manifest(out)
    assert [o["op"] for o in man["operations"]] == ["profile", "cheeger"]
    # a ball of radius 20 swallows the whole 9-point path; the infinite
    # profile value must survive the JSON round trip as a string
    with open(out / "00_profile.json") as fh:
        curve = json.load(fh)
    assert curve["values"][-1] == "inf"
    assert isinstance(curve["values"][0], float)


def test_unknown_operation_is_located_by_pointer(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"operations": [{"op": "bogus"}]}))
    assert cli.main(["calc", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error at /operations/0" in err
    # "jobs" was dropped from the schema, so it is an unknown key now
    cfg.write_text(json.dumps({"jobs": 2,
                               "operations": [{"op": "gamma"}]}))
    assert cli.main(["calc", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error at /" in err and "'jobs'" in err
    # an operation missing a key it cannot run without stops the run
    # before anything is written
    out = tmp_path / "run"
    for op, key in [({"op": "grad"}, "field"),
                    ({"op": "sobolev_verify"}, "phi"),
                    ({"op": "discretize"}, "h"),
                    ({"op": "profile", "p": 2, "backend": "lp:1"}, "volumes"),
                    ({"op": "certify"}, "target")]:
        cfg.write_text(json.dumps({"space": {"family": "grid", "L": 3},
                                   "operations": [{"op": "cheeger"}, op]}))
        assert cli.main(["calc", "--config", str(cfg),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error at /operations/1:")
        assert f"'{key}'" in err and not out.exists()


def test_random_fields_without_seed_rejected(tmp_path, capsys):
    sp = _gen_space(tmp_path, family="path", n=9)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "space": {"file": str(sp)},
        "operations": [{"op": "sobolev_verify", "phi": "power:0.5",
                        "fields": "random:8"}],
    }))
    assert cli.main(["profile", "--config", str(cfg)]) == 2
    assert "config error at /seed" in capsys.readouterr().err


def test_missing_action_is_a_config_error(capsys):
    assert cli.main(["calc"]) == 2
    assert "needs a subcommand or --config" in capsys.readouterr().err


def test_sobolev_budget_breach_exits_1_with_witness(tmp_path):
    sp = _gen_space(tmp_path, family="path", n=9)
    out = tmp_path / "run"
    rc = cli.main(["profile", "sobolev", "--space", str(sp),
                   "--phi", "power:0.5", "--fields", "random:8",
                   "--seed", "7", "--assert-c", "1e-6",
                   "--out", str(out)])
    assert rc == 1
    man = _manifest(out)
    assert man["passed"] is False
    assert man["failures"] == [{"operation": "sobolev_verify",
                                "witness": "00_sobolev_verify_witness.json"}]
    with open(out / "00_sobolev_verify_witness.json") as fh:
        witness = json.load(fh)
    assert witness["asserted_C"] == pytest.approx(1e-6)
    assert witness["fitted_C"] > 1e-6


def test_accept_subcommand_runs_selected_criterion(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["accept", "--criteria", "3", "--out", str(out)]) == 0
    assert "[3] PASS" in capsys.readouterr().out
    man = _manifest(out)
    assert man["passed"] is True
    with open(out / "00_accept.json") as fh:
        table = json.load(fh)
    assert table["passed"] is True


def test_config_route_artifacts_are_reproducible(tmp_path):
    sp = _gen_space(tmp_path, family="path", n=9)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "space": {"file": str(sp)},
        "kernel": {"kind": "lazy_srw", "h": 1.0},
        "seed": 11,
        "operations": [
            {"op": "energy_check", "fields": "random:4"},
            {"op": "decay", "x": 0, "n": {"max": 8}},
        ],
    }))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["walk", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(["walk", "--config", str(cfg), "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_rough_volume_clause_passes_through_run(tmp_path):
    # identity on the 8x8 grid: the 1-thickening of B(0, 2) sits in B(0, 3)
    grid = {"family": "grid", "d": 2, "L": 8}
    space = zoo.grid(2, 8)
    out = tmp_path / "run"
    rc = cli.run({"space": grid, "operations": [
        {"op": "rough_volume", "target": grid,
         "A": space.ball(0, 3.0).tolist(),
         "A_target": space.ball(0, 2.0).tolist(), "u": 1.0}]},
        out_dir=str(out))
    assert rc == 0
    man = _manifest(out)
    assert man["passed"] is True
    assert man["operations"] == [{"op": "rough_volume", "outcome": "pass"}]
    with open(out / "00_rough_volume.json") as fh:
        rep = json.load(fh)
    assert rep["status"] == "clause1" and rep["holds"] is True


def test_rough_volume_clause_failure_exits_1_with_witness(tmp_path):
    # three points sent onto one point of a 30-point path: clause 1 applies
    # (the preimage is everything) but mu'(A') / mu(A) = 10 exceeds the
    # doubling bound of the path
    out = tmp_path / "run"
    rc = cli.run({"space": {"family": "path", "n": 3}, "operations": [
        {"op": "rough_volume", "target": {"family": "path", "n": 30},
         "map": [15, 15, 15], "A": [0, 1, 2],
         "A_target": list(range(30)), "u": 1.0}]}, out_dir=str(out))
    assert rc == 1
    man = _manifest(out)
    assert man["passed"] is False
    assert man["failures"] == [{"operation": "rough_volume",
                                "witness": "00_rough_volume_witness.json"}]
    with open(out / "00_rough_volume_witness.json") as fh:
        witness = json.load(fh)
    assert witness["status"] == "clause1" and witness["holds"] is False
    assert witness["ratio"] == pytest.approx(10.0)
    assert witness["ratio"] > witness["bound"]


def _spectral_run(out, L, op):
    return cli.run({"space": {"family": "grid", "d": 2, "L": L},
                    "kernel": {"kind": "pure_srw", "ambient_degree": 4},
                    "operations": [dict(op, op="spectral_radius")]},
                   out_dir=str(out))


@pytest.mark.parametrize("L,op,side", [
    (17, {}, 17),                                  # Lanczos path
    (8, {}, 8),                                    # dense path
    (8, {"subset": [x * 8 + y for x in range(5) for y in range(5)]}, 5),
], ids=["whole17", "whole8", "subset5"])
def test_spectral_radius_through_run(tmp_path, L, op, side):
    # the nearest-neighbour walk on a side-s box has rho = cos(pi / (s + 1))
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert _spectral_run(out, L, op) == 0
        assert _manifest(out)["operations"] == [
            {"op": "spectral_radius", "outcome": "info"}]
    with open(runs[0] / "00_spectral_radius.json") as fh:
        art = json.load(fh)
    assert sorted(art) == ["residual", "rho"]
    assert art["rho"] == pytest.approx(math.cos(math.pi / (side + 1)),
                                       abs=1e-12)
    assert 0 <= art["residual"] <= calculus.EIG_RESIDUAL_TOL
    names = sorted(p.name for p in runs[0].iterdir())
    assert names == ["00_spectral_radius.json", "manifest.json"]
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def test_spectral_radius_radii_through_run(tmp_path):
    out = tmp_path / "run"
    radii = [1.0, 2.0, 4.0, 8.0]
    assert _spectral_run(out, 8, {"radii": radii, "center": 27}) == 0
    rows = (out / "00_spectral_radius.csv").read_text().splitlines()
    assert rows[0] == "radius,rho"
    rhos = [float(r.split(",")[1]) for r in rows[1:]]
    space = zoo.grid(2, 8)
    vp = randomwalk.pure_srw(space, ambient_degree=4)
    assert rhos == randomwalk.exhaustion_radii(
        vp, [space.ball(27, r) for r in radii])
    assert rhos == sorted(rhos)
    assert rhos[-1] == pytest.approx(math.cos(math.pi / 9), abs=1e-12)


@pytest.mark.parametrize("L", [8, 17], ids=["dense", "lanczos"])
def test_spectral_radius_residual_breach_leaves_witness(tmp_path,
                                                        monkeypatch, L):
    monkeypatch.setattr(calculus, "EIG_RESIDUAL_TOL", 0.0)
    out = tmp_path / "run"
    assert _spectral_run(out, L, {}) == 1
    man = _manifest(out)
    assert man["failures"] == [{"operation": "spectral_radius",
                                "witness": "00_spectral_radius_witness.json"}]
    with open(out / "00_spectral_radius_witness.json") as fh:
        assert "residual" in json.load(fh)["error"]


def test_decay_vs_profile_through_run(tmp_path):
    out = tmp_path / "run"
    assert cli.run({"space": {"family": "path", "n": 48},
                    "kernel": {"kind": "lazy_srw", "h": 1.0},
                    "operations": [{"op": "decay_vs_profile",
                                    "phi": "power:1", "n": {"max": 48},
                                    "centers": [24]}]},
                   out_dir=str(out)) == 0
    man = _manifest(out)
    assert man["passed"] is True
    assert man["operations"] == [{"op": "decay_vs_profile",
                                  "outcome": "pass"}]
    assert [a["path"] for a in man["artifacts"]] == [
        "00_decay_vs_profile.json"]
    assert man["failures"] == []
    with open(out / "00_decay_vs_profile.json") as fh:
        art = json.load(fh)
    assert art["status"] == "ok"
    # the diffusive window of a 48-point path keeps n <= (48/4)^2
    assert art["kept_n"] == list(range(1, 49))
    assert art["best_c"] > 0
    assert art["slope_decay"] == pytest.approx(-0.5, abs=0.1)


def test_gamma_of_zero_stretch_tabulated_rate_through_run(tmp_path):
    # phi vanishes up to v = 2; quadrature across that kink used to fail
    # the round trip, so the run exited 1 with a witness
    rate = tmp_path / "rate.json"
    rate.write_text(json.dumps({"args": [1, 2, 4, 8, 100],
                                "values": [0, 0, 1.5, 3, 20]}))
    out = tmp_path / "run"
    op = {"op": "gamma", "phi": "tabulated:rate.json", "v_min": 1e-3,
          "t": {"min": 1e-2, "max": 1e2, "count": 50}}
    assert cli.run({"operations": [op]}, out_dir=str(out),
                   base_dir=str(tmp_path)) == 0
    man = _manifest(out)
    assert man["passed"] is True and man["failures"] == []
    assert man["operations"] == [{"op": "gamma", "outcome": "info"}]
    assert [a["path"] for a in man["artifacts"]] == ["00_gamma.csv",
                                                     "00_gamma_meta.json"]
    rows = (out / "00_gamma.csv").read_text().splitlines()
    assert rows[0] == "t,gamma" and len(rows) == 51
    gammas = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(0 < b < a < 0.5 for a, b in zip(gammas, gammas[1:]))
    with open(out / "00_gamma_meta.json") as fh:
        assert json.load(fh) == {"v_min": 1e-3, "tail_estimate": 0.0,
                                 "phi": "tabulated"}


def test_kernel_errors_exit_2_before_the_out_dir(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    small = tmp_path / "small.json"
    assert cli.main(["viewpoint", "lazy", "--space",
                     str(_gen_space(tmp_path, family="path", n=4)),
                     "--h", "1", "--out", str(small)]) == 0
    out = tmp_path / "run"
    for kernel, pointer, words in [
            ({"kind": "file", "path": "missing.json"}, "/kernel/path",
             "missing.json"),
            ({"kind": "file", "path": "bad.json"}, "/kernel/path",
             "Expecting property name"),
            # a kernel of another space: load_viewpoint's ValueError
            ({"kind": "file", "path": "small.json"}, "/kernel/path",
             "kernel has 4 rows, space has 9")]:
        rc = cli.run({"space": {"family": "path", "n": 9}, "kernel": kernel,
                      "operations": [{"op": "energy_check",
                                      "fields": [[1.0] * 9]}]},
                     out_dir=str(out), base_dir=str(tmp_path))
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith(f"config error at {pointer}:")
        assert words in err and "Traceback" not in err
        assert not out.exists()


def test_config_error_mid_run_writes_the_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.run({"space": {"family": "grid", "L": 3},
                  "operations": [{"op": "cheeger"},
                                 {"op": "certify",
                                  "target": {"family": "path"}}]},
                 out_dir=str(out))
    assert rc == 2
    message = "family 'path' requires parameter 'n'"
    assert capsys.readouterr().err.strip() == \
        f"config error at /operations/1/target: {message}"
    man = _manifest(out)
    assert man["passed"] is False
    assert man["operations"] == [{"op": "cheeger", "outcome": "info"}]
    assert [a["path"] for a in man["artifacts"]] == ["00_cheeger.json"]
    assert man["failures"] == []
    assert man["config_error"] == {"pointer": "/operations/1/target",
                                   "message": message}
    assert sorted(p.name for p in out.iterdir()) == ["00_cheeger.json",
                                                     "manifest.json"]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_descent_profiles_through_run_are_reproducible(tmp_path):
    # p = 2 on the sup backend and p = 3 on the lp backend both go through
    # the descent; p = 3 draws its starts from the config's seed. Every
    # candidate is descended whatever its volume, so the grid is 2x2: 4x4
    # takes about 20 s a run
    config = {"space": {"family": "grid", "L": 2}, "seed": 5,
              "operations": [
                  {"op": "profile", "p": 2, "backend": "sup:1",
                   "volumes": [2, 3]},
                  {"op": "profile", "p": 3, "backend": "lp:1",
                   "volumes": [2, 3]}]}
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.run(config, out_dir=str(out_a)) == 0
    assert cli.run(config, out_dir=str(out_b)) == 0
    man = _manifest(out_a)
    assert man["passed"] is True
    assert man["operations"] == [{"op": "profile", "outcome": "info"}] * 2
    for tag in ("00_profile", "01_profile"):
        with open(out_a / f"{tag}.json") as fh:
            curve = json.load(fh)
        assert curve["mode"] == "lower_bound"
        assert len(curve["values"]) == 2
        assert all(0 < v < math.inf for v in curve["values"])
        assert curve["values"][0] <= curve["values"][1]
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
