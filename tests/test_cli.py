"""End-to-end command line checks, driven in-process through cli.main."""

import json
import math

import numpy as np
import pytest

from coarsecalc import (acceptance, calculus, cli, profiles, randomwalk,
                        viewpoint, zoo)


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


@pytest.mark.parametrize("flags,pointer", [
    (["--scales", "nan"], "/scales/0"), (["--scales", "-1"], "/scales/0"),
    (["--scales", "1,0"], "/scales/1"), (["--scales", "1", "--b", "nan"],
                                         "/b"),
    (["--b", "-1"], "/b")],
    ids=["scale_nan", "scale_negative", "scale_zero", "b_nan", "b_negative"])
def test_zoo_info_checks_its_flags(tmp_path, capsys, flags, pointer):
    sp = _gen_space(tmp_path, family="path", n=5)
    capsys.readouterr()
    assert cli.main(["zoo", "info", "--space", str(sp)] + flags) == 2
    cap = capsys.readouterr()
    assert cap.err.startswith(f"config error at {pointer}:")
    assert cap.out == ""


def test_kernel_with_a_nan_density_is_refused(tmp_path, capsys):
    # NaN once passed the sign and row-sum tests: the kernel loaded with
    # floor c = inf
    sp = _gen_space(tmp_path, family="path", n=5)
    vp = tmp_path / "vp.json"
    assert cli.main(["viewpoint", "lazy", "--space", str(sp), "--h", "1",
                     "--out", str(vp)]) == 0
    doc = json.loads(vp.read_text())
    doc["rows"][2]["density"][0] = math.nan
    vp.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["viewpoint", "check", "--space", str(sp),
                     "--vp", str(vp)]) == 1
    message = "row 2 has a non-finite density nan"
    assert capsys.readouterr().err == f"invalid kernel: {message}\n"
    out = tmp_path / "run"
    assert cli.run({"space": {"file": str(sp)},
                    "kernel": {"kind": "file", "path": str(vp)},
                    "operations": [{"op": "decay"}]}, out_dir=str(out)) == 2
    assert capsys.readouterr().err == \
        f"config error at /kernel/path: {message}\n"
    assert not out.exists()


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


def test_accept_table_writes_booleans_as_json_booleans(tmp_path,
                                                       monkeypatch):
    result = acceptance.CriterionResult(
        3, "stub", True, 0.5, None,
        {"plain": True, "numpy": np.bool_(True)},
        {"flag": False, "count": 3, "ratio": np.float64(np.inf)})
    monkeypatch.setattr(acceptance, "run_all", lambda cids: [result])
    out = tmp_path / "run"
    assert cli.run({"operations": [{"op": "accept", "criteria": [3]}]},
                   out_dir=str(out)) == 0
    with open(out / "00_accept.json") as fh:
        row, = json.load(fh)["criteria"]
    assert row["checks"] == {"plain": True, "numpy": True}
    assert all(v is True for v in row["checks"].values())
    assert row["details"] == {"flag": False, "count": 3, "ratio": "inf"}
    assert row["details"]["flag"] is False


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


@pytest.mark.parametrize("args,values,words", [
    ([1, 2, 3], [1, 2], "got 3 and 2"),
    ([1, 2], [1, 2, 3], "got 2 and 3"),
    ([], [], "got 0 and 0"),
    ([1, math.nan, 3], [1, 2, 3], "must be finite"),
], ids=["short_values", "long_values", "empty", "nan_arg"])
def test_malformed_tabulated_rate_exits_2(tmp_path, capsys, args, values,
                                          words):
    (tmp_path / "rate.json").write_text(json.dumps({"args": args,
                                                    "values": values}))
    out = tmp_path / "run"
    rc = cli.run({"operations": [{"op": "gamma",
                                  "phi": "tabulated:rate.json"}]},
                 out_dir=str(out), base_dir=str(tmp_path))
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("config error at /operations/0/phi:")
    assert words in err and "Traceback" not in err


def test_nan_edge_weight_in_space_file_exits_2(tmp_path, capsys):
    (tmp_path / "bad.json").write_text(
        '{"points": 3, "measure": [1.0, 1.0, 1.0], "name": "bad", '
        '"metric": {"type": "graph", '
        '"edges": [[0, 1, NaN], [1, 2, 1.0]]}}')
    rc = cli.run({"space": {"file": "bad.json"},
                  "operations": [{"op": "cheeger"}]},
                 out_dir=str(tmp_path / "run"), base_dir=str(tmp_path))
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("config error at /space:")
    assert "edge (0,1) has non-finite weight nan" in err


@pytest.mark.parametrize("p,backend", [(1, "sup:1"), (math.inf, "sup:1"),
                                       (2, "lp:1")],
                         ids=["p1_sup", "pinf_sup", "p2_lp"])
def test_profile_in_balls_through_run(tmp_path, p, backend):
    # p = 1, inf and p = 2 off the sup backend are exact on every ball
    config = {"space": {"family": "path", "n": 9}, "operations": [
        {"op": "profile", "p": p, "backend": backend, "radii": [1, 2, 3]}]}
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.run(config, out_dir=str(out_a)) == 0
    assert cli.run(config, out_dir=str(out_b)) == 0
    with open(out_a / "00_profile.json") as fh:
        art = json.load(fh)
    kind, _, h = backend.partition(":")
    curve = profiles.profile_in_balls(
        zoo.path(9), getattr(profiles.Backend, kind)(float(h)), p, [1, 2, 3])
    assert art["mode"] == curve.mode == "exact"
    assert art["values"] == [float(v) for v in curve.values]
    assert [w["indices"] for w in art["witnesses"].values()] == \
        [w["indices"].tolist() for w in curve.witnesses]
    names = sorted(q.name for q in out_a.iterdir())
    assert names == sorted(q.name for q in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_kernel_errors_exit_2_before_the_out_dir(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    small = tmp_path / "small.json"
    assert cli.main(["viewpoint", "lazy", "--space",
                     str(_gen_space(tmp_path, family="path", n=4)),
                     "--h", "1", "--out", str(small)]) == 0
    rows = [{"x": x, "support": [x], "density": [1.0]} for x in range(9)]
    del rows[3]["density"]
    (tmp_path / "short_row.json").write_text(json.dumps({"h": 1,
                                                         "rows": rows}))
    rows = [{"x": x, "support": [x], "density": [1.0]} for x in range(9)]
    rows[0] = {"x": 0, "support": [0, 1, 1], "density": [0.5, 0.25, 0.25]}
    (tmp_path / "repeat.json").write_text(json.dumps({"h": 1, "rows": rows}))
    out = tmp_path / "run"
    for kernel, pointer, words in [
            ({"kind": "file", "path": "missing.json"}, "/kernel/path",
             "missing.json"),
            ({"kind": "file", "path": "bad.json"}, "/kernel/path",
             "Expecting property name"),
            # a kernel of another space: load_viewpoint's ValueError
            ({"kind": "file", "path": "small.json"}, "/kernel/path",
             "kernel has 4 rows, space has 9"),
            ({"kind": "file", "path": "short_row.json"}, "/kernel/path",
             "kernel row 3 is missing key 'density'"),
            ({"kind": "file", "path": "repeat.json"}, "/kernel/path",
             "row 0: support repeats point 1")]:
        rc = cli.run({"space": {"family": "path", "n": 9}, "kernel": kernel,
                      "operations": [{"op": "energy_check",
                                      "fields": [[1.0] * 9]}]},
                     out_dir=str(out), base_dir=str(tmp_path))
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith(f"config error at {pointer}:")
        assert words in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("text,words", [
    (None, "No such file"), ("{not json", "Expecting property name")],
    ids=["missing", "not_json"])
def test_unreadable_tol_overrides_exit_2_before_the_out_dir(run_dir, capsys,
                                                           text, words):
    argv = ["calc", "energy", "--space", "space.json", "--kernel",
            "lazy_srw", "--h", "1", "--seed", "5", "--fields", "random:4",
            "--tol-overrides", "tol.json"]
    (run_dir / "tol.json").write_text('{"energy_rel": 1e-9}')
    assert cli.main(argv + ["--out", "run"]) == 0
    assert _manifest(run_dir / "run")["config"]["tolerances"] == \
        {"energy_rel": 1e-9}
    if text is None:
        (run_dir / "tol.json").unlink()
    else:
        (run_dir / "tol.json").write_text(text)
    capsys.readouterr()
    assert cli.main(argv + ["--out", "bad_run"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at /tolerances:")
    assert words in err and "Traceback" not in err
    assert not (run_dir / "bad_run").exists()


@pytest.mark.parametrize("argv,pointer", [
    (["profile", "jp", "--space", "space.json", "--volumes", "a,b"],
     "/operations/0/volumes/"),
    (["walk", "rho", "--space", "space.json", "--kernel", "pure_srw",
      "--radii", "1,x"], "/operations/0/radii/1"),
    (["walk", "compare", "--space", "space.json", "--kernel", "lazy_srw",
      "--h", "1", "--phi", "power:1", "--centers", "2.5"],
     "/operations/0/centers/0"),
    (["accept", "--criteria", "1,x"], "/operations/0/criteria/1"),
    (["zoo", "info", "--space", "space.json", "--scales", "abc"],
     "/scales/0"),
], ids=["volumes", "radii", "centers", "criteria", "scales"])
def test_comma_list_flags_exit_2_at_their_key(run_dir, capsys, argv,
                                              pointer):
    capsys.readouterr()
    out = [] if argv[0] == "zoo" else ["--out", "run"]
    assert cli.main(argv + out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {pointer}")
    assert "is not of type" in err
    assert not (run_dir / "run").exists()


@pytest.mark.parametrize("seed", [[], ["--seed", "3"]],
                         ids=["no_seed", "seed"])
def test_config_that_is_no_object_exits_2_at_the_root(run_dir, capsys,
                                                      seed):
    (run_dir / "lst.json").write_text("[1]")
    assert cli.main(["calc", "--config", "lst.json", "--out", "run"]
                    + seed) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at /: [1] is not of type 'object'")
    assert not (run_dir / "run").exists()


@pytest.mark.parametrize("argv,rc,pointer", [
    (["zoo", "info", "--space", "nope.json"], 2, "/space"),
    (["zoo", "info", "--space", "bad.json"], 2, "/space"),
    (["viewpoint", "standard", "--space", "nope.json", "--h", "1"], 2,
     "/space"),
    (["viewpoint", "lazy", "--space", "nope.json", "--h", "1"], 2, "/space"),
    (["viewpoint", "random", "--space", "nope.json", "--h", "1",
      "--seed", "1"], 2, "/space"),
    (["viewpoint", "symmetrize", "--space", "nope.json", "--vp", "vp.json"],
     2, "/space"),
    (["viewpoint", "check", "--space", "nope.json", "--vp", "vp.json"], 2,
     "/space"),
    (["viewpoint", "symmetrize", "--space", "space.json", "--vp",
      "nope.json"], 2, "/kernel/path"),
    (["viewpoint", "symmetrize", "--space", "space.json", "--vp",
      "bad.json"], 2, "/kernel/path"),
    (["viewpoint", "check", "--space", "space.json", "--vp", "nope.json"],
     2, "/kernel/path"),
    # a readable file that holds no kernel fails the check itself
    (["viewpoint", "check", "--space", "space.json", "--vp", "bad.json"], 1,
     None),
], ids=["zoo_info_missing_space", "zoo_info_bad_space",
        "standard_missing_space", "lazy_missing_space", "random_missing_space",
        "symmetrize_missing_space", "check_missing_space",
        "symmetrize_missing_vp", "symmetrize_bad_vp", "check_missing_vp",
        "check_bad_vp"])
def test_zoo_and_viewpoint_report_unreadable_files(run_dir, capsys, argv,
                                                   rc, pointer):
    (run_dir / "bad.json").write_text("{not json")
    assert cli.main(["viewpoint", "lazy", "--space", "space.json", "--h",
                     "1", "--out", "vp.json"]) == 0
    capsys.readouterr()
    out = [] if argv[0] == "zoo" or argv[1] == "check" else \
        ["--out", "out.json"]
    assert cli.main(argv + out) == rc
    err = capsys.readouterr().err
    assert "Traceback" not in err and not (run_dir / "out.json").exists()
    if pointer is None:
        assert err.startswith("invalid kernel: Expecting property name")
    else:
        assert err.startswith(f"config error at {pointer}:")
        assert ("nope.json" in err) or ("Expecting property name" in err)


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


def test_viewpoint_profile_through_run_reports_exact_witnesses(tmp_path):
    # the standard kernel is not symmetric, and its J_2 is still exact
    out = tmp_path / "run"
    config = {"space": {"family": "grid", "L": 4},
              "kernel": {"kind": "standard", "h": 1},
              "operations": [{"op": "profile", "p": 2, "backend": "vp",
                              "volumes": [2, 4, 8]}]}
    assert cli.run(config, out_dir=str(out)) == 0
    with open(out / "00_profile.json") as fh:
        curve = json.load(fh)
    space = zoo.grid(2, 4)
    backend = profiles.Backend.viewpoint(
        viewpoint.standard_viewpoint(space, 1.0))
    assert len(curve["witnesses"]) == 3
    for wit in curve["witnesses"].values():
        res = profiles.jp_subset(space, backend, wit["indices"], 2)
        assert res.mode == "exact"
        assert wit["value"] == res.value


def test_readme_sup_profile_does_not_depend_on_the_seed(tmp_path):
    # the README example's profile at its first volume: the sup backend at
    # p = 2 draws no random numbers, and the descent that used to run
    # there reported 1.03654
    arts = []
    for seed in (11, 12):
        out = tmp_path / str(seed)
        config = {"space": {"family": "grid", "d": 2, "L": 8}, "seed": seed,
                  "operations": [{"op": "profile", "p": 2,
                                  "backend": "sup:1", "volumes": [4]}]}
        assert cli.run(config, out_dir=str(out)) == 0
        arts.append([(out / f"00_profile.{ext}").read_bytes()
                     for ext in ("json", "csv")])
    assert arts[0] == arts[1]
    curve = json.loads(arts[0][0])
    assert curve["mode"] == "lower_bound"
    assert curve["values"][0] >= 1.03654
    wit = curve["witnesses"]["w0"]
    assert wit["value"] == curve["values"][0]
    assert wit["value"] <= wit["upper"] < math.inf


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_descent_profiles_through_run_are_reproducible(tmp_path):
    # p = 3 on the lp backend goes through the descent from fixed starts;
    # p = 2 on the sup backend is bracketed. Neither reads the seed. Only
    # candidates of measure at most 3 are evaluated
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
    # the p = 3 op alone, without a seed and with seeds 5 and 6: the same
    # artifacts, and manifests that differ only in the config they record
    runs = []
    for top in ({}, {"seed": 5}, {"seed": 6}):
        out = tmp_path / f"p3_{len(runs)}"
        assert cli.run({"space": config["space"], **top,
                        "operations": config["operations"][1:]},
                       out_dir=str(out)) == 0
        runs.append(out)
    for out in runs[1:]:
        assert sorted(p.name for p in out.iterdir()) == \
            ["00_profile.csv", "00_profile.json", "manifest.json"]
        for name in ("00_profile.csv", "00_profile.json"):
            assert (out / name).read_bytes() == (runs[0] / name).read_bytes()
        man, first = _manifest(out), _manifest(runs[0])
        del man["config"], first["config"]
        assert man == first


# ----------------------------------------------------------------------
# one-shot flags against the config route, and one run per operation

LAZY = {"kind": "lazy_srw", "h": 1.0}
FIELD = [0.0, 1.0, -2.0, 3.0, 0.5, 0.0, -1.0, 2.0, 4.0]

# one-shot argv, then the same run as a config: its top-level keys and its
# one operation. Paths are relative to the directory the test runs in.
ONE_SHOT = {
    "calc grad": (
        ["--space", "space.json", "--field", "field.json", "--kind", "lp",
         "--h", "2"], {},
        {"op": "grad", "field": "file:field.json", "kind": "lp", "h": 2.0}),
    "calc energy": (
        ["--space", "space.json", "--kernel", "lazy_srw", "--h", "1",
         "--seed", "5", "--fields", "random:4"], {"kernel": LAZY, "seed": 5},
        {"op": "energy_check", "fields": "random:4"}),
    "calc coarea": (
        ["--space", "space.json", "--h", "2", "--seed", "5",
         "--fields", "random:3"], {"seed": 5},
        {"op": "coarea_check", "h": 2.0, "fields": "random:3"}),
    "calc sandwich": (
        ["--space", "space.json", "--kernel", "lazy_srw", "--h", "1",
         "--seed", "5", "--fields", "random:3", "--q", "1.5"],
        {"kernel": LAZY, "seed": 5},
        {"op": "gradient_sandwich", "fields": "random:3", "q": 1.5}),
    "profile jp": (
        ["--space", "space.json", "--backend", "lp:1", "--volumes", "2,4"],
        {}, {"op": "profile", "backend": "lp:1", "volumes": [2.0, 4.0]}),
    "profile boundary": (
        ["--space", "space.json", "--scale", "2"], {},
        {"op": "boundary_profile", "h": 2.0}),
    "profile cheeger": (
        ["--space", "space.json", "--scale", "2"], {},
        {"op": "cheeger", "h": 2.0}),
    "profile sobolev": (
        ["--space", "space.json", "--backend", "lp:1", "--phi", "power:0.5",
         "--seed", "7", "--fields", "random:4"], {"seed": 7},
        {"op": "sobolev_verify", "backend": "lp:1", "phi": "power:0.5",
         "fields": "random:4"}),
    "walk decay": (
        ["--space", "space.json", "--kernel", "lazy_srw", "--h", "1",
         "--x", "2", "--n-max", "8"], {"kernel": LAZY},
        {"op": "decay", "x": 2, "n": {"max": 8}}),
    "walk gamma": (
        ["--phi", "power:1", "--t-min", "0.1", "--t-count", "5"], {},
        {"op": "gamma", "phi": "power:1", "t": {"min": 0.1, "count": 5}}),
    "walk compare": (
        ["--space", "space.json", "--kernel", "lazy_srw", "--h", "1",
         "--phi", "power:1", "--n-max", "16", "--centers", "4"],
        {"kernel": LAZY},
        {"op": "decay_vs_profile", "phi": "power:1", "n": {"max": 16},
         "centers": [4]}),
    "walk rho": (
        ["--space", "space.json", "--kernel", "lazy_srw", "--h", "1",
         "--radii", "1,2", "--center", "4"], {"kernel": LAZY},
        {"op": "spectral_radius", "radii": [1.0, 2.0], "center": 4}),
    "coarse certify": (
        ["--space", "space.json", "--target", "space.json",
         "--radii", "1,2"], {},
        {"op": "certify", "target": {"file": "space.json"},
         "radii": [1.0, 2.0]}),
    "coarse discretize": (
        ["--space", "space.json", "--h", "2"], {},
        {"op": "discretize", "h": 2.0}),
    "coarse thicken": (
        ["--space", "space.json", "--field", "field.json", "--h", "1"], {},
        {"op": "thicken_support", "field": "file:field.json", "h": 1.0}),
    "coarse band": (
        ["--space", "space.json", "--target", "space.json",
         "--map", "map.json", "--radii", "1,2", "--volumes", "2,4"], {},
        {"op": "transfer_band", "target": {"file": "space.json"},
         "map": "file:map.json", "radii": [1.0, 2.0], "volumes": [2.0, 4.0]}),
}


@pytest.fixture
def run_dir(tmp_path, monkeypatch):
    """A directory holding space.json (a 9-point path), field.json and
    map.json (the path's reversal), made the working directory."""
    _gen_space(tmp_path, family="path", n=9)
    (tmp_path / "field.json").write_text(json.dumps(FIELD))
    (tmp_path / "map.json").write_text(json.dumps(list(range(8, -1, -1))))
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("action", sorted(ONE_SHOT))
def test_one_shot_flags_match_the_config_route(run_dir, action):
    argv, top, op = ONE_SHOT[action]
    shot, routed = run_dir / "shot", run_dir / "routed"
    rc = cli.main(action.split() + argv + ["--out", str(shot)])
    config = dict(top, operations=[op])
    if any(a == "--space" for a in argv):
        config["space"] = {"file": "space.json"}
    assert cli.run(config, out_dir=str(routed), base_dir=str(run_dir)) == rc
    names = sorted(p.name for p in shot.iterdir())
    assert names == sorted(p.name for p in routed.iterdir())
    names.remove("manifest.json")
    assert names
    for name in names:
        assert (shot / name).read_bytes() == (routed / name).read_bytes()


# a passing run of every operation: its config, its one operation and the
# outcome the manifest records
PATH9 = {"family": "path", "n": 9}
GRID3 = {"family": "grid", "d": 2, "L": 3}
RUN_CASES = {
    "accept": ({}, {"criteria": [3]}, "pass"),
    "boundary_profile": ({"space": PATH9}, {"h": 1.0}, "info"),
    "certify": ({"space": GRID3}, {"target": GRID3, "radii": [1, 2]},
                "pass"),
    "cheeger": ({"space": PATH9}, {}, "info"),
    "coarea_check": ({"space": PATH9, "seed": 3},
                     {"fields": "random:3", "h": 2.0}, "pass"),
    "decay": ({"space": PATH9, "kernel": LAZY}, {"n": {"max": 8}}, "info"),
    "decay_vs_profile": ({"space": {"family": "path", "n": 48},
                          "kernel": LAZY},
                         {"phi": "power:1", "n": {"max": 48},
                          "centers": [24]}, "pass"),
    "discretize": ({"space": PATH9}, {"h": 2.0}, "pass"),
    "energy_check": ({"space": PATH9, "kernel": LAZY, "seed": 3},
                     {"fields": "random:3"}, "pass"),
    # quadrature lost the round trip on this small exponent
    "gamma": ({}, {"phi": "power:0.25", "v_min": 1e-4,
                   "t": {"min": 0.01, "max": 10000, "count": 50}}, "info"),
    "grad": ({"space": PATH9}, {"field": FIELD, "kind": "lp"}, "info"),
    "gradient_sandwich": ({"space": PATH9, "kernel": LAZY, "seed": 3},
                          {"fields": "random:3"}, "pass"),
    "laplacian": ({"space": PATH9, "kernel": LAZY}, {"field": FIELD},
                  "info"),
    "nash_check": ({"space": PATH9, "kernel": LAZY, "seed": 3},
                   {"phi": "power:1", "fields": "random:4"}, "pass"),
    "nash_from_decay": ({"space": PATH9, "kernel": LAZY, "seed": 3},
                        {"fields": "random:4", "n": {"max": 16}}, "pass"),
    "profile": ({"space": PATH9}, {"backend": "lp:1", "volumes": [2, 4]},
                "info"),
    "pullback_transfer": ({"space": PATH9},
                          {"target": PATH9, "field": FIELD}, "pass"),
    "rough_volume": ({"space": PATH9},
                     {"target": PATH9, "A": [3, 4, 5], "A_target": [4],
                      "u": 1.0}, "pass"),
    "scale_reduction": ({"space": PATH9, "seed": 3},
                        {"b": 1.0, "h": 2.0, "fields": "random:3"}, "pass"),
    "smoothing": ({"space": PATH9, "seed": 3}, {"fields": "random:3"},
                  "pass"),
    "sobolev_verify": ({"space": PATH9, "seed": 3},
                       {"backend": "lp:1", "phi": "power:0.5",
                        "fields": "random:4"}, "pass"),
    "spectral_radius": ({"space": GRID3, "kernel": LAZY}, {}, "info"),
    "thicken_support": ({"space": PATH9}, {"field": FIELD}, "info"),
    "transfer_band": ({"space": {"family": "path", "n": 16}},
                      {"target": {"family": "path", "n": 16},
                       "radii": [2, 4]}, "pass"),
}


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_every_operation_runs_through_run(tmp_path, name):
    top, op, outcome = RUN_CASES[name]
    out = tmp_path / "run"
    assert cli.run(dict(top, operations=[dict(op, op=name)]),
                   out_dir=str(out)) == 0
    man = _manifest(out)
    assert man["operations"] == [{"op": name, "outcome": outcome}]
    assert man["failures"] == [] and man["artifacts"]
    for art in man["artifacts"]:
        assert (out / art["path"]).is_file()


def test_every_operation_has_a_run_case():
    assert sorted(RUN_CASES) == sorted(cli.OPS)


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_every_operation_refuses_a_misspelt_key(tmp_path, capsys, name):
    # the passing case with one of the operation's keys misspelt, which
    # was once dropped for its default
    top, op, _ = RUN_CASES[name]
    spec = cli.OPS[name]
    key = (*spec.needs, *spec.defaults)[0]
    typo = key + key[-1]
    out = tmp_path / "run"
    rc = cli.run(dict(top, operations=[dict(op, op=name, **{typo: 1})]),
                 out_dir=str(out))
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("config error at /operations/0: ")
    assert f"{typo!r} was unexpected" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["sup", "lp", "viewpoint"])
def test_grad_run_writes_the_library_gradient(tmp_path, kind):
    out = tmp_path / "run"
    assert cli.run({"space": PATH9, "kernel": LAZY, "operations": [
        {"op": "grad", "field": FIELD, "kind": kind, "h": 2.0, "p": 3}]},
        out_dir=str(out)) == 0
    space, f = zoo.path(9), np.array(FIELD)
    want = {"sup": lambda: calculus.grad_sup(space, f, 2.0),
            "lp": lambda: calculus.grad_lp(space, f, 2.0, 3.0),
            "viewpoint": lambda: calculus.grad_viewpoint(
                randomwalk.lazy_srw(space, 1.0), f, 3.0)}[kind]()
    with open(out / "00_grad.json") as fh:
        assert json.load(fh) == want.tolist()


@pytest.mark.parametrize("op,pointer,words", [
    ({"op": "energy_check", "fields": "file:nope.json"},
     "/operations/0/fields", "nope.json"),
    ({"op": "certify", "target": PATH9, "map": "file:nope.json"},
     "/operations/0/map", "nope.json"),
    ({"op": "gamma", "phi": "tabulated:nope.json"}, "/operations/0/phi",
     "nope.json"),
    ({"op": "gamma", "phi": "power:x"}, "/operations/0/phi", "'power:x'"),
    ({"op": "gamma", "phi": "bogus:1"}, "/operations/0/phi", "'bogus:1'"),
    ({"op": "profile", "backend": "sup:x", "volumes": [2]},
     "/operations/0/backend", "'sup:x'"),
    ({"op": "profile", "backend": "vp:nope.json", "volumes": [2]},
     "/operations/0/backend", "nope.json"),
    ({"op": "transfer_band", "target": PATH9}, "/operations/0/radii",
     "nonempty radii"),
    ({"op": "transfer_band", "target": PATH9, "radii": []},
     "/operations/0/radii", "nonempty radii"),
    ({"op": "profile", "backend": "sup:nan", "volumes": [2]},
     "/operations/0/backend", "'sup:nan': numbers must be finite"),
    ({"op": "profile", "backend": "sup:-1", "volumes": [2]},
     "/operations/0/backend", "'sup:-1': the sup scale must be >= 0"),
    ({"op": "profile", "backend": "lp:inf", "volumes": [2]},
     "/operations/0/backend", "'lp:inf': numbers must be finite"),
    ({"op": "profile", "backend": "lp:-1", "volumes": [2]},
     "/operations/0/backend", "'lp:-1': the lp scale must be > 0"),
    ({"op": "profile", "backend": "lp:0", "volumes": [2]},
     "/operations/0/backend", "'lp:0': the lp scale must be > 0"),
    ({"op": "gamma", "phi": "power:nan"}, "/operations/0/phi",
     "'power:nan': numbers must be finite"),
    ({"op": "gamma", "phi": "log_power:1,inf"}, "/operations/0/phi",
     "'log_power:1,inf': numbers must be finite"),
], ids=["fields_file", "map_file", "phi_file", "phi_number", "phi_kind",
        "backend_number", "backend_file", "band_no_radii",
        "band_empty_radii", "sup_nan", "sup_negative", "lp_inf",
        "lp_negative", "lp_zero", "power_nan", "log_power_inf"])
def test_bad_spec_exits_2_with_pointer_and_manifest(tmp_path, capsys, op,
                                                   pointer, words):
    out = tmp_path / "run"
    rc = cli.run({"space": PATH9, "kernel": LAZY, "operations": [op]},
                 out_dir=str(out), base_dir=str(tmp_path))
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith(f"config error at {pointer}:") and words in err
    man = _manifest(out)
    assert man["passed"] is False and man["operations"] == []
    assert man["config_error"]["pointer"] == pointer


# a file a key names holds what the key could hold inline, and both must
# fit the space: the operation, the file's text (None: no file), and where
# and how the run stops
PATH4 = {"family": "path", "n": 4}


@pytest.mark.parametrize("op,text,pointer,words", [
    ({"op": "grad", "field": "file:data.json"},
     "[0, NaN, 1, 2, 3, 4, 5, 6, 7]", "/field/1", "NaN is not a valid"),
    ({"op": "energy_check", "fields": "file:data.json"}, '["0"]',
     "/fields/0", "'0' is not of type 'number', 'array'"),
    ({"op": "grad", "field": "file:data.json"}, "[0, 1, 2]", "/field",
     "each of the 9 points"),
    ({"op": "grad", "field": [0, 1, 2]}, None, "/field",
     "each of the 9 points"),
    ({"op": "energy_check", "fields": [FIELD, [1.0]]}, None, "/fields",
     "each of the 9 points"),
    ({"op": "pullback_transfer", "target": PATH4,
      "map": [0, 0, 1, 1, 2, 2, 3, 3, 3], "field": FIELD}, None, "/field",
     "each of the 4 points"),
    ({"op": "certify", "target": PATH9, "map": "file:data.json"},
     "[0, 1.5, 2, 3, 4, 5, 6, 7, 8]", "/map/1", "1.5 is not of type"),
    ({"op": "certify", "target": PATH9, "map": "file:data.json"},
     '"identity"', "/map", "'identity' is not of type 'array'"),
    ({"op": "certify", "target": PATH9, "map": "file:data.json"},
     "[0, 1, 2, 3, 4, 5, 6, 7, 9]", "/map", "target's 9 points"),
    ({"op": "rough_volume", "target": PATH4, "A": [1], "A_target": [1],
      "u": 1.0, "map": [0, 0, 1, 1, 2, 2, 3, 3, -1]}, None, "/map",
     "target's 4 points"),
    ({"op": "certify", "target": PATH9, "map": [0, 1, 2]}, None, "/map",
     "each of the 9 points"),
], ids=["field_nan", "fields_word", "field_file_short", "field_short",
        "fields_one_short", "pullback_field_on_target", "map_fraction",
        "map_identity_word", "map_past_end", "map_negative", "map_short"])
def test_named_file_is_checked_like_its_inline_value(tmp_path, capsys, op,
                                                     text, pointer, words):
    if text is not None:
        (tmp_path / "data.json").write_text(text)
    out = tmp_path / "run"
    rc = cli.run({"space": PATH9, "kernel": LAZY, "operations": [
        {"op": "cheeger"}, op]}, out_dir=str(out), base_dir=str(tmp_path))
    err = capsys.readouterr().err
    assert rc == 2, err
    pointer = f"/operations/1{pointer}"
    assert err.startswith(f"config error at {pointer}:") and words in err
    man = _manifest(out)
    assert man["operations"] == [{"op": "cheeger", "outcome": "info"}]
    assert man["config_error"]["pointer"] == pointer


@pytest.mark.parametrize("op,pointer", [
    ({"op": "profile", "strategy": "exat", "volumes": [2]}, "/strategy"),
    ({"op": "profile", "volumes": "24"}, "/volumes"),
    ({"op": "transfer_band", "target": PATH9, "radii": [1],
      "volumes": [2, "4"]}, "/volumes/1"),
    ({"op": "profile", "radii": [-1]}, "/radii/0"),
    ({"op": "spectral_radius", "center": 0, "radii": [1, -1]}, "/radii/1"),
    ({"op": "certify", "target": PATH9, "radii": "12"}, "/radii"),
    ({"op": "pullback_transfer", "target": PATH9, "field": FIELD,
      "radii": [-0.5]}, "/radii/0"),
    ({"op": "profile", "p": 0, "volumes": [2]}, "/p"),
    ({"op": "profile", "p": 0.5, "radii": [1]}, "/p"),
    ({"op": "profile", "p": "abc", "volumes": [2]}, "/p"),
    ({"op": "grad", "field": FIELD, "kind": "lp", "p": -1}, "/p"),
    ({"op": "laplacian", "field": FIELD, "p": "Infinity"}, "/p"),
    ({"op": "profile", "p": math.nan, "volumes": [2]}, "/p"),
    ({"op": "profile", "radii": [1, math.nan]}, "/radii/1"),
    ({"op": "profile", "volumes": [math.nan]}, "/volumes/0"),
    ({"op": "grad", "field": FIELD, "kind": "lp", "h": math.nan}, "/h"),
    ({"op": "grad", "field": [0.0, math.nan], "kind": "lp"}, "/field/1"),
    ({"op": "decay", "n": {"max": 8, "stpe": 2}}, "/n"),
    ({"op": "decay", "n": [2, 4.5]}, "/n/1"),
    ({"op": "nash_from_decay", "n": "64"}, "/n"),
    ({"op": "gamma", "phi": "power:1", "t": {"min": 1, "count": 0}},
     "/t/count"),
    ({"op": "gamma", "phi": "power:1", "t": {"min": 1, "cnt": 5}}, "/t"),
    ({"op": "gamma", "phi": "power:1", "t": [1, "2"]}, "/t/1"),
    ({"op": "decay", "x": 0.5}, "/x"),
    ({"op": "decay", "x": -1}, "/x"),
    ({"op": "spectral_radius", "center": 1.5, "radii": [1]}, "/center"),
    ({"op": "cheeger", "h": "abc"}, "/h"),
    ({"op": "scale_reduction", "b": "1", "h": 2.0}, "/b"),
    ({"op": "rough_volume", "target": PATH9, "A": [3], "A_target": [4],
      "u": None}, "/u"),
    ({"op": "gradient_sandwich", "q": 0.5}, "/q"),
    ({"op": "gradient_sandwich", "q2": "abc"}, "/q2"),
    ({"op": "accept", "criteria": [1.5]}, "/criteria/0"),
    ({"op": "accept", "criteria": "1,4"}, "/criteria"),
    ({"op": "certify", "target": PATH9, "map": [0, 1.5, 2, 3, 4, 5, 6, 7,
                                                8]}, "/map/1"),
    ({"op": "grad", "field": ["0", 1.0], "kind": "lp"}, "/field/0"),
    ({"op": "decay", "n": {"step": 0}}, "/n/step"),
    ({"op": "gamma", "phi": "power:1", "t": {"min": 0}}, "/t/min"),
    ({"op": "grad", "field": FIELD, "kind": "foo"}, "/kind"),
    ({"op": "spectral_radius", "subset": [1.5, 2]}, "/subset/0"),
    ({"op": "spectral_radius", "subset": "abc"}, "/subset"),
    ({"op": "rough_volume", "target": PATH9, "A": [1.5], "A_target": [4],
      "u": 1.0}, "/A/0"),
    ({"op": "rough_volume", "target": PATH9, "A": [3], "A_target": ["x"],
      "u": 1.0}, "/A_target/0"),
    ({"op": "scale_reduction", "b": 1, "h": 2.0, "profile_radii": ["a"]},
     "/profile_radii/0"),
    ({"op": "boundary_profile", "t_grid": ["x"]}, "/t_grid/0"),
    ({"op": "sobolev_verify", "phi": "power:0.5", "assert_C": "abc"},
     "/assert_C"),
    ({"op": "gamma", "phi": "power:1", "v_min": -1}, "/v_min"),
    ({"op": "gamma", "phi": "power:1", "t": [0, 1]}, "/t/0"),
    ({"op": "gamma", "phi": "power:1", "t": []}, "/t"),
    ({"op": "decay", "n": []}, "/n"),
    ({"op": "decay", "n": [-2, 3]}, "/n/0"),
    ({"op": "decay", "n": {"start": -3, "max": 4}}, "/n/start"),
    ({"op": "decay", "n": {"start": 5, "max": 2}}, "/n"),
    ({"op": "decay", "n": {"max": -1}}, "/n"),
    ({"op": "decay_vs_profile", "phi": "power:1", "centers": []},
     "/centers"),
], ids=["strategy", "volumes_string", "volumes_item", "radii_negative",
        "rho_radii", "certify_radii", "pullback_radii", "p_zero", "p_half",
        "p_word", "grad_p", "laplacian_p", "p_nan", "radii_nan",
        "volumes_nan", "grad_h_nan", "field_nan", "n_misspelt", "n_item",
        "n_string", "t_count_zero", "t_misspelt", "t_item", "x_fraction",
        "x_negative", "center_fraction", "h_word", "b_string", "u_null",
        "q_half", "q2_word", "criteria_item", "criteria_string",
        "map_fraction", "field_string", "n_step_zero", "t_min_zero",
        "grad_kind", "subset_fraction", "subset_string", "A_fraction",
        "A_target_string", "profile_radii_string", "t_grid_string",
        "assert_C_string", "v_min_negative", "t_zero", "t_empty", "n_empty",
        "n_negative", "n_start_negative", "n_max_below_start",
        "n_max_negative", "centers_empty"])
def test_bad_profile_key_exits_2_at_its_pointer(tmp_path, capsys, op,
                                               pointer):
    out = tmp_path / "run"
    rc = cli.run({"space": PATH9, "kernel": LAZY,
                  "operations": [{"op": "cheeger"}, op]}, out_dir=str(out))
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith(f"config error at /operations/1{pointer}:")
    assert not out.exists()


@pytest.mark.parametrize("p", [1, 1.5, math.inf, "inf"])
def test_profile_p_from_one_to_inf_runs(tmp_path, p):
    assert cli.run({"space": PATH9, "operations": [
        {"op": "profile", "p": p, "backend": "lp:1", "radii": [1]}]},
        out_dir=str(tmp_path / "run")) == 0


def test_handler_error_becomes_a_witness(tmp_path):
    out = tmp_path / "run"
    rc = cli.run({"space": PATH9, "kernel": LAZY, "operations": [
        {"op": "spectral_radius", "subset": [0, 99]}, {"op": "cheeger"}]},
        out_dir=str(out))
    assert rc == 1
    man = _manifest(out)
    assert man["operations"] == [{"op": "spectral_radius", "outcome": "fail"},
                                 {"op": "cheeger", "outcome": "info"}]
    with open(out / "00_spectral_radius_witness.json") as fh:
        assert "99" in json.load(fh)["error"]


def _subset_radius(out, subset):
    return cli.run({"space": PATH9, "kernel": LAZY, "operations": [
        {"op": "spectral_radius", "subset": subset}]}, out_dir=str(out))


@pytest.mark.parametrize("subset,same_as", [
    ([3, 4, 4, 5], [3, 4, 5]), ([5, 3, 4], [3, 4, 5]), ([4, 4], [4])],
    ids=["repeat", "unsorted", "repeat_only"])
def test_spectral_radius_subset_is_read_as_a_set(tmp_path, subset, same_as):
    # a repeated index once doubled a row of the block (rho 1.187 on a
    # stochastic kernel); the subset is read as space.subset reads it
    rhos = []
    for name, sub in (("a", subset), ("b", same_as)):
        assert _subset_radius(tmp_path / name, sub) == 0
        with open(tmp_path / name / "00_spectral_radius.json") as fh:
            rhos.append(json.load(fh)["rho"])
    assert rhos[0] == rhos[1] < 1.0


@pytest.mark.parametrize("subset,word", [
    ([-1, 3], "subset index -1 out of range"),
    ([3, 9, 12], "subset index 9 out of range"), ([], "nonempty")],
    ids=["negative", "past_end", "empty"])
def test_spectral_radius_bad_subset_is_a_witness(tmp_path, subset, word):
    out = tmp_path / "run"
    assert _subset_radius(out, subset) == 1
    assert _manifest(out)["operations"] == [
        {"op": "spectral_radius", "outcome": "fail"}]
    with open(out / "00_spectral_radius_witness.json") as fh:
        assert word in json.load(fh)["error"]


@pytest.mark.parametrize("op", ["cheeger", "boundary_profile"])
@pytest.mark.parametrize("family", ["ball", "foo"])
def test_misspelt_family_exits_2_at_its_pointer(tmp_path, capsys, op, family):
    rc = cli.run({"space": PATH9, "operations": [
        {"op": "cheeger"}, {"op": op, "family": family}]},
        out_dir=str(tmp_path / "run"))
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("config error at /operations/1/family:")
    assert repr(family) in err


def test_cheeger_without_admissible_member_exits_1_with_witness(tmp_path):
    # on the 9-point path every member weighs more than mu(X)/2 = 4.5
    out = tmp_path / "run"
    rc = cli.run({"space": PATH9, "operations": [
        {"op": "cheeger", "family": [list(range(7)), [8, 0, 2, 4, 6]]}]},
        out_dir=str(out))
    assert rc == 1
    man = _manifest(out)
    assert man["operations"] == [{"op": "cheeger", "outcome": "fail"}]
    assert man["failures"] == [{"operation": "cheeger",
                                "witness": "00_cheeger_witness.json"}]
    with open(out / "00_cheeger_witness.json") as fh:
        assert json.load(fh) == {"error": "cheeger needs a nonempty family "
                                          "with mu(A) <= mu(X)/2"}


@pytest.mark.parametrize("top,op", [
    ({}, {"op": "grad", "field": FIELD, "kind": "lp", "p": 3}),
    ({"kernel": LAZY}, {"op": "laplacian", "field": FIELD, "p": 3}),
    ({}, {"op": "thicken_support", "field": FIELD, "p": 3}),
], ids=["grad", "laplacian", "thicken_support"])
def test_deterministic_ops_at_p3_need_no_seed(tmp_path, top, op):
    config = dict(top, space=PATH9, operations=[op])
    assert cli.run(config, out_dir=str(tmp_path / "run")) == 0


def test_profile_at_p3_needs_no_seed(run_dir, capsys):
    # the descent behind a profile at p = 3 starts from fixed draws
    assert cli.main(["calc", "grad", "--space", "space.json", "--field",
                     "field.json", "--kind", "lp", "--p", "3",
                     "--out", "grad"]) == 0
    assert cli.main(["profile", "jp", "--space", "space.json", "--p", "3",
                     "--backend", "lp:1", "--volumes", "2",
                     "--out", "jp"]) == 0
    assert "seed" not in capsys.readouterr().err
    assert _manifest(run_dir / "jp")["passed"] is True


@pytest.mark.parametrize("argv", [
    ["coarse", "thicken", "--field", "field.json"],
    ["coarse", "band", "--target", "space.json", "--radii", "1,2"]],
    ids=["thicken", "band"])
def test_one_shot_h_zero_reaches_the_operation(run_dir, argv):
    cli.main(argv + ["--space", "space.json", "--h", "0", "--out", "run"])
    # the manifest echoes only the flags given
    op = _manifest(run_dir / "run")["config"]["operations"][0]
    assert op["h"] == 0.0 and "p" not in op


def test_center_without_radii_is_a_config_error(run_dir, capsys):
    assert cli.main(["walk", "rho", "--space", "space.json", "--kernel",
                     "lazy_srw", "--h", "1", "--center", "3"]) == 2
    assert cli.run({"space": PATH9, "kernel": LAZY, "operations": [
        {"op": "spectral_radius", "center": 3}]}) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error at /operations/0/center: center needs "
                   "radii"] * 2
    assert not (run_dir / "coarsecalc_out").exists()


def test_boundary_profile_balls_is_the_library_family(tmp_path):
    # on a 20-point path the family reaches radii past 4h
    out = tmp_path / "run"
    assert cli.run({"space": {"family": "path", "n": 20}, "operations": [
        {"op": "boundary_profile", "h": 1.0, "family": "balls"}]},
        out_dir=str(out)) == 0
    rows = (out / "00_boundary_profile.csv").read_text().splitlines()[1:]
    curves = profiles.boundary_profile(zoo.path(20), 1.0, family="balls")
    assert [r.split(",") for r in rows] == [
        [c.kind, repr(float(a)), repr(float(v)), c.mode]
        for c in curves for a, v in zip(c.args, c.values)]


@pytest.mark.parametrize("spec", ["random:abc", "random:0", "random:-2",
                                  "random:", "random:1.5"])
def test_random_field_count_must_be_a_positive_integer(tmp_path, capsys,
                                                       spec):
    out = tmp_path / "run"
    rc = cli.run({"space": PATH9, "seed": 3, "operations": [
        {"op": "cheeger"}, {"op": "smoothing", "fields": spec}]},
        out_dir=str(out))
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("config error at /operations/1/fields:")
    assert repr(spec) in err and "positive integer" in err
    assert _manifest(out)["operations"] == [{"op": "cheeger",
                                             "outcome": "info"}]


@pytest.mark.parametrize("action,kind", [
    ("standard", "standard"), ("lazy", "lazy_srw"),
    ("random", "random_symmetric")])
@pytest.mark.parametrize("h,seed", [(-1.0, 3), (0.0, 3), (math.nan, 3),
                                   (1.0, None)],
                         ids=["h_negative", "h_zero", "h_nan", "no_seed"])
def test_viewpoint_actions_exit_as_a_config_kernel(run_dir, capsys, action,
                                                   kind, h, seed):
    argv = ["viewpoint", action, "--space", "space.json", "--h", str(h),
            "--out", "vp.json"]
    config = {"space": {"file": "space.json"}, "kernel": {"kind": kind,
                                                          "h": h},
              "operations": [{"op": "cheeger"}]}
    if seed is not None:
        argv += ["--seed", str(seed)]
        config["seed"] = seed
    rc = cli.main(argv)
    shot = capsys.readouterr().err
    assert cli.run(config, out_dir="run") == rc
    assert capsys.readouterr().err == shot
    if not h > 0:
        assert rc == 2 and shot.startswith("config error at /kernel/h:")
    elif action == "random":
        assert rc == 2 and shot.startswith("config error at /seed:")
    else:
        assert rc == 0 and (run_dir / "vp.json").is_file()
    assert (rc == 0) == (run_dir / "vp.json").exists()


@pytest.mark.parametrize("route", ["config", "tol_overrides"])
def test_unknown_tolerance_key_exits_2_at_tolerances(run_dir, capsys,
                                                      route):
    tolerances = {"sandwich_slak": 1e-9}
    if route == "config":
        rc = cli.run({"space": PATH9, "tolerances": tolerances,
                      "operations": [{"op": "cheeger"}]}, out_dir="run")
    else:
        (run_dir / "tol.json").write_text(json.dumps(tolerances))
        rc = cli.main(["profile", "cheeger", "--space", "space.json",
                       "--tol-overrides", "tol.json", "--out", "run"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("config error at /tolerances:")
    assert "'sandwich_slak'" in err and not (run_dir / "run").exists()


def test_known_tolerance_keys_are_read(tmp_path):
    # the sandwich holds exactly on these fields; a negative slack
    # makes every comparison fail
    config = {"space": PATH9, "kernel": LAZY, "seed": 3, "operations": [
        {"op": "energy_check", "fields": "random:3"},
        {"op": "gradient_sandwich", "fields": "random:3"}]}
    for slack, rc in ((1e-9, 0), (-1.0, 1)):
        config["tolerances"] = {"energy_rel": 1e-9, "sandwich_slack": slack}
        out = tmp_path / f"run{rc}"
        assert cli.run(config, out_dir=str(out)) == rc
        man = _manifest(out)
        assert man["config"]["tolerances"] == config["tolerances"]
        assert [o["outcome"] for o in man["operations"]] == \
            ["pass", "pass" if rc == 0 else "fail"]
