"""cli_files: the README flow through files and through family specs.

Set-up generates spaces, saves them and their kernels as files, and writes
experiment configs. Each config then runs through ``cli.run`` twice: once
naming the saved files, once naming the same space by its family spec.
Both write their artifacts and manifest. This is the only workload that
saves (writes), loads with re-validation (reads) and writes artifacts.
``route_mismatches`` counts the operations whose artifacts differ between
the two routes; a space that loses information when saved shows up there.

The README example's ``p: 2, backend: "sup:1"`` profile is left out: it
runs descent on each of its 1,200 candidates, about an hour per run.
small_exact measures descent instead.
"""

import csv
import json
import math
import shutil
from pathlib import Path

from coarsecalc import cli, randomwalk, space as space_mod, viewpoint, zoo
from coarsecalc.acceptance import TREE_RADIAL_RHO
from workloads.common import Task, expect, expect_close

TREE_DEPTH = 6


def _scenarios(seed, smoke):
    """(name, family spec, kernel, operations) of every config."""
    rgg_n = 60 if smoke else 100
    return [
        ("box8", {"family": "grid", "d": 2, "L": 8},
         {"kind": "lazy_srw", "h": 1.0},
         [{"op": "energy_check", "fields": "random:10"},
          {"op": "decay", "x": 0, "n": {"max": 64}}]),
        # the case where saving is known to lose the grid's box candidates
        ("box6", {"family": "grid", "d": 2, "L": 6}, None,
         [{"op": "profile", "p": 2, "backend": "lp:1",
           "volumes": [4, 8, 16]}]),
        ("tree", {"family": "regular_tree", "degree": 4, "depth": TREE_DEPTH},
         {"kind": "pure_srw", "ambient_degree": 4},
         [{"op": "spectral_radius"}]),
        ("rgg", {"family": "random_geometric", "n": rgg_n, "seed": seed},
         {"kind": "lazy_srw", "h": 0.15},
         [{"op": "energy_check", "fields": "random:10"},
          {"op": "coarea_check", "h": 0.15, "fields": "random:3"},
          {"op": "gradient_sandwich", "fields": "random:10"}]),
        ("path", {"family": "path", "n": 48},
         {"kind": "lazy_srw", "h": 1.0},
         [{"op": "decay_vs_profile", "phi": "power:1", "centers": [24],
           "n": {"max": 64}}]),
    ]


def setup(seed, smoke, workdir):
    workdir = Path(workdir)
    runs = []
    spaces = {}
    for name, spec, kernel, ops in _scenarios(seed, smoke):
        sp = _generate(spec)
        spaces[name] = (sp, kernel["h"] if kernel and "h" in kernel else 1.0)
        space_mod.save_space(sp, workdir / f"{name}.json")
        file_kernel = kernel
        if kernel and kernel["kind"] == "lazy_srw":
            viewpoint.save_viewpoint(randomwalk.lazy_srw(sp, kernel["h"]),
                                     workdir / f"{name}_kernel.json")
            file_kernel = {"kind": "file", "path": f"{name}_kernel.json"}
        for route, space_cfg, kernel_cfg in (
                ("file", {"file": f"{name}.json"}, file_kernel),
                ("family", spec, kernel)):
            cfg = {"space": space_cfg, "seed": seed, "operations": ops}
            if kernel_cfg:
                cfg["kernel"] = kernel_cfg
            runs.append((name, route, cfg))
    return {"workdir": workdir, "runs": runs, "spaces": spaces}


def _generate(spec):
    """The space a family spec names, built the way ``zoo generate`` does."""
    fam = spec["family"]
    if fam == "grid":
        return zoo.grid(spec["d"], spec["L"])
    if fam == "regular_tree":
        return zoo.regular_tree(spec["degree"], spec["depth"])
    if fam == "random_geometric":
        return zoo.random_geometric(spec["n"], spec["seed"])
    return zoo.path(spec["n"])


def tasks(inp, results, stats):
    workdir = inp["workdir"]
    out_root = workdir / "out"
    shutil.rmtree(out_root, ignore_errors=True)
    for name, route, cfg in inp["runs"]:
        out = out_root / name / route
        yield Task(f"{name}.{route}",
                   lambda cfg=cfg, out=out: cli.run(cfg, out_dir=out,
                                                    base_dir=workdir),
                   lambda code, name=name, out=out, route=route:
                   _check_run(code, name, out, route, out_root, stats),
                   corrupt=lambda code: 1)


def probes(inp, results):
    return [(name, sp, h) for name, (sp, h) in inp["spaces"].items()]


# ----------------------------------------------------------------------
# checks


def _check_run(code, name, out, route, out_root, stats):
    expect(code == 0, f"{name} ({route} route) exited with {code}")
    manifest = json.loads((out / "manifest.json").read_text())
    expect(manifest["passed"], f"{name} ({route} route) manifest says failed")
    for art in manifest["artifacts"]:
        expect((out / art["path"]).is_file(), f"missing artifact {art['path']}")
    if name == "tree":
        rho = json.loads((out / "00_spectral_radius.json").read_text())["rho"]
        expect_close(rho, TREE_RADIAL_RHO[TREE_DEPTH], "tree spectral radius",
                     atol=1e-7)
    if route == "family":
        stats["route_mismatches"] += _mismatched_operations(
            out_root / name / "file", out)


def _mismatched_operations(a, b):
    """Operations whose artifacts differ between two output directories."""
    manifest = json.loads((a / "manifest.json").read_text())
    differ = set()
    for art in manifest["artifacts"]:
        if not _same_file(a / art["path"], b / art["path"]):
            differ.add(art["path"].split("_", 1)[0])
    return len(differ)


def _same_file(p, q):
    if not q.is_file():
        return False
    if p.suffix == ".json":
        return _same(json.loads(p.read_text()), json.loads(q.read_text()))
    with open(p, newline="") as fa, open(q, newline="") as fb:
        return _same(list(csv.reader(fa)), list(csv.reader(fb)))


def _same(x, y):
    """Equal structure, with numbers (also numbers written as text) equal
    to 1e-9 relative."""
    if isinstance(x, dict) and isinstance(y, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, list) and isinstance(y, list):
        return len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y))
    fx, fy = _number(x), _number(y)
    if fx is not None and fy is not None:
        if not (math.isfinite(fx) and math.isfinite(fy)):
            return fx == fy or (math.isnan(fx) and math.isnan(fy))
        return abs(fx - fy) <= 1e-9 * max(abs(fx), abs(fy))
    return x == y


def _number(v):
    if isinstance(v, bool):
        return None
    if isinstance(v, (int, float)):
        return float(v)
    try:
        return float(v)
    except (TypeError, ValueError):
        return None
