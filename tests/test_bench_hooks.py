"""The benchmark's traced run patches library methods by name; a refactor
that renames or drops one would only surface as a crash in
``perfbench/run.py --trace 1``. This keeps those names resolvable."""

import importlib
import importlib.util
import inspect
from collections import defaultdict
from pathlib import Path

import numpy as np

from coarsecalc import calculus, profiles, randomwalk, zoo
from coarsecalc.space import MetricMeasureSpace

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_hooks_resolve():
    tracer = _load_tracer()
    assert tracer.METHODS
    for layer, (cls_name, methods) in tracer.METHODS.items():
        cls = getattr(importlib.import_module(f"coarsecalc.{layer}"), cls_name)
        for attr in methods:
            # the tracer reads the class dict, so inherited names do not count
            assert attr in vars(cls), f"{layer}.{cls_name}.{attr} is gone"
    # called directly by the benchmark's probes
    assert callable(vars(MetricMeasureSpace)["ball_rows"])
    assert callable(calculus.l2_gradient_form)
    # the profile hooks bind these parameters by name
    for fn, params in (
            (profiles.isoperimetric_profile,
             {"space", "backend", "p", "strategy"}),
            (profiles.boundary_profile, {"space", "family"}),
            (profiles.cheeger, {"space", "family"}),
            (profiles.jp_subset, {"space", "backend", "p"})):
        assert params <= set(inspect.signature(fn).parameters), fn.__name__


def test_l2_gradient_form_builds_afresh():
    # the benchmark's form probe times one build per call, so the builder
    # must neither memoise nor leave state on the space, even once exact
    # J_2 has filled the space's own form memo
    space = zoo.grid(2, 4)
    a = calculus.l2_gradient_form(space, 1.0)
    b = calculus.l2_gradient_form(space, 1.0)
    assert a is not b and not np.shares_memory(a.data, b.data)
    assert space._forms == {}
    profiles.jp_subset(space, profiles.Backend.lp(1.0), [0, 1, 4], 2)
    c = calculus.l2_gradient_form(space, 1.0)
    assert c is not a and not np.shares_memory(c.data, a.data)
    assert list(space._forms) == [1.0]
    assert (c != a).nnz == 0


def test_spectral_hook_reads_rho_and_residual():
    # the spectral hook reads out[1] of both radius functions; it was an
    # iteration count and is now the residual, which truncates to 0
    tracer = _load_tracer()
    vp = randomwalk.pure_srw(zoo.grid(2, 4), ambient_degree=4)
    counts = defaultdict(int)
    for fn, args in ((randomwalk.spectral_radius, (vp,)),
                     (randomwalk.dirichlet_spectral_radius, (vp, [5, 6]))):
        out = fn(*args)
        assert isinstance(out, tuple) and len(out) == 2
        rho, residual = out
        assert isinstance(rho, float) and isinstance(residual, float)
        assert 0 <= residual <= calculus.EIG_RESIDUAL_TOL
        tracer.HOOKS[f"randomwalk.{fn.__name__}"](fn, args, {}, out, counts)
    assert counts["randomwalk.power_iters"] == 0
