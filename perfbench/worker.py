"""One workload process: set up, then run passes of the workload's tasks.

Started by run.py with the checkout's ``src`` on PYTHONPATH; prints one
JSON report as the last line of its standard output.

Set-up time runs from ``--t0`` (taken by run.py just before starting this
process, on the system-wide monotonic clock) until the inputs are built,
so it covers interpreter start, imports and building the inputs.

A pass runs every task of the workload once on fresh deep copies of the
inputs, so nothing a pass leaves on a space object reaches the next pass.
Only the calls into coarsecalc are timed; the checks are not. Passes repeat
until ``--seconds`` would be exceeded, and the report lists each pass's
solve time. Between tasks the worker runs rounds of the reference kernel
of reference.py, in step with the solve time, and the report lists each
pass's reference seconds and rounds too.

With ``--trace 1`` the worker runs untraced passes for half the time, then
one pass with the tracer installed (set-up is traced too), then the bare
probes, and reports per-layer figures instead.
"""

import argparse
import contextlib
import copy
import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)

    import coarsecalc
    import workloads
    wl = workloads.load(args.workload)

    src = Path(coarsecalc.__file__).resolve().parent
    expected = Path(os.environ["PERFBENCH_SRC"]).resolve() / "coarsecalc"
    if src != expected:
        raise SystemExit(f"coarsecalc imported from {src}, not {expected}")

    runs_dir = HERE / "runs"
    runs_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir))
    try:
        report = _run(wl, args, workdir, runs_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["env"] = _environment()
    report["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))


def _run(wl, args, workdir, runs_dir):
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer(args.workload)
        tracer.install()
        with tracer.root("setup"):
            inputs = _quiet(wl.setup, args.seed, args.smoke, workdir)
        tracer.uninstall()
    else:
        inputs = _quiet(wl.setup, args.seed, args.smoke, workdir)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        return {"setup_s": setup_s}

    state = {"attempted": 0, "failed": 0, "failures": [],
             "corrupt": args.corrupt}
    budget = args.seconds / 2 if args.trace else args.seconds
    passes, ref_s, ref_rounds, mismatches = [], [], [], []
    import reference   # after set-up, so that set-up time leaves it out
    ref = reference.Reference()
    ref.run(10)        # warm-up
    start = time.monotonic()
    while True:
        t = time.monotonic()
        solve, stats = _pass(wl, inputs, state, ref=ref)
        passes.append(solve)
        ref_s.append(ref.seconds)
        ref_rounds.append(ref.rounds)
        mismatches.append(stats["route_mismatches"])
        now = time.monotonic()
        if now - start + (now - t) > budget:
            break
    if len(set(mismatches)) > 1:
        state["failed"] += 1
        state["failures"].append(f"route mismatches differ between passes: "
                                 f"{mismatches}")
    report = {"setup_s": setup_s, "passes": passes, "ref_s": ref_s,
              "ref_rounds": ref_rounds,
              "route_mismatches": mismatches[0]}
    if tracer is not None:
        results = {}
        tracer.install()
        try:
            traced, _ = _pass(wl, inputs, state, tracer, results)
        finally:
            tracer.uninstall()
        report["per_layer"] = _per_layer(wl, inputs, results, tracer,
                                         traced, passes)
        tracer.write(runs_dir / f"spans-{args.workload}.tsv")
    report.update(attempted=state["attempted"], failed=state["failed"],
                  failures=state["failures"][:10], task_s=state["task_s"])
    return report


def _pass(wl, inputs, state, tracer=None, results=None, ref=None):
    """Run every task once on fresh copies of the inputs; return the
    seconds spent inside the calls and the pass's counts. With ``ref``,
    run the reference rounds owed after each task."""
    if ref is not None:
        ref.reset()
    inp = copy.deepcopy(inputs)
    results = {} if results is None else results
    stats = {"route_mismatches": 0}
    state["task_s"] = {}
    solve = 0.0
    with contextlib.redirect_stdout(io.StringIO()):
        for task in wl.tasks(inp, results, stats):
            state["attempted"] += 1
            root = tracer.root(f"task.{task.name}") if tracer else \
                contextlib.nullcontext()
            try:
                with root:
                    t0 = time.perf_counter()
                    try:
                        out = task.call()
                    finally:
                        dt = time.perf_counter() - t0
                        solve += dt
                        state["task_s"][task.name] = dt
                results[task.name] = out
                if state["corrupt"] and task.corrupt is not None:
                    state["corrupt"] = False
                    out = task.corrupt(out)
                if task.check is not None:
                    task.check(out)
            except Exception as exc:   # one failed task must not stop the run
                state["failed"] += 1
                state["failures"].append(
                    f"{task.name}: {type(exc).__name__}: {exc}"[:500])
                traceback.print_exc(file=sys.stderr)
            if ref is not None:
                ref.keep_up(solve)
    return solve, stats


def _per_layer(wl, inputs, results, tracer, traced, passes):
    import statistics
    from coarsecalc import calculus

    metrics, units = tracer.metrics()
    out = {name: {"value": value, "unit": units[name]}
           for name, value in metrics.items()}
    untraced = statistics.median(passes)
    out["trace.untraced_solve_s"] = {"value": untraced, "unit": "s"}
    out["trace.traced_solve_s"] = {"value": traced, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    out["trace.spans"] = {"value": float(len(tracer.spans)), "unit": "count"}

    # bare probes, untraced, each recorded as one root span
    sweep = form = 0.0
    probes = wl.probes(inputs, results)
    for label, space, h in probes:
        with tracer.root(f"probe.ball_rows.{label}"):
            t0 = time.perf_counter()
            for _ in space.ball_rows(h):
                pass
            sweep += time.perf_counter() - t0
        with tracer.root(f"probe.l2_gradient_form.{label}"):
            t0 = time.perf_counter()
            calculus.l2_gradient_form(space, h)
            form += time.perf_counter() - t0
    out["probe.ball_rows_s"] = {"value": sweep, "unit": "s"}
    out["probe.form_s"] = {"value": form, "unit": "s"}
    out["probe.pairs"] = {"value": float(len(probes)), "unit": "count"}
    return out


def _quiet(fn, *args):
    """Call fn with the library's prints kept off our standard output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


if __name__ == "__main__":
    main()
