"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload walks --seed 1 --seconds 22 --trace 0

Workloads: transfer, walks, small_exact, cli_files (see perfbench/README.md).
Run from the root of a checkout; coarsecalc is imported from its ``src``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``solve_rel``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones. The line
before it is the run's full record: workload, seed, every metric,
``fail_rate``, ``route_mismatches``, the raw ``solve_s`` (median pass solve
time), the solve time of each pass and the reference kernel's seconds and
rounds in each, library versions, thread counts and the source digest.
perfbench/compare.py reads those records.

An untraced run starts the worker process, which sets up and measures,
and SETUP_SAMPLES processes that only set the workload up, half of them
before the worker and half after; ``setup_s`` is the median of all their
set-up times. A traced run starts only the worker.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the self-test")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt one output before its check, for the "
                         "self-test")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "coarsecalc" / "__init__.py").is_file():
        print(f"perfbench: no coarsecalc sources under {src}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = _child_env(src)
    base = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        base.append("--smoke")

    def setups(count):
        return [_child(base + ["--setup-only"], env, deadline)["setup_s"]
                for _ in range(0 if args.trace else count)]

    # set-up samples before and after the worker, so that they span the
    # run rather than one moment of the machine's drifting speed
    setup_samples = setups(SETUP_SAMPLES // 2)
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt:
        extra.append("--corrupt")
    rep = _child(base + extra, env, deadline)
    setup_samples += [rep["setup_s"]] + setups(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    if args.trace:
        metrics = rep["per_layer"]
        metrics["fail_rate"] = {"value": rep["failed"] / rep["attempted"],
                                "unit": "ratio"}
        metrics["route_mismatches"] = {
            "value": float(rep["route_mismatches"]), "unit": "count"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "solve_rel": {"value": solve_rel(rep["passes"], rep["ref_s"],
                                             rep["ref_rounds"]),
                          "unit": "rounds"},
            "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
        }
    correct = rep["failed"] == 0
    record = {
        "record": "perfbench",
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "correct": correct, "attempted": rep["attempted"],
        "failed": rep["failed"],
        "fail_rate": rep["failed"] / rep["attempted"],
        "route_mismatches": rep["route_mismatches"],
        "failures": rep["failures"],
        "metrics": metrics,
        "setup_samples_s": setup_samples,
        "solve_s": statistics.median(rep["passes"]),
        "solve_passes_s": rep["passes"],
        "reference_s": rep["ref_s"],
        "reference_rounds": rep["ref_rounds"],
        "last_pass_task_s": rep["task_s"],
        "env": dict(rep["env"], commit=_commit(), src_sha256=_digest(src)),
    }
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


def solve_rel(passes, ref_s, ref_rounds):
    """Mean solve time of a pass in rounds of the reference kernel, timed
    between the tasks of the same passes.

    The machine's speed drifts over seconds to minutes and slows the tasks
    and the rounds run among them alike, so the ratio keeps what the code
    costs and drops most of the drift."""
    round_s = sum(ref_s) / sum(ref_rounds)
    return sum(passes) / len(passes) / round_s


def _child_env(src):
    """Environment of the workload processes: the checkout's sources first
    on the path, and one BLAS / OpenMP thread.

    The workloads' matrices are small, so BLAS threads buy nothing; on a
    machine shared with other work they make timings swing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PERFBENCH_SRC"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(cmd, env, deadline):
    """Run one worker process to completion; return its JSON report."""
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _digest(src):
    """sha256 over the library's source files, names and contents."""
    h = hashlib.sha256()
    for path in sorted((src / "coarsecalc").rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
