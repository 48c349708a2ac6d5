"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py in smoke mode, untraced and
traced, and checks that each run is correct and that the last line names
exactly the metrics BENCHMARK.json lists for that mode, each with its
unit. It then runs every workload with one output deliberately corrupted
before its check and requires the run to count the failure. Last, it feeds
the records to perfbench/compare.py. Exits 1 on the first problem.
"""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import workloads  # noqa: E402


def run(workload, *flags):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--smoke", *flags]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited with "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), proc.stdout


def check(cond, message):
    if not cond:
        raise AssertionError(message)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check({w["name"] for w in spec["workloads"]} <= set(workloads.NAMES),
          "BENCHMARK.json names a workload that workloads.NAMES lacks")
    outputs = []
    try:
        for name in workloads.NAMES:
            for trace in (0, 1):
                record, last, out = run(name, "--trace", str(trace))
                outputs.append(out)
                check(sorted(last) == ["attempted", "correct", "failed",
                                       "metrics"], f"{name}: keys {sorted(last)}")
                check(last["correct"] and last["failed"] == 0,
                      f"{name} trace {trace}: {record['failures']}")
                got = {k: v["unit"] for k, v in last["metrics"].items()}
                check(got == expected[trace],
                      f"{name} trace {trace}: metrics differ from "
                      f"BENCHMARK.json: {set(got) ^ set(expected[trace])} "
                      f"or units")
                check(all(isinstance(v["value"], float)
                          for v in last["metrics"].values()),
                      f"{name} trace {trace}: a metric value is not a number")
                print(f"ok  {name} trace {trace}: {len(got)} metrics")
            record, last, _ = run(name, "--trace", "0", "--corrupt")
            check(not last["correct"] and last["failed"] >= 1
                  and record["fail_rate"] > 0,
                  f"{name}: a corrupted output was not counted as failed")
            print(f"ok  {name}: corrupted output counted "
                  f"({record['failures'][0][:70]})")
        (HERE / "runs").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "runs") as tmp:
            path = Path(tmp) / "runs.jsonl"
            path.write_text("".join(outputs))
            table = io.StringIO()
            with contextlib.redirect_stdout(table):
                code = compare.main([str(path), str(path)])
            check(code == 0 and "solve_rel" in table.getvalue(),
                  "compare.py failed on the smoke records")
            print("ok  compare.py reads the records")
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
