"""The four demos run to completion from this checkout's sources."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def _run(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env,
                          timeout=300)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_0(name):
    proc = _run(name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_decay_demo_gamma_matches_its_closed_form():
    proc = _run("decay_and_profiles.py")
    assert proc.returncode == 0, proc.stderr
    pairs = re.findall(r"gamma = ([0-9.]+)\s+closed form ([0-9.]+)",
                       proc.stdout)
    assert len(pairs) == 4
    # printed at points of the transform's own t grid (no interpolation),
    # to 15 decimals: the smallest printed value, 1/513, keeps 13 digits
    for got, closed in pairs:
        assert float(got) == pytest.approx(float(closed), rel=1e-12, abs=0)
