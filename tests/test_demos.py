"""The four demos run to completion from this checkout's sources."""

import math
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
    assert len(pairs) == 3
    # gamma.at interpolates log-log between the demo's 40 grid points
    # from 0.5 to 512, a step of h = log(1024) / 39 in log t; for
    # gamma = 1 / (t + 1) the second derivative of log gamma in log t is
    # at most 1/4, so interpolation errs by at most h^2 / 32 (1e-3); the
    # six printed decimals add 1e-6, well inside that at every t printed
    rtol = (math.log(1024.0) / 39) ** 2 / 32
    for got, closed in pairs:
        assert float(got) == pytest.approx(float(closed), rel=rtol)
