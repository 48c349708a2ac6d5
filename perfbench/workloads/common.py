"""Pieces shared by the workloads: the task record and check helpers."""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class CheckFailed(Exception):
    """An output of coarsecalc did not pass the benchmark's check."""


@dataclass
class Task:
    """One timed call into coarsecalc and the check of its output.

    ``corrupt`` returns a deliberately wrong copy of the output; the
    self-test feeds it to ``check`` to show that a bad output is caught.
    """

    name: str
    call: Callable[[], object]
    check: Optional[Callable[[object], None]] = None
    corrupt: Optional[Callable[[object], object]] = None


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def expect_close(got, want, what, rtol=0.0, atol=0.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    ok = np.abs(got - want) <= atol + rtol * np.abs(want)
    expect(got.shape == want.shape and bool(np.all(ok)),
           f"{what}: got {got!r}, want {want!r} (rtol {rtol:g}, atol {atol:g})")


def expect_stochastic_symmetric(vp):
    """Rows integrate to 1 against the measure and the densities are
    literally symmetric."""
    sums = vp.dens @ vp.space.measure
    expect(bool(np.all(np.abs(sums - 1.0) <= 1e-12)),
           f"kernel rows do not integrate to 1 (worst {sums.min()!r}..."
           f"{sums.max()!r})")
    gap = abs(vp.dens - vp.dens.T)
    expect(gap.nnz == 0 or gap.max() <= 1e-15, "kernel is not symmetric")
