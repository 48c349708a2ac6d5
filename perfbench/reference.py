"""A fixed reference kernel that measures the machine's current speed.

On a shared virtual machine the same work runs up to 1.5x slower in some
stretches of seconds to minutes than in others, so a run's raw solve time
says as much about the stretch it ran in as about the code. The worker
therefore runs rounds of this kernel in the same process, between the
tasks of every pass, and ``solve_rel`` expresses the solve time in rounds
of the kernel.

The rounds keep pace with the solve time: after each task the worker runs
the rounds owed, RATE per second of solve time so far, so that the kernel
samples the machine's speed at the moments the tasks ran and in
proportion to how long they ran.

The kernel shares no code with coarsecalc, so a change to coarsecalc moves
the solve time and not the time of a round. Its mix follows what the
workloads' profiles are made of: interpreter-bound loops that make many
small numpy and scipy calls (neighbourhood rows, small sparse matrices,
quadrature of a Python integrand, small dense eigensolves), plus a pure
Python graph sweep. Garbage collection is off while it runs, so garbage a
task leaves behind is not collected on the reference's time.
"""

import gc
import time

import numpy as np
import scipy.integrate
import scipy.sparse

N_POINTS = 300
# rounds per second of solve time: a round takes about 7 ms on a 2-core
# Xeon virtual machine, so the kernel adds about a tenth to a pass
RATE = 15.0


class Reference:
    """Inputs of the kernel, built once, and the rounds run so far."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        n = N_POINTS
        self.coords = rng.random((n, 2))
        self.adj = {i: [(i * 7 + k) % n for k in (1, 3, 11, 29)]
                    for i in range(n)}
        dense = rng.standard_normal((24, 24))
        self.dense = dense + dense.T
        self.vec = rng.standard_normal(n)
        self.total = 0.0     # the rounds' results, so that each is used
        self.rounds = 0
        self.seconds = 0.0

    def run(self, rounds):
        """Run the kernel ``rounds`` times and add up its time."""
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(rounds):
                self.total += self._round()
            self.seconds += time.perf_counter() - t0
        finally:
            gc.enable()
        self.rounds += rounds

    def keep_up(self, solve_s):
        """Run the rounds owed for ``solve_s`` seconds of solve time."""
        owed = int(solve_s * RATE) - self.rounds
        if owed > 0:
            self.run(owed)

    def reset(self):
        self.rounds = 0
        self.seconds = 0.0

    def _round(self):
        return (self._sweep() + self._rows() + self._sparse() + self._quad()
                + float(np.linalg.eigh(self.dense)[0][0]))

    def _sweep(self):
        """Breadth-first search from every 20th point, in pure Python."""
        reached = 0
        for s in range(0, N_POINTS, 20):
            depth = {s: 0}
            frontier = [s]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in self.adj[x]:
                        if y not in depth:
                            depth[y] = depth[x] + 1
                            nxt.append(y)
                frontier = nxt
            reached += sum(depth.values())
        return float(reached)

    def _rows(self):
        """Distance rows and index sets of small balls, one point at a
        time."""
        c = self.coords
        total = 0
        for x in range(0, N_POINTS, 3):
            row = np.abs(c - c[x]).max(axis=1)
            total += np.flatnonzero(row <= 0.1).size
        return float(total)

    def _sparse(self):
        """Small sparse matrices built from triplets, then a few
        matrix-vector products."""
        n = N_POINTS
        out = 0.0
        for shift in (1, 2, 5, 9, 17, 33):
            rows = np.arange(n)
            cols = (rows + shift) % n
            m = scipy.sparse.csr_matrix((np.full(n, 0.5), (rows, cols)),
                                        shape=(n, n))
            m = m + m.T
            v = self.vec
            for _ in range(4):
                v = m @ v
            out += float(v[0])
        return out

    def _quad(self):
        """Adaptive quadrature of a Python integrand."""
        out = 0.0
        for a in (0.5, 1.0, 2.0, 4.0):
            out += scipy.integrate.quad(
                lambda t, a=a: np.sqrt(t) / (a + t * t), 0.0, 10.0)[0]
        return out
