"""A fixed pure-Python kernel that tracks the speed of the host.

The host this benchmark was written on shares its cores with other
tenants; its speed drifts by a third or more for minutes at a time, and
process CPU time drifts with wall time.  So every run also times the
kernel below between ops, about twice a second, and the gated figures
are given in units of the kernel's median time in that run (``ref``).
The kernel is the benchmark's own code, fixed and independent of the
seed: a change to the program moves the ``ref`` figures as it moves the
raw ones, while a slow period of the host slows the program and the
kernel together.  It does the arithmetic the program spends its time on,
row operations on Python integers modulo p^N.

Set-up time is measured in fresh processes; the parent times the kernel
just before each one, and the set-up time in ``ref`` units is given in
seconds by multiplying it by NOMINAL_S, the kernel's usual time on the
baseline host.
"""

from __future__ import annotations

import random
import statistics
import time

P, E = 3, 40
ROWS, COLS = 26, 52


def _matrix():
    rng = random.Random(2409_02202)
    pe = P**E
    return [[rng.randrange(pe) for _ in range(COLS)] for _ in range(ROWS)]


MATRIX = _matrix()

# The kernel's median time on the 2-core Xeon VM the baselines were taken
# on: a time in units of ``ref`` times this constant is a time in seconds
# at that host's usual speed.
NOMINAL_S = 0.0075


def kernel() -> float:
    """Eliminate below the diagonal of a copy of MATRIX over Z/3^40 and
    return the wall time taken (about 7.5 ms on a 2-core Xeon VM)."""
    pe = P**E
    start = time.perf_counter()
    m = [row[:] for row in MATRIX]
    for r in range(ROWS):
        pivot = m[r][r] if m[r][r] % P else m[r][r] + 1
        inv = pow(pivot, -1, pe)
        rowr = [(x * inv) % pe for x in m[r]]
        for i in range(r + 1, ROWS):
            q = m[i][r]
            rowi = m[i]
            for j in range(r, COLS):
                rowi[j] = (rowi[j] - q * rowr[j]) % pe
    return time.perf_counter() - start


def median_kernel(runs: int) -> float:
    """Median wall time of ``runs`` back-to-back kernel() calls."""
    return statistics.median(kernel() for _ in range(runs))


class Sampler:
    """Times kernel() between ops, once for every interval_s that has
    passed since the last sample (at most MAX_BURST times in a row), so
    long ops are covered as densely as short ones."""

    MAX_BURST = 20

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._last = None

    def between_ops(self) -> float:
        """Take the samples that are due; return the wall time spent."""
        now = time.perf_counter()
        if self._last is None:
            due = 1
        else:
            due = min(self.MAX_BURST, int((now - self._last) / self.interval_s))
        if due < 1:
            return 0.0
        self.samples.extend(kernel() for _ in range(due))
        self._last = time.perf_counter()
        return self._last - now
