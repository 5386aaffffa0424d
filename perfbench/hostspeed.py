"""Host-speed reference: a fixed numpy loop that runs on a second CPU while a
pass runs on the first, so that each timed interval can be scaled to one
reference speed of the host.

The benchmark runs on a few CPUs of a shared host.  Over minutes the host
runs every process on it faster or slower by up to a half (one pass of
``sweep-p2`` took 6.8 s in one ten-minute stretch and 10.9 s in the next).
That shift is shared by the CPUs: the same numpy loop run on both CPUs of
the 2-CPU VM this was defined on gave 30-second averages with correlation
0.98, while their ratio varied by 2% (CV).  A run of a minute cannot average
such a shift away, so every time the benchmark gates is scaled by

    REF_UNIT_S[p] / (mean duration of the reference units run during the interval)

which is the interval's length at the speed where a unit takes
``REF_UNIT_S[p]``; ``p`` is the workload's exponent (see ``Reference``).
The reference loop is the benchmark's own code, never schwave's, so a change
to schwave moves the scaled times in the same proportion as the raw ones.
Raw times are printed and recorded next to the scaled ones.
"""

from __future__ import annotations

import statistics
import subprocess
import time

import numpy as np

# Duration of one unit, per exponent, at one reference speed of the defining
# host (2-CPU shared Xeon VM): the median at p = 1.75 while passes ran on the
# other CPU, and the other exponents in their measured ratio to it.
REF_UNIT_S = {1.5: 7.3e-4, 1.75: 8.0e-4, 2.0: 4.0e-4}
# A unit is element-wise numpy work on L1-sized arrays in the shape of the
# sweeps' kernel: |x|^p, a product and a three-point stencil, in place so
# that it allocates nothing.
UNIT_LEN = 4096
UNIT_REPEAT = 20


class Reference:
    """Runs reference units while a child process runs; scales its intervals.

    ``p`` is the workload's exponent.  The unit takes the kernel's path for
    it, ``|x| * |x|`` at p = 2 and ``np.power`` otherwise, because the host's
    speed shifts move the two paths by different amounts (from the fast to
    the slow state a p = 1.75 unit slowed by about 1.6x and a sweep-p175
    pass by 1.45x, while a sweep-p2 pass slowed by only 1.23x).

    Timestamps are ``time.monotonic()``, which is system-wide on Linux, so
    intervals reported by the child compare directly with the units.
    """

    def __init__(self, p: float):
        self.p = p
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal(UNIT_LEN)
        self.b = rng.standard_normal(UNIT_LEN)
        self.c = np.empty(UNIT_LEN)
        self.d = np.empty(UNIT_LEN - 2)
        self.units: list[tuple[float, float]] = []

    def _unit(self) -> None:
        a, b, c, d, p = self.a, self.b, self.c, self.d, self.p
        for _ in range(UNIT_REPEAT):
            np.abs(a, out=c)
            if p == 2.0:
                c *= c
            else:
                np.power(c, p, out=c)
            c *= b
            np.subtract(a[2:], a[1:-1], out=d)
            d -= a[1:-1]
            d += a[:-2]
            c[1:-1] += d

    def unit_s(self) -> float:
        """Median unit duration so far."""
        return statistics.median(t1 - t0 for t0, t1 in self.units)

    def run_while(self, proc: subprocess.Popen, deadline: float) -> None:
        """Run units until ``proc`` exits or ``deadline`` (monotonic) passes."""
        units = self.units
        while proc.poll() is None and time.monotonic() < deadline:
            t0 = time.monotonic()
            self._unit()
            units.append((t0, time.monotonic()))

    def scale(self, start: float, end: float) -> float:
        """REF_UNIT_S[p] over the mean unit duration within [start, end]."""
        durations = [t1 - t0 for t0, t1 in self.units if t1 > start and t0 < end]
        if not durations:
            raise ValueError("no reference units ran during the interval")
        return REF_UNIT_S[self.p] * len(durations) / sum(durations)
