#!/usr/bin/env python3
"""Benchmark the compiled stepping kernel and phi shooter against Python.

Times the single-step leapfrog update (the solver's hot loop) on synthetic
problems of several sizes and prints microseconds per step, nanoseconds per
window node, and the speedup.  One window is 20,003 nodes wide, not a
multiple of the compiled kernel's 8 lanes, so its tail loop runs too;
another is 10,882 nodes, the mean window of perfbench's sweep-p2 workload.
A last row gives the fixed cost of one call on an empty window (lo > hi) in
microseconds: the argument parsing and buffer checks every step pays.
p = 1.6 sits outside backend.C_EXPONENTS, so the compiled columns show "-"
there: the solver's dispatcher runs numpy at that exponent.  The header
names the instruction set of the compiled copy the loader picked
("avx512f", "avx2" or "default"); on x86-64 glibc that is the widest
clone the CPU runs, and every clone returns the same bits.

A second table times the RK4 phi shooter (solve_phi's inner loop), the
Python loop against the compiled twin, in microseconds per solve and
nanoseconds per node, on the grids of the `schwave phi` tables that
perfbench's tables-export workload writes (M = 1, s in [-1300, 1300]).

Usage: python benchmarks/bench_kernels.py [--steps N] [--solves N]
"""

import argparse
import time

import numpy as np

from schwave import _core_py
from schwave.backend import (BACKEND, C_EXPONENTS, KERNEL_ISA, _core_c,
                             available_backends)
from schwave.potentials import potential_W
from schwave.test_function import _RENORM_CAP

TABLE_SIZES = (52_001, 104_001, 208_001)


def make_problem(n, rng):
    s = np.linspace(-50, 50, n)
    v_curr = np.exp(-(s / 3.0) ** 2) * rng.uniform(0.5, 1.0, n)
    v_prev = v_curr * rng.uniform(0.98, 1.0, n)
    W = rng.uniform(0.0, 0.03, n)
    h = rng.uniform(0.0, 0.2, n)
    phi = np.exp(0.05 * s)
    return v_prev, v_curr, np.zeros(n), W, h, phi


def time_kernel(kernel, arrays, p, steps, lo=1, hi=None):
    # Fixed inputs (no buffer rotation): keeps the synthetic problem bounded
    # so no run drifts into inf/nan arithmetic and skews the timing.
    v_prev, v_curr, v_next, W, h, phi = arrays
    n = len(v_curr)
    hi = n - 2 if hi is None else hi
    dt = 0.9 * (100.0 / (n - 1))
    inv_ds2 = 1.0 / (100.0 / (n - 1)) ** 2
    kernel(v_prev, v_curr, v_next, W, h, phi, p, dt, inv_ds2, lo, hi)
    t0 = time.perf_counter()
    for _ in range(steps):
        kernel(v_prev, v_curr, v_next, W, h, phi, p, dt, inv_ds2, lo, hi)
    return (time.perf_counter() - t0) / steps * 1e6


def time_shooter(shoot, n, solves):
    # phi'' = (W + A^2) phi at nodes and midpoints, A = 1/2M, M = 1.
    c = potential_W(1.0, np.linspace(-1300.0, 1300.0, 2 * n - 1)) + 0.25
    ds = 2600.0 / (n - 1)
    out = [np.empty(n) for _ in range(3)]
    t0 = time.perf_counter()
    for _ in range(solves):
        shoot(c, *out, 0.5, ds, _RENORM_CAP)
    return (time.perf_counter() - t0) / solves * 1e6


def shooter_table(solves):
    shooters = {"python": _core_py.shoot_phi}
    if _core_c is not None:
        shooters["c"] = _core_c.shoot_phi
    print(f"\n{'nodes':>8}" + "".join(f"{name + ' us/solve':>18}{'ns/node':>9}"
                                     for name in shooters)
          + ("  speedup" if len(shooters) > 1 else ""))
    for n in TABLE_SIZES:
        times = {name: time_shooter(f, n, solves) for name, f in shooters.items()}
        row = f"{n:>8}" + "".join(f"{t:>18.1f}{t * 1e3 / n:>9.2f}"
                                  for t in times.values())
        if "c" in times:
            row += f"  {times['python'] / times['c']:>7.1f}x"
        print(row)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--solves", type=int, default=3)
    args = parser.parse_args()

    backends = available_backends()
    rng = np.random.default_rng(11)
    print(f"default backend: {BACKEND}  kernel ISA: {KERNEL_ISA}")
    print(f"{'width':>8} {'p':>5}" + "".join(f"{name + ' us/step':>16}{'ns/node':>9}"
                                             for name in backends)
          + ("  speedup" if len(backends) > 1 else ""))
    for n in (2_002, 10_884, 20_002, 20_005, 200_002):
        for p in (1.5, 1.6, 1.75, 2.0):
            arrays = make_problem(n, rng)
            times = {name: time_kernel(k, tuple(a.copy() for a in arrays), p,
                                       args.steps)
                     for name, k in backends.items()
                     if name == "numpy" or p in C_EXPONENTS}
            row = f"{n - 2:>8} {p:>5}" + "".join(
                f"{times[name]:>16.2f}{times[name] * 1e3 / (n - 2):>9.2f}"
                if name in times else f"{'-':>16}{'-':>9}"
                for name in backends)
            if "c" in times:
                row += f"  {times['numpy'] / times['c']:>7.1f}x"
            print(row)
    arrays = make_problem(2_002, rng)
    print(f"{'empty':>8} {2.0:>5}" + "".join(
        f"{time_kernel(k, arrays, 2.0, 100 * args.steps, 10, 9):>16.2f}{'-':>9}"
        for k in backends.values()))
    shooter_table(args.solves)


if __name__ == "__main__":
    main()
