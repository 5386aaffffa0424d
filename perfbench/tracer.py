"""Span tracer that wraps schwave's public functions from outside the package.

``Tracer.install`` replaces each traced function, in every ``schwave.*``
module namespace that binds it, by a wrapper that records a span
``[name, start, end, parent]`` in memory.  A span's name is
``<module>.<function>``; the module is its layer.  A layer's self time is
the duration of its spans minus the part their child spans cover, so the
self times of all layers plus the harness add up to the traced wall time.

The kernel wrapper also counts window widths and, on every ``PROBE_EVERY``-th
step, measures the live and subnormal share of the new window and keeps a
seeded reservoir of kernel inputs for the microbenchmark.  Probe work is
recorded as ``trace.probe`` spans so that it is never charged to a layer.

``potentials`` and ``riccati`` are not traced: they cost under 10 ms and sit
on no workload's path (``potential_W`` runs inside ``solve_phi`` and counts
toward ``test_function``).
"""

from __future__ import annotations

import builtins
import json
import random
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

PROBE_EVERY = 8
CAPTURED_STATES = 6
MICRO_P = (1.5, 1.75, 2.0)
MICRO_REPEAT = 7
# A node is live when |v_next| exceeds this share of the window peak; the
# solver's boundary check uses the same 1e-10 relative fringe tolerance.
LIVE_REL = 1e-10
TINY = np.finfo(float).tiny

TRACED = {
    "cli": ["main"],
    "experiments": ["sweep", "fit_records", "fit_power_law", "fit_exponential",
                    "upper_bound_check", "emit_outputs", "config_from_mapping"],
    "coordinates": ["sized_grid", "build_grid", "horizon_gap_from_tortoise"],
    "test_function": ["solve_phi", "TestFunctionTable.residual",
                      "TestFunctionTable.max_relative_residual"],
    "pde_solver": ["run_until", "init_state"],
    "backend": ["leapfrog_window", "taylor_first_step"],
    "functionals": ["check_inequalities", "FunctionalMonitor.start",
                    "FunctionalMonitor.push_sums", "FunctionalMonitor.sample_from",
                    "MonitorSeries.to_csv", "InequalityReport.to_json"],
}
MONITOR_SPANS = ("functionals.FunctionalMonitor.start",
                 "functionals.FunctionalMonitor.push_sums",
                 "functionals.FunctionalMonitor.sample_from")
# Modules that write output files; each write block is a "<module>.write" span.
WRITERS = ("cli", "experiments", "functionals")
LAYERS = ("cli", "experiments", "coordinates", "test_function", "pde_solver",
          "backend", "functionals", "harness")


class Tracer:
    def __init__(self, seed: int):
        self.spans: list[list] = []
        self.stack = [-1]
        self.rng = random.Random(seed)
        self.steps = 0
        self.node_updates = 0
        self.last_width = 0
        self.probed = self.live = self.subnormal = 0
        self.states: list[tuple] = []
        self.runs: list[tuple[int, int, str]] = []  # (grid n, final width, status)
        self.phi_nodes = 0
        self.grid_nodes = 0
        self.samples = 0
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _kernel(self, fn):
        spans, stack = self.spans, self.stack

        def traced(v_prev, v_curr, v_next, W, h, phi, p, dt, inv_ds2, lo, hi,
                   **kwargs):
            t0 = time.perf_counter()
            out = fn(v_prev, v_curr, v_next, W, h, phi, p, dt, inv_ds2, lo, hi,
                     **kwargs)
            spans.append(["backend.leapfrog_window", t0, time.perf_counter(),
                          stack[-1]])
            self.steps += 1
            self.last_width = hi - lo + 1
            self.node_updates += self.last_width
            if self.steps % PROBE_EVERY == 0:
                self._probe(v_prev, v_curr, v_next, W, h, phi, dt, inv_ds2, lo, hi)
            return out

        return traced

    def _probe(self, v_prev, v_curr, v_next, W, h, phi, dt, inv_ds2, lo, hi):
        t0 = time.perf_counter()
        a = np.abs(v_next[lo:hi + 1])
        self.probed += a.size
        self.live += int(np.count_nonzero(a > LIVE_REL * a.max()))
        self.subnormal += int(np.count_nonzero((a > 0.0) & (a < TINY)))
        # Reservoir sample over probed steps; v_prev and v_curr are the
        # kernel's inputs (it writes only v_next).
        seen = self.steps // PROBE_EVERY
        slot = len(self.states) if len(self.states) < CAPTURED_STATES \
            else self.rng.randrange(seen)
        if slot < CAPTURED_STATES:
            w = slice(lo - 1, hi + 2)
            state = (v_prev[w].copy(), v_curr[w].copy(), W[w].copy(),
                     h[w].copy(), phi[w].copy(), dt, inv_ds2)
            if slot == len(self.states):
                self.states.append(state)
            else:
                self.states[slot] = state
        self.spans.append(["trace.probe", t0, time.perf_counter(), self.stack[-1]])

    def _timed_open(self, name):
        tracer = self

        class WriteSpan:
            def __init__(self, fh):
                self.fh = fh
                self.rec = [name, time.perf_counter(), 0.0, tracer.stack[-1]]
                tracer.stack.append(len(tracer.spans))
                tracer.spans.append(self.rec)

            def __enter__(self):
                return self.fh

            def __exit__(self, *exc):
                self.fh.__exit__(*exc)
                self.rec[2] = time.perf_counter()
                tracer.stack.pop()

        def open_(file, mode="r", *args, **kwargs):
            fh = builtins.open(file, mode, *args, **kwargs)
            return fh if mode.startswith("r") else WriteSpan(fh)

        return open_

    # -- installation ------------------------------------------------------

    def _replace(self, orig, new) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "schwave" or modname.startswith("schwave.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def install(self) -> None:
        import schwave.cli  # noqa: F401  (loads every traced module)

        def count_grid(args, kwargs, grid):
            self.grid_nodes += grid.n

        def record_run(args, kwargs, out):
            grid = args[1] if len(args) > 1 else kwargs["grid"]
            self.runs.append((grid.n, self.last_width, out[0].status))

        def count_samples(args, kwargs, out):
            self.samples += 1

        after = {"coordinates.build_grid": count_grid,
                 "pde_solver.run_until": record_run,
                 "functionals.FunctionalMonitor.start": count_samples,
                 "functionals.FunctionalMonitor.sample_from": count_samples}
        for layer, names in TRACED.items():
            mod = sys.modules[f"schwave.{layer}"]
            for name in names:
                span = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(span, orig, after.get(span)))
                    self._undo.append((cls, meth, orig))
                elif span == "backend.leapfrog_window":
                    self._replace(getattr(mod, name), self._kernel(getattr(mod, name)))
                else:
                    orig = getattr(mod, name)
                    self._replace(orig, self.wrap(span, orig, after.get(span)))

        tf = sys.modules["schwave.test_function"]
        potential_W = tf.potential_W

        def counted_W(M, s):
            # solve_phi samples W at nodes and midpoints: 2m - 1 points.
            self.phi_nodes += (np.size(s) + 1) // 2
            return potential_W(M, s)

        tf.potential_W = counted_W
        self._undo.append((tf, "potential_W", potential_W))
        for layer in WRITERS:
            mod = sys.modules[f"schwave.{layer}"]
            mod.open = self._timed_open(f"{layer}.write")
            self._undo.append((mod, "open", None))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    # -- reporting ---------------------------------------------------------

    def metrics(self, wall_s: float, bytes_written: int, backend_name: str) -> dict:
        dur = [end - start for _, start, end, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += dur[i]
        self_s = defaultdict(float)
        incl = defaultdict(float)
        for i, (name, _, _, _) in enumerate(self.spans):
            self_s[name.split(".", 1)[0]] += dur[i] - covered[i]
            incl[name] += dur[i]

        def ratio(a, b, scale=1.0):
            return a / b * scale if b else 0.0

        kernel_s = incl["backend.leapfrog_window"]
        solve_phi_s = incl["test_function.solve_phi"]
        blew_up = sum(1 for _, _, status in self.runs if status == "blew_up")
        retries = sum(1 for _, _, status in self.runs if status == "reached_tmax")
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({
            "backend.kernel_s": kernel_s,
            "backend.steps": self.steps,
            "backend.node_updates": self.node_updates,
            "backend.ns_per_node": ratio(kernel_s, self.node_updates, 1e9),
            "backend.live_frac": ratio(self.live, self.probed),
            "backend.subnormal_frac": ratio(self.subnormal, self.probed),
            "backend.compiled": 1 if backend_name != "numpy" else 0,
            "pde_solver.window_mean": ratio(self.node_updates, self.steps),
            "pde_solver.window_final_frac": ratio(
                sum(width / n for n, width, _ in self.runs), len(self.runs)),
            "test_function.solve_phi_s": solve_phi_s,
            "test_function.nodes": self.phi_nodes,
            "test_function.ns_per_node": ratio(solve_phi_s, self.phi_nodes, 1e9),
            "coordinates.build_s": incl["coordinates.build_grid"],
            "coordinates.nodes": self.grid_nodes,
            "functionals.monitor_s": sum(incl[name] for name in MONITOR_SPANS),
            "functionals.samples": self.samples,
            "functionals.check_s": incl["functionals.check_inequalities"],
            "experiments.runs": len(self.runs),
            "experiments.retries": retries,
            "experiments.useful_run_frac": ratio(blew_up, len(self.runs)),
            "experiments.emit_s": incl["experiments.emit_outputs"],
            "cli.write_s": sum(incl[f"{layer}.write"] for layer in WRITERS),
            "cli.bytes_written": bytes_written,
            "trace.probe_s": self_s["trace"],
            "trace.wall_s": wall_s,
            "trace.spans": len(self.spans),
        })
        return out

    def microbench(self, backends: dict) -> dict:
        """ns per node of each kernel at each exponent, on the captured states.

        Each state is timed ``MICRO_REPEAT`` times on fixed inputs (the
        output goes to a scratch buffer) and the median call counts.
        """
        out = {}
        for name, kernel in backends.items():
            for p in MICRO_P:
                total_s = total_nodes = 0
                for v_prev, v_curr, W, h, phi, dt, inv_ds2 in self.states:
                    v_next = np.zeros_like(v_curr)
                    hi = len(v_curr) - 2
                    times = []
                    for _ in range(MICRO_REPEAT):
                        t0 = time.perf_counter()
                        kernel(v_prev, v_curr, v_next, W, h, phi, p, dt, inv_ds2,
                               1, hi)
                        times.append(time.perf_counter() - t0)
                    total_s += statistics.median(times)
                    total_nodes += hi
                out[f"backend.ns_per_node.{name}.p{p:g}"] = (
                    total_s / total_nodes * 1e9 if total_nodes else 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
