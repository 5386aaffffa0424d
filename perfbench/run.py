#!/usr/bin/env python3
"""schwave benchmark: acceptance sweeps and table export, end to end and by layer.

Run from the root of a schwave checkout:

    python3 perfbench/run.py --workload sweep-p2 --seed 1 --seconds 58 --trace 0

``--trace 0`` times untraced passes and prints the end-to-end metrics
``wall_s``, ``setup_s`` and ``peak_rss_mb`` plus ``ops_failed_frac``.
``--trace 1`` runs one untraced and one traced pass and prints the per-layer
metrics, including the tracing overhead.  Every pass is a fresh process on
one CPU while this process runs the host-speed reference (hostspeed.py) on
another; ``wall_s`` and ``setup_s`` are scaled to the reference speed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
# Import-only processes per run, inside its --seconds; each pass adds its own.
SETUP_PROBES = 3
# A run must end within 180 s; leave room for reporting.
DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 800.0
# Each pass is one single-threaded process (ops run sequentially).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.monotonic(); import schwave; "
                "print(t, time.monotonic())")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class RunError(Exception):
    pass


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its naming convention."""
    leaf = metric.split(".", 1)[1]
    if leaf.startswith("ns_per_node"):
        return "ns"
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith("_frac"):
        return "frac"
    if leaf == "bytes_written":
        return "B"
    if leaf == "window_mean":
        return "nodes"
    return "count"


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError("time limit reached")
    return left


def build(root: Path, env: dict) -> None:
    """Build the package in place from source, as an install would.

    setup.py compiles the optional kernel extension when it can; otherwise
    this builds nothing and schwave selects its numpy backend.
    """
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace",
         "--build-temp", str(Path(".bench_build") / "temp")],
        cwd=root, env=env, capture_output=True, text=True,
        timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RunError(f"build failed:\n{proc.stderr[-4000:]}")


class Host:
    """Starts each child process on one CPU and runs the reference on another.

    The two CPUs swap roles from one child to the next: a CPU that stays
    faster or slower than the other for minutes then biases half the passes
    one way and half the other, and the median cancels it.  With a single
    CPU there is nowhere to run the reference alongside, so times are left
    unscaled (scale 1).
    """

    def __init__(self, root: Path, env: dict, p: float):
        self.root, self.env = root, env
        self.work = root / ".bench_work"
        self.work.mkdir(exist_ok=True)
        self.cpus = sorted(os.sched_getaffinity(0))[:2]
        self.ref = hostspeed.Reference(p) if len(self.cpus) == 2 else None

    def scale(self, start: float, end: float) -> float:
        return 1.0 if self.ref is None else self.ref.scale(start, end)

    def launch(self, cmd: list, deadline: float, what: str) -> str:
        """Run ``cmd`` to completion; returns its standard output."""
        with tempfile.TemporaryFile("w+", dir=self.work) as out, \
                tempfile.TemporaryFile("w+", dir=self.work) as err:
            proc = subprocess.Popen(cmd, env=self.env, stdout=out, stderr=err,
                                    text=True)
            try:
                if self.ref is not None:
                    self.cpus.reverse()
                    os.sched_setaffinity(proc.pid, {self.cpus[0]})
                    os.sched_setaffinity(0, {self.cpus[1]})
                    self.ref.run_while(proc, deadline)
                proc.wait(timeout=remaining(deadline))
            except subprocess.TimeoutExpired:
                raise RunError(f"{what} exceeded the time limit") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            out.seek(0)
            err.seek(0)
            if proc.returncode != 0:
                raise RunError(f"{what} failed:\n{err.read()[-4000:]}")
            return out.read()

    def import_time(self, deadline: float) -> tuple[float, float]:
        """One ``import schwave`` in a fresh interpreter: (scaled, raw) seconds."""
        stdout = self.launch([sys.executable, "-c", IMPORT_PROBE,
                              str(self.root / "src")], deadline, "import schwave")
        t0, t1 = map(float, stdout.split()[-2:])
        return (t1 - t0) * self.scale(t0, t1), t1 - t0

    def run_pass(self, workload: str, deadline: float, trace: bool = False,
                 seed: int = 0, spans: Path | None = None):
        """One pass in a fresh worker process; returns (result, seconds taken).

        The result gains ``wall_scaled_s`` and ``import_scaled_s``.
        """
        outdir = self.work / f"pass-{os.getpid()}-{time.monotonic_ns()}"
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(self.root),
               "--workload", workload, "--outdir", str(outdir)]
        if trace:
            cmd += ["--trace", "--seed", str(seed)]
            if spans is not None:
                cmd += ["--spans", str(spans)]
        t0 = time.monotonic()
        try:
            stdout = self.launch(cmd, deadline, f"{workload} pass")
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        took = time.monotonic() - t0
        result = json.loads(stdout.strip().splitlines()[-1])
        result["wall_scaled_s"] = result["wall_s"] * self.scale(*result["pass_span"])
        result["import_scaled_s"] = result["import_s"] * self.scale(*result["import_span"])
        return result, took


def describe(values: list) -> str:
    return f"n={len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def timed_run(host: Host, args, deadline) -> tuple[dict, list, list]:
    """Untraced passes for ``args.seconds``; returns metrics, passes, report lines.

    The import probes come first (they also warm the file cache) and count
    toward ``args.seconds``; passes follow while one more fits.
    """
    start = time.monotonic()
    probes = [host.import_time(deadline) for _ in range(SETUP_PROBES)]
    passes, durations = [], []
    while True:
        result, took = host.run_pass(args.workload, deadline)
        passes.append(result)
        durations.append(took)
        expected = statistics.median(durations)
        if (time.monotonic() - start + expected > args.seconds
                or time.monotonic() + expected > deadline):
            break
    samples = {
        "wall_s": [r["wall_scaled_s"] for r in passes],
        "setup_s": [p[0] for p in probes] + [r["import_scaled_s"] for r in passes],
        "peak_rss_mb": [r["peak_rss_mb"] for r in passes],
    }
    raw = {"wall_s": [r["wall_s"] for r in passes],
           "setup_s": [p[1] for p in probes] + [r["import_s"] for r in passes]}
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    lines = []
    for name, values in samples.items():
        lines.append(f"{name:<16}{metrics[name]:>12.6g} {END_TO_END_UNITS[name]:<4} "
                     f"median ({describe(values)})")
        if name in raw:
            lines.append(f"  unscaled{'':<8}{statistics.median(raw[name]):>12.6g} "
                         f"{END_TO_END_UNITS[name]:<4} median ({describe(raw[name])})")
    return metrics, passes, lines


def traced_run(host: Host, args, deadline) -> tuple[dict, list, list]:
    """One untraced and one traced pass; returns per-layer metrics.

    Per-layer times are unscaled seconds, so that the self times add up to
    the traced pass's wall time.
    """
    plain, _ = host.run_pass(args.workload, deadline)
    spans = host.work / "spans" / f"{args.workload}-seed{args.seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    traced, _ = host.run_pass(args.workload, deadline, trace=True,
                              seed=args.seed, spans=spans)
    metrics = dict(traced["layers"])
    overhead = traced["wall_s"] - plain["wall_s"]
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / plain["wall_s"]
    layer_sum = sum(v for k, v in metrics.items()
                    if k.endswith(".self_s")) + metrics["trace.probe_s"]
    lines = [f"{name:<40}{value:>14.6g} {unit_of(name)}"
             for name, value in sorted(metrics.items())]
    lines.append(f"layer self times + probes = {layer_sum:.6g} s of traced wall "
                 f"{traced['wall_s']:.6g} s; untraced wall {plain['wall_s']:.6g} s; "
                 f"scaled to reference speed {traced['wall_scaled_s']:.6g} s and "
                 f"{plain['wall_scaled_s']:.6g} s; spans written to "
                 f"{spans.relative_to(host.root)}")
    return metrics, [plain, traced], lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not ((root / "src" / "schwave" / "__init__.py").is_file()
            and (root / "setup.py").is_file()):
        print("error: run from the root of a schwave checkout "
              "(src/schwave and setup.py not found)", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    env = dict(os.environ, **BLAS_ENV)
    nproc = len(os.sched_getaffinity(0))
    # Let a termination unwind through Host.launch, which stops its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        build(root, env)
        host = Host(root, env, workloads.exponent(args.workload))
        deadline = time.monotonic() + DEADLINE_S
        measure = traced_run if args.trace else timed_run
        metrics, passes, lines = measure(host, args, deadline)
    except (RunError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    baseline = reference["baseline_failures"]
    ops = [workloads.check_ops(args.workload, r["outcomes"], reference) for r in passes]
    attempted = sum(len(o) for o in ops)
    failures = [(op, tuple(reasons)) for o in ops for op, reasons in o.items() if reasons]
    correct = all(workloads.is_correct(o, baseline) for o in ops)
    env_record = dict(passes[0]["env"], nproc=nproc,
                      host_scaled=host.ref is not None,
                      ref_unit_ms=host.ref.unit_s() * 1e3 if host.ref else None,
                      blas_threads=BLAS_ENV["OPENBLAS_NUM_THREADS"],
                      seed=args.seed, workload=args.workload, trace=args.trace)

    print(f"# schwave benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    for line in lines:
        print(line)
    print(f"{'ops_failed_frac':<16}{len(failures) / attempted:>12.6g} "
          f"     ({len(failures)} failed / {attempted} attempted)")
    for op, reasons in dict.fromkeys(failures):
        known = "baseline" if set(reasons) <= set(baseline.get(op, ())) else "NEW"
        print(f"  failed: {op} [{', '.join(reasons)}] ({known}) in "
              f"{failures.count((op, reasons))} of {len(passes)} passes")

    units = unit_of if args.trace else END_TO_END_UNITS.get
    summary = {
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units(name)}
                    for name, value in metrics.items()},
    }
    results = host.work / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(summary, env=env_record,
                  passes=[{k: r[k] for k in ("wall_s", "wall_scaled_s", "import_s",
                                             "import_scaled_s", "peak_rss_mb",
                                             "exit_codes")} for r in passes])
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
