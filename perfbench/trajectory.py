#!/usr/bin/env python3
"""Run the benchmark over several seeds per workload and summarise the spread.

Run from the root of a schwave checkout:

    python3 perfbench/trajectory.py --seeds 10 [--workloads sweep-p2,...]
                                    [--traced] [--record LABEL]

For each workload this makes one run per seed (1..N) with the command and
``run_seconds`` of BENCHMARK.json.  For every end-to-end metric it prints
the median, the quartiles as ``statistics.quantiles(values, n=4)`` gives
them, and the spread (q3 - q1) / median next to the metric's bound.
``--traced`` adds one traced run per workload (seed 1) for the per-layer
split.  ``--record LABEL`` appends the summary to perfbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-4000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(Path(".bench_work", "results",
                             f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return summary, record["env"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: those in BENCHMARK.json)")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--record", metavar="LABEL", default=None)
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    entry = {"label": args.record, "recorded": time.strftime("%Y-%m-%d"),
             "run_seconds": bench["run_seconds"], "seeds": args.seeds,
             "workloads": {}}
    for workload in names:
        values: dict[str, list] = {}
        attempted = failed = 0
        correct = True
        for seed in range(1, args.seeds + 1):
            summary, env = run_once(bench, workload, seed, 0)
            attempted += summary["attempted"]
            failed += summary["failed"]
            correct &= summary["correct"]
            for name, metric in summary["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        entry["env"] = {k: v for k, v in env.items()
                        if k not in ("seed", "workload", "trace")}
        row = {"correct": correct, "attempted": attempted, "failed": failed,
               "ops_failed_frac": failed / attempted, "metrics": {}}
        print(f"{workload}: correct={correct} ops_failed_frac={failed}/{attempted}")
        for name, vals in values.items():
            q1, mid, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / mid
            row["metrics"][name] = {"median": mid, "q1": q1, "q3": q3,
                                    "spread": spread, "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  ABOVE bound/3"
            print(f"  {name:<14} median {mid:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bound}{flag}")
        if args.traced:
            summary, _ = run_once(bench, workload, 1, 1)
            row["layers"] = {name: m["value"] for name, m in summary["metrics"].items()}
        entry["workloads"][workload] = row

    if args.record:
        path = HERE / "trajectory.json"
        history = json.loads(path.read_text()) if path.exists() else []
        history.append(entry)
        path.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
