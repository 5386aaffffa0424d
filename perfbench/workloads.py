"""Workload definitions, their outputs, and the correctness checks.

A workload pass drives schwave through its public CLI entry point
(``schwave.cli.main``) exactly as a user would, writing into a scratch
directory.  ``outcomes`` reads back what the pass wrote; ``check_ops``
compares those outcomes against the reference recorded from the seed
commit (``reference.json``) and returns one verdict per operation.

An operation is one amplitude run, one sweep fit with its bound check, or
one exported table.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# Acceptance sweeps (tests/test_acceptance.py) at M = R = 1, ds = 0.05,
# cfl = 0.9, threshold = 1e6.
SWEEPS = {
    "sweep-p175": ("1.75", "0.6,0.45,0.34,0.25", "120"),
    "sweep-p2": ("2", "2,1.5,1.2,1.0,0.8", "40"),
    "sweep-p15": ("1.5", "0.2,0.141,0.1,0.0707,0.05,0.0354,0.025", "100"),
}
# phi tables on the s-range of the longest p=1.5 run at ds, ds/2 and ds/4.
TABLE_SIZES = (52001, 104001, 208001)
TABLE_RANGE = ("-1300", "1300")
WORKLOADS = tuple(SWEEPS) + ("tables-export",)

# A table may not get less accurate than the seed's by more than this share.
RESIDUAL_SLACK = 1e-3
# Fit slopes are recomputed from bit-identical lifespans; allow only rounding.
SLOPE_RTOL = 1e-9


def exponent(workload: str) -> float:
    """The workload's p; the tables, which run no kernel, take the plain 2."""
    return float(SWEEPS[workload][0]) if workload in SWEEPS else 2.0


def run_pass(cli, workload: str, outdir: Path) -> list[int]:
    """Run one pass of ``workload`` through ``cli.main``; returns exit codes."""
    if workload in SWEEPS:
        p, epsilons, tmax = SWEEPS[workload]
        return [cli.main(["sweep", "--mass", "1", "--radius", "1", "--p", p,
                          "--epsilons", epsilons, "--ds", "0.05",
                          "--tmax", tmax, "--outdir", str(outdir)])]
    return [cli.main(["phi", "--mass", "1", "--smin", TABLE_RANGE[0],
                      "--smax", TABLE_RANGE[1], "--n", str(n),
                      "--out", str(outdir / f"phi_n{n}.csv")])
            for n in TABLE_SIZES]


def outcomes(workload: str, outdir: Path) -> dict:
    """Read back the files one pass wrote into ``outdir``."""
    if workload in SWEEPS:
        return _sweep_outcomes(outdir)
    return {"tables": {str(n): _table_outcome(outdir / f"phi_n{n}.csv")
                       for n in TABLE_SIZES}}


def _sweep_outcomes(outdir: Path) -> dict:
    runs = {}
    with open(outdir / "sweep.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            eps = float(row["epsilon"])
            T_num, dt = float(row["T_num"]), float(row["dt"])
            ver_path = outdir / f"run_eps{eps:g}" / "verification.json"
            ver = json.loads(ver_path.read_text())
            runs[f"{eps:g}"] = {
                "status": row["status"],
                "T_num": T_num,
                # T_num = n * dt: the crossing step identifies the lifespan.
                "step": round(T_num / dt) if np.isfinite(T_num) else None,
                "verified": bool(ver["passed"]),
                "worst_positivity": ver["worst_positivity"],
            }
    fit = json.loads((outdir / "fit.json").read_text())
    return {"runs": runs, "fit": {
        "model": fit["model"], "slope": fit["slope"],
        "n_points": fit["n_points"],
        "bound_passed": bool(fit["bound_check"]["passed"]),
        "monotonic": bool(fit["bound_check"]["monotonic"]),
    }}


def _table_outcome(path: Path) -> dict:
    """Row count, positivity and the max relative residual, from the CSV alone.

    The CSV carries s, phi and the residual D2 phi - (W + A^2) phi, so the
    local equation scale (W + A^2) phi is D2 phi - residual.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    s, phi, res = data[:, 0], data[:, 1], data[:, 3]
    ds = (s[-1] - s[0]) / (len(s) - 1)
    d2 = (phi[:-2] - 2.0 * phi[1:-1] + phi[2:]) / ds**2
    scale = d2 - res[1:-1]
    return {
        "rows": int(len(s)),
        "phi_positive": bool(np.all(np.isfinite(phi)) and np.all(phi > 0.0)),
        "max_rel_residual": float(np.max(np.abs(res[1:-1]) / scale)),
    }


def check_ops(workload: str, got: dict, ref: dict) -> dict:
    """Verdict per operation: op name -> list of failure reasons (empty = pass)."""
    ops = {}
    if workload in SWEEPS:
        for eps, want in ref["runs"].items():
            run = got["runs"].get(eps)
            if run is None:
                ops[f"run eps={eps}"] = ["missing"]
                continue
            reasons = []
            if run["status"] != "blew_up":
                reasons.append("status")
            if not run["verified"]:
                reasons.append("verification")
            if run["step"] != want["step"]:
                reasons.append("lifespan")
            ops[f"run eps={eps}"] = reasons
        fit, want = got["fit"], ref["fit"]
        reasons = []
        if fit["model"] != want["model"] or fit["n_points"] != want["n_points"]:
            reasons.append("model")
        if abs(fit["slope"] - want["slope"]) > SLOPE_RTOL * abs(want["slope"]):
            reasons.append("slope")
        if not (fit["bound_passed"] and fit["monotonic"]):
            reasons.append("bound")
        ops["fit"] = reasons
    else:
        for n, want in ref["tables"].items():
            table = got["tables"][n]
            reasons = []
            if table["rows"] != int(n):
                reasons.append("rows")
            if not table["phi_positive"]:
                reasons.append("positivity")
            if table["max_rel_residual"] > want["max_rel_residual"] * (1 + RESIDUAL_SLACK):
                reasons.append("residual")
            ops[f"table n={n}"] = reasons
    return ops


def is_correct(ops: dict, baseline_failures: dict) -> bool:
    """True when every failure is one the seed already had, for the same reasons."""
    return all(set(reasons) <= set(baseline_failures.get(op, ()))
               for op, reasons in ops.items() if reasons)
