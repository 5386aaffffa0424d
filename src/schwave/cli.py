"""Command-line interface.

Subcommands:
    check-asymptotics   empirical two-regime bounds for the nonlinear weight h
    phi                 test-function table as CSV
    solve               one run: lifespan.json, monitor.csv, verification report
    riccati             comparison-ODE table and blow-up time
    sweep               amplitude sweep from a key=value config file
    fit                 refit lifespans from an existing sweep.csv
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from . import backend
from .coordinates import ModelParams, build_grid, sized_grid
from .experiments import (
    _CONFIG_KEYS,
    SweepAbort,
    config_from_mapping,
    emit_outputs,
    fit_records,
    parse_config_file,
    read_records,
    sweep,
    target_slope,
    upper_bound_check,
)
from .functionals import check_inequalities
from .pde_solver import (
    STATUS_BLEW_UP,
    STATUS_BOUNDARY_CONTACT,
    physical_field_u,
    run_until,
)
from .potentials import verify_h_asymptotics
from .riccati import H_blowup_time, H_closed_form, RiccatiParams, comparison_check
from .test_function import solve_phi


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schwave",
        description="Blow-up laboratory for a derivative-nonlinear wave "
                    "equation outside a Schwarzschild black hole "
                    f"(stepping backend: {backend.BACKEND})")
    sub = parser.add_subparsers(required=True)

    q = sub.add_parser("check-asymptotics",
                       help="two-regime ratio bounds for the weight h")
    q.add_argument("--mass", type=float, default=1.0)
    q.add_argument("--p", type=float, default=2.0)
    q.add_argument("--smin", type=float, default=-60.0)
    q.add_argument("--smax", type=float, default=1e4)
    q.set_defaults(func=_cmd_asymptotics)

    q = sub.add_parser("phi", help="write the test-function table as CSV")
    q.add_argument("--mass", type=float, default=1.0)
    q.add_argument("--growth", type=float, default=None,
                   help="growth rate A (default 1/2M)")
    q.add_argument("--smin", type=float, default=-60.0)
    q.add_argument("--smax", type=float, default=60.0)
    q.add_argument("--n", type=int, default=2401)
    q.add_argument("--out", type=Path, default=Path("phi.csv"))
    q.set_defaults(func=_cmd_phi)

    q = sub.add_parser("solve", help="run one Cauchy problem to blow-up")
    q.add_argument("--mass", type=float, default=1.0)
    q.add_argument("--p", type=float, default=2.0)
    q.add_argument("--eps", type=float, required=True)
    q.add_argument("--radius", type=float, default=1.0)
    q.add_argument("--ds", type=float, default=0.05)
    q.add_argument("--cfl", type=float, default=0.9)
    q.add_argument("--tmax", type=float, default=100.0)
    q.add_argument("--threshold", type=float, default=1e6,
                   help="blow-up threshold as a multiple of the initial max |v_t|")
    q.add_argument("--snapshots", type=str, default="",
                   help="comma-separated times for field_t<t>.csv snapshots")
    q.add_argument("--out", type=Path, default=Path("run_out"))
    q.set_defaults(func=_cmd_solve)

    q = sub.add_parser("riccati", help="comparison-ODE table and blow-up time")
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--N", type=float, default=1.0)
    q.add_argument("--eps", type=float, required=True)
    q.add_argument("--C", type=float, default=1.0)
    q.add_argument("--R", type=float, default=1.0)
    q.add_argument("--rows", type=int, default=12)
    q.set_defaults(func=_cmd_riccati)

    q = sub.add_parser("sweep", help="amplitude sweep from a config file")
    q.add_argument("--config", type=Path, default=None)
    q.add_argument("--mass", type=float, default=None)
    q.add_argument("--p", type=float, default=None)
    q.add_argument("--radius", type=float, default=None)
    q.add_argument("--epsilons", type=str, default=None,
                   help="comma-separated decreasing amplitudes")
    q.add_argument("--ds", type=float, default=None)
    q.add_argument("--cfl", type=float, default=None)
    q.add_argument("--threshold", type=float, default=None)
    q.add_argument("--tmax", type=float, default=None)
    q.add_argument("--outdir", type=str, default=None)
    q.set_defaults(func=_cmd_sweep)

    q = sub.add_parser("fit", help="refit lifespans from an existing sweep.csv")
    q.add_argument("--csv", type=Path, required=True)
    q.add_argument("--outdir", type=Path, default=None,
                   help="default: directory containing the csv")
    q.add_argument("--slack", type=float, default=1.5)
    q.set_defaults(func=_cmd_fit)

    return parser


def _cmd_asymptotics(args) -> int:
    res = verify_h_asymptotics(args.mass, args.p, args.smin, args.smax)
    print(f"# weight asymptotics, M={args.mass} p={args.p}, split s = {res.split:.6g}")
    print(f"{'regime':<22}{'inf':>14}{'sup':>14}")
    for name, lo, hi in res.as_rows():
        print(f"{name:<22}{lo:>14.6g}{hi:>14.6g}")
    return 0


def _cmd_phi(args) -> int:
    params = ModelParams(M=args.mass, p=2.0, epsilon=1.0, R=1.0)
    grid = build_grid(params, args.smin, args.smax, args.n)
    A = args.growth if args.growth is not None else 1.0 / (2.0 * args.mass)
    table = solve_phi(grid, A)
    resid = np.zeros(grid.n)
    resid[1:-1] = table.residual()
    decay = np.exp(-A * grid.s) * table.phi
    _write_table(args.out, "s,phi,dphi,residual,exp_minus_As_phi",
                 (grid.s, table.phi, table.dphi, resid, decay))
    print(f"wrote {args.out} (A={A:.6g}, n={grid.n}, "
          f"max rel residual {table.max_relative_residual():.3e})")
    return 0


def _cmd_solve(args) -> int:
    params = ModelParams(M=args.mass, p=args.p, epsilon=args.eps, R=args.radius)
    grid = sized_grid(params, args.tmax, args.ds)
    threshold = args.threshold * args.eps
    snaps = tuple(float(tok) for tok in args.snapshots.split(",") if tok.strip())
    record, series = run_until(params, grid, threshold, args.tmax,
                               cfl=args.cfl, snapshot_times=snaps)
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "lifespan.json", "w") as fh:
        json.dump({k: getattr(record, k) for k in (
            "epsilon", "p", "M", "R", "T_num", "threshold", "ds", "dt",
            "status")}, fh, indent=2)
        fh.write("\n")
    series.to_csv(args.out / "monitor.csv")
    report = check_inequalities(series, params.M)
    report.to_json(args.out / "verification.json")
    comparison = comparison_check(series, report.C_emp, T_num=record.T_num)
    for t_snap, v, vt in series.snapshots:
        _write_table(args.out / f"field_t{t_snap:g}.csv", "s,v,vt,u",
                     (grid.s, v, vt, physical_field_u(v, grid)))
    print(f"status={record.status} T_num={record.T_num:.6g} "
          f"C_emp={report.C_emp:.4g} checks_passed={report.passed} "
          f"comparison_passed={comparison.passed}")
    valid = record.status != STATUS_BOUNDARY_CONTACT
    return 0 if (report.passed and comparison.passed and valid) else 1


def _write_table(path, header: str, columns) -> None:
    """CSV of equal-length float64 arrays, every value as %.17g."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(row % r for r in zip(*columns))


def _cmd_riccati(args) -> int:
    rp = RiccatiParams(p=args.p, N=args.N, epsilon=args.eps, C=args.C, R=args.R)
    T = H_blowup_time(rp)
    print(f"# H' = C|H|^p/(t+R)^(p-1), H(0) = {rp.H0:.6g}")
    print(f"# blow-up time T = {T:.10g}")
    print(f"{'t':>16}{'H(t)':>18}")
    for frac in np.linspace(0.0, 0.99, args.rows):
        t = frac * T
        print(f"{t:>16.8g}{H_closed_form(rp, t):>18.8g}")
    return 0


def _cmd_sweep(args) -> int:
    raw = parse_config_file(args.config) if args.config else {}
    overrides = {k: getattr(args, k) for k in _CONFIG_KEYS}
    config = config_from_mapping(raw, overrides)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Drop an earlier sweep's outputs from a reused outdir; keep other files.
    for name in ("sweep.csv", "fit.json", "plotdata_loglog.csv", "plotdata_exp.csv"):
        (out / name).unlink(missing_ok=True)
    for run_dir in filter(Path.is_dir, out.glob("run_eps*")):
        shutil.rmtree(run_dir)

    records, reports = [], []

    def collect(record, series):
        records.append(record)
        run_dir = out / f"run_eps{record.epsilon:g}"
        run_dir.mkdir(parents=True, exist_ok=True)
        series.to_csv(run_dir / "monitor.csv")
        rep = check_inequalities(series, config.M)
        rep.to_json(run_dir / "verification.json")
        reports.append(rep)
        lo = series.crossings.get(record.threshold * 1e-3)
        hi = series.crossings.get(record.threshold)
        shift = (f"lambda_shift={(hi - lo) / hi * 100:.2f}%"
                 if lo is not None and hi is not None else "lambda_shift=n/a")
        print(f"eps={record.epsilon:<8g} status={record.status:<14} "
              f"T_num={record.T_num:<12.6g} C_emp={rep.C_emp:.4g} "
              f"checks={'pass' if rep.passed else 'FAIL'} {shift}")

    try:
        sweep(config, collect=collect)
    except SweepAbort as exc:  # the finished runs still get sweep.csv and a fit
        eps = config.epsilon_list[len(records)]
        print(f"schwave: sweep stopped at epsilon={eps:g}: {exc}", file=sys.stderr)
    fit, bound = _fit(records, config.p)
    emit_outputs(records, fit, bound, out)
    if fit is None:
        return 1
    if fit.model == "power_law":
        print(f"fit: slope={fit.slope:.4g} (target {target_slope(config.p):.4g}) "
              f"r2={fit.r_squared:.4f}")
    else:
        print(f"fit: C2 estimate={fit.slope:.4g} r2={fit.r_squared:.4f}")
    print(f"bound check: passed={bound.passed} max_margin={bound.max_margin:.3g} "
          f"monotonic={bound.monotonic}")
    all_blew = [r.status for r in records] == [STATUS_BLEW_UP] * len(config.epsilon_list)
    verified = all(rep.passed for rep in reports)
    return 0 if (all_blew and verified and bound.passed and bound.monotonic) else 1


def _fit(records, p: float, slack: float = 1.5):
    """Lifespan fit and bound check; (None, None), with the shortfall on
    stderr, when too few runs blew up to fit."""
    try:
        fit = fit_records(records, p)
    except ValueError as exc:
        print(f"schwave: no fit: {exc}", file=sys.stderr)
        return None, None
    return fit, upper_bound_check(records, fit, slack=slack)


def _cmd_fit(args) -> int:
    records = read_records(args.csv)
    if not records:
        print("no records in csv", file=sys.stderr)
        return 1
    fit, bound = _fit(records, records[0].p, slack=args.slack)
    if fit is None:
        return 1
    out = args.outdir if args.outdir is not None else args.csv.parent
    emit_outputs(records, fit, bound, out)
    print(f"model={fit.model} slope={fit.slope:.6g} intercept={fit.intercept:.6g} "
          f"r2={fit.r_squared:.4f} bound_passed={bound.passed}")
    return 0 if bound.passed else 1


if __name__ == "__main__":
    sys.exit(main())
