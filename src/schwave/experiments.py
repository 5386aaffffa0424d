"""Batch driver: amplitude sweeps, lifespan fits, and report emission.

A sweep runs one solve per amplitude on a grid sized for a forecast horizon
(four times the previous lifespan, since lifespans grow quickly as the
amplitude shrinks), fits the measured lifespans against the theoretical
scaling shape, and checks that every measurement respects the fitted upper
bound.  Everything is deterministic: identical configs produce bit-identical
output files.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coordinates import ModelParams, sized_grid
from .functionals import MonitorSeries
from .pde_solver import (
    STATUS_BLEW_UP,
    STATUS_BOUNDARY_CONTACT,
    STATUS_REACHED_TMAX,
    LifespanRecord,
    run_until,
)
from .riccati import _is_log_branch

__all__ = [
    "SweepConfig",
    "SweepAbort",
    "FitResult",
    "sweep",
    "fit_power_law",
    "fit_exponential",
    "fit_records",
    "target_slope",
    "BoundReport",
    "upper_bound_check",
    "emit_outputs",
    "read_records",
    "parse_config_file",
]

# Warn when a forecast run would exceed this many time steps.
STEP_BUDGET = 10_000_000

_CONFIG_KEYS = ("mass", "p", "radius", "epsilons", "ds", "cfl", "threshold",
                "tmax", "outdir")


class SweepAbort(RuntimeError):
    """A sweep run's grid cannot be built, or its signal touched the boundary."""


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: model dials, decreasing amplitude list, and numerics.

    ``threshold`` is the blow-up threshold as a multiple of the initial
    max |v_t|; ``tmax`` is the horizon for the first (largest) amplitude,
    later runs forecast four times the previous lifespan.
    """

    M: float
    p: float
    R: float
    epsilon_list: tuple
    ds: float = 0.05
    cfl: float = 0.9
    threshold: float = 1e6
    t_max: float = 50.0
    out_dir: str = "sweep_out"
    exploratory: bool = False

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilon_list)
        object.__setattr__(self, "epsilon_list", eps)
        if not eps:
            raise ValueError("epsilon_list must not be empty")
        if any(e <= 0 for e in eps):
            raise ValueError("amplitudes must be positive")
        if len(set(eps)) != len(eps):
            raise ValueError("duplicate amplitudes would degenerate the fit")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("amplitudes must be strictly decreasing")
        if self.ds <= 0 or not 0 < self.cfl < 1 or self.threshold <= 1:
            raise ValueError("invalid numerics (need ds > 0, 0 < cfl < 1, threshold > 1)")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")

    def params_for(self, epsilon: float) -> ModelParams:
        return ModelParams(M=self.M, p=self.p, epsilon=epsilon, R=self.R,
                           exploratory=self.exploratory)


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of measured lifespans against a scaling shape."""

    model: str  # "power_law" | "exponential"
    slope: float
    intercept: float
    r_squared: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 3:
            raise ValueError("a fit needs at least 3 points")
        if self.model not in ("power_law", "exponential"):
            raise ValueError(f"unknown fit model {self.model!r}")


def sweep(config: SweepConfig, collect=None) -> list[LifespanRecord]:
    """Run one solve per amplitude; returns the lifespan records in order.

    Grid horizon for run i is four times the previous measured lifespan
    (the first uses config.t_max); a run that still reaches t_max is
    retried with a four-fold horizon up to three times.  ``collect`` is an
    optional callable (record, series) invoked after each run.
    """
    records: list[LifespanRecord] = []
    t_forecast = config.t_max
    for eps in config.epsilon_list:
        params = config.params_for(eps)
        record, series = _run_one(params, config, t_forecast)
        records.append(record)
        if collect is not None:
            collect(record, series)
        if record.status == STATUS_BLEW_UP:
            t_forecast = 4.0 * record.T_num
    _warn_monotonicity(records)
    return records


def _run_one(params: ModelParams, config: SweepConfig,
             t_forecast: float) -> tuple[LifespanRecord, MonitorSeries]:
    t_max = t_forecast
    for _ in range(4):
        steps = t_max / (config.cfl * config.ds)
        if steps > STEP_BUDGET:
            warnings.warn(
                f"forecast horizon t_max={t_max:.3g} needs ~{steps:.2g} steps "
                f"(budget {STEP_BUDGET:.0e}); epsilon={params.epsilon} may be "
                "infeasible at this resolution", stacklevel=2)
        try:
            grid = sized_grid(params, t_max, config.ds)
        except ValueError as exc:
            raise SweepAbort(f"no grid for t_max={t_max:.4g} at epsilon="
                             f"{params.epsilon}: {exc}") from exc
        threshold = config.threshold * params.epsilon  # initial max |v_t| = eps
        # Record the crossing of threshold/1000 too (insensitivity probe).
        record, series = run_until(params, grid, threshold, t_max,
                                   cfl=config.cfl,
                                   aux_thresholds=(threshold * 1e-3,))
        if record.status == STATUS_BOUNDARY_CONTACT:
            raise SweepAbort(
                f"boundary contact at epsilon={params.epsilon}; enlarge the "
                f"grid (t_max forecast {t_max:.3g} was undersized)")
        if record.status != STATUS_REACHED_TMAX:
            return record, series
        t_max *= 4.0
    return record, series


def _warn_monotonicity(records: list[LifespanRecord]) -> None:
    blew = [r for r in records if r.status == STATUS_BLEW_UP]
    for a, b in zip(blew, blew[1:]):
        # Lists are ordered by decreasing amplitude; lifespans must grow.
        if b.T_num <= a.T_num:
            warnings.warn(
                f"lifespan not increasing as amplitude decreases "
                f"({a.epsilon}->{b.epsilon}); run is likely under-resolved",
                stacklevel=3)


def _blew_up(records) -> list[LifespanRecord]:
    return [r for r in records if r.status == STATUS_BLEW_UP]


def _fit_ln_T(model: str, records, x_of) -> FitResult:
    """OLS of ln T on x_of(eps) over the blown-up records."""
    good = _blew_up(records)
    if len(good) < 3:
        raise ValueError(f"need >= 3 blown-up records, have {len(good)}")
    x = x_of(np.array([r.epsilon for r in good]))
    y = np.log([r.T_num for r in good])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return FitResult(model=model, slope=float(slope), intercept=float(intercept),
                     r_squared=r2, n_points=len(good))


def fit_power_law(records) -> FitResult:
    """OLS on (ln eps, ln T): slope targets -(p-1)/(2-p), intercept is ln C1."""
    return _fit_ln_T("power_law", records, np.log)


def fit_exponential(records) -> FitResult:
    """OLS on (1/eps, ln T): slope estimates C2."""
    return _fit_ln_T("exponential", records, lambda eps: 1.0 / eps)


def fit_records(records, p: float) -> FitResult:
    """Pick the fit model from the exponent: power law below 2, else exponential."""
    return fit_exponential(records) if _is_log_branch(p) else fit_power_law(records)


def target_slope(p: float) -> float:
    """Theoretical log-log lifespan slope -(p-1)/(2-p) for p < 2."""
    if not 1.0 < p < 2.0:
        raise ValueError(f"power-law target only exists for p in (1, 2), got {p}")
    return -(p - 1.0) / (2.0 - p)


@dataclass(frozen=True)
class BoundReport:
    """Check that every lifespan sits under the fitted bound shape."""

    passed: bool
    max_margin: float       # worst T_num / bound ratio
    slack: float
    monotonic: bool
    n_records: int


def upper_bound_check(records, fit: FitResult, slack: float = 1.5) -> BoundReport:
    """Verify T_num <= fitted-bound(eps) * (1 + slack) for every record."""
    good = _blew_up(records)
    amp = np.array([r.epsilon for r in good])
    T = np.array([r.T_num for r in good])
    if fit.model == "power_law":
        bound = np.exp(fit.intercept) * amp**fit.slope
    else:
        bound = np.exp(fit.intercept) * np.exp(fit.slope / amp)
    margin = float(np.max(T / bound)) if good else 0.0
    monotonic = all(b.T_num > a.T_num for a, b in zip(good, good[1:]))
    return BoundReport(passed=margin <= 1.0 + slack, max_margin=margin,
                       slack=slack, monotonic=monotonic, n_records=len(good))


_CSV_HEADER = "epsilon,p,M,R,ds,dt,threshold,T_num,status"


def emit_outputs(records, fit: FitResult | None, bound: BoundReport | None,
                 out_dir) -> None:
    """Write sweep.csv, fit.json, and the fit-ready plot-data series.

    With no fit (too few runs blew up) only sweep.csv is written.  Plain
    text, '.' decimal separator, newline-terminated rows; floats use 17
    significant digits so a parse round-trips exactly.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", newline="\n") as fh:
        fh.write(_CSV_HEADER + "\n")
        for r in records:
            row = (r.epsilon, r.p, r.M, r.R, r.ds, r.dt, r.threshold, r.T_num)
            fh.write(",".join(f"{v:.17g}" for v in row) + f",{r.status}\n")
    if fit is None:
        return

    entry = {
        "model": fit.model, "slope": fit.slope, "intercept": fit.intercept,
        "r_squared": fit.r_squared, "n_points": fit.n_points,
    }
    if fit.model == "power_law":
        entry["target_slope"] = target_slope(records[0].p)
    else:
        entry["target"] = "positive slope (exponential lifespan growth)"
    entry["bound_check"] = {
        "passed": bound.passed, "max_margin": bound.max_margin,
        "slack": bound.slack, "monotonic": bound.monotonic,
    }
    with open(out / "fit.json", "w") as fh:
        json.dump(entry, fh, indent=2)
        fh.write("\n")

    good = _blew_up(records)
    if fit.model == "power_law":
        name, column, x = "plotdata_loglog.csv", "ln_epsilon", math.log
    else:
        name, column, x = "plotdata_exp.csv", "inv_epsilon", lambda eps: 1.0 / eps
    with open(out / name, "w", newline="\n") as fh:
        fh.write(f"{column},ln_T\n")
        for r in good:
            fh.write(f"{x(r.epsilon):.17g},{math.log(r.T_num):.17g}\n")


def read_records(csv_path) -> list[LifespanRecord]:
    """Parse a sweep.csv back into records (exact round-trip)."""
    records = []
    with open(csv_path) as fh:
        header = fh.readline().strip()
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected sweep.csv header: {header!r}")
        for line in fh:
            parts = line.strip().split(",")
            vals = [float(v) for v in parts[:-1]]
            records.append(LifespanRecord(
                epsilon=vals[0], p=vals[1], M=vals[2], R=vals[3], ds=vals[4],
                dt=vals[5], threshold=vals[6], T_num=vals[7], status=parts[-1]))
    return records


def parse_config_file(path) -> dict:
    """Parse a flat key=value sweep config; keys are fixed, '#' comments allowed."""
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r} "
                                 f"(valid: {', '.join(_CONFIG_KEYS)})")
            if key in raw:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = value
    return raw


def config_from_mapping(raw: dict, overrides: dict | None = None) -> SweepConfig:
    """Build a SweepConfig from parsed file values plus CLI overrides."""
    merged = dict(raw)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    missing = [k for k in ("mass", "p", "radius", "epsilons") if k not in merged]
    if missing:
        raise ValueError(f"missing config keys: {', '.join(missing)}")
    eps = merged["epsilons"]
    if isinstance(eps, str):
        eps = tuple(float(tok) for tok in eps.split(",") if tok.strip())
    kwargs = dict(
        M=float(merged["mass"]), p=float(merged["p"]), R=float(merged["radius"]),
        epsilon_list=tuple(eps),
    )
    if "ds" in merged:
        kwargs["ds"] = float(merged["ds"])
    if "cfl" in merged:
        kwargs["cfl"] = float(merged["cfl"])
    if "threshold" in merged:
        kwargs["threshold"] = float(merged["threshold"])
    if "tmax" in merged:
        kwargs["t_max"] = float(merged["tmax"])
    if "outdir" in merged:
        kwargs["out_dir"] = str(merged["outdir"])
    return SweepConfig(**kwargs)
