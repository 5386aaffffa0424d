"""Closed forms of the comparison ODE H' = C |H|^p / (t+R)^{p-1} and lifespans.

For 1 < p < 2 the solution from H(0) = N eps is

    H(t) = [ (N eps)^{1-p} + Ct R^{2-p} - Ct (t+R)^{2-p} ]^{-1/(p-1)},
    Ct = C (p-1) / (2-p),

blowing up when the bracket vanishes; at p = 2 the bracket degenerates to
(N eps)^{-1} - C ln((t+R)/R).  Any trajectory satisfying the differential
*inequality* with the same constant dominates H, so its blow-up time is
bounded by H's, which yields the lifespan bounds

    T <= C1 eps^{-(p-1)/(2-p)}   (3/2 <= p < 2),
    T <= exp(C2 / eps)           (p = 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functionals import MonitorSeries

__all__ = [
    "RiccatiParams",
    "H_closed_form",
    "H_blowup_time",
    "lifespan_bound",
    "ComparisonReport",
    "comparison_params",
    "comparison_check",
]

# Below this distance from p = 2 the power-law closed form is numerically
# degenerate and the logarithmic one is used instead.
_P2_GUARD = 1e-6


@dataclass(frozen=True)
class RiccatiParams:
    """Comparison-ODE parameters; N is the data functional per unit amplitude."""

    p: float
    N: float
    epsilon: float
    C: float
    R: float

    def __post_init__(self):
        if not 1.0 < self.p <= 2.0:
            raise ValueError(f"exponent must lie in (1, 2], got p={self.p}")
        for name in ("N", "epsilon", "C", "R"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def C_tilde(self) -> float:
        if 2.0 - self.p < _P2_GUARD:
            raise ValueError("C_tilde is undefined at p = 2")
        return self.C * (self.p - 1.0) / (2.0 - self.p)

    @property
    def H0(self) -> float:
        return self.N * self.epsilon


def _is_log_branch(p: float) -> bool:
    return 2.0 - p < _P2_GUARD


def H_closed_form(rp: RiccatiParams, t):
    """Exact comparison solution H(t); raises past the blow-up time."""
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0.0):
        raise ValueError("time must be nonnegative")
    if _is_log_branch(rp.p):
        bracket = 1.0 / rp.H0 - rp.C * np.log((tt + rp.R) / rp.R)
        if np.any(bracket <= 0.0):
            raise ValueError("requested time at or beyond the blow-up time")
        out = 1.0 / bracket
    else:
        ct = rp.C_tilde
        bracket = (rp.H0 ** (1.0 - rp.p) + ct * rp.R ** (2.0 - rp.p)
                   - ct * (tt + rp.R) ** (2.0 - rp.p))
        if np.any(bracket <= 0.0):
            raise ValueError("requested time at or beyond the blow-up time")
        out = bracket ** (-1.0 / (rp.p - 1.0))
    return float(out) if out.ndim == 0 else out


def H_blowup_time(rp: RiccatiParams) -> float:
    """Time at which the closed-form bracket vanishes."""
    if _is_log_branch(rp.p):
        return rp.R * math.expm1(1.0 / (rp.C * rp.H0))
    q = 2.0 - rp.p
    return (rp.R**q + rp.H0 ** (1.0 - rp.p) / rp.C_tilde) ** (1.0 / q) - rp.R


def lifespan_bound(p: float, epsilon: float, constant: float) -> float:
    """Lifespan upper-bound shape with a supplied constant.

    Power law C1 eps^{-(p-1)/(2-p)} for 3/2 <= p < 2, exponential
    exp(C2 / eps) at p = 2.
    """
    if not 1.5 <= p <= 2.0:
        raise ValueError(f"bound shape only holds for p in [3/2, 2], got p={p}")
    if epsilon <= 0 or constant <= 0:
        raise ValueError("epsilon and constant must be positive")
    if _is_log_branch(p):
        return math.exp(constant / epsilon)
    return constant * epsilon ** (-(p - 1.0) / (2.0 - p))


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of the F-dominates-H ordering check."""

    passed: bool
    ordering_ok: bool
    lifespan_ok: bool
    T_H: float
    T_num: float
    worst_margin: float
    n_checked: int


def comparison_params(series: MonitorSeries, C_emp: float) -> RiccatiParams:
    """Comparison parameters fitted to a run: C = C_emp and H(0) = F(0) = N eps.

    The series' N_eps carries the amplitude, so epsilon is folded in by
    fixing epsilon = 1 and N = N_eps; only the product N*eps enters H.
    """
    return RiccatiParams(p=series.p, N=series.N_eps, epsilon=1.0, C=C_emp,
                         R=series.R)


def comparison_check(series: MonitorSeries, C_emp: float,
                     T_num: float | None = None,
                     tol: float = 3e-6, slack: float = 0.05) -> ComparisonReport:
    """Check F(t) >= H(t) pointwise and T_num <= H's blow-up time.

    H is built from the run's own fitted floor constant, so the trajectory
    must dominate it; ``tol`` is additive slack scaled by the local
    magnitude (three times the quadrature tolerance of F), ``slack`` the
    relative allowance on the lifespan ordering.
    """
    rp = comparison_params(series, C_emp)
    T_H = H_blowup_time(rp)
    t = series.column("t")
    F = series.column("F")
    inside = t < T_H * (1.0 - 1e-9)
    H = np.asarray(H_closed_form(rp, t[inside]))
    scale = np.maximum(np.abs(F[inside]), np.abs(H))
    margins = F[inside] - H + tol * scale
    ordering_ok = bool(np.all(margins >= 0.0))
    if T_num is not None and math.isfinite(T_num):
        lifespan_ok = bool(T_num <= T_H * (1.0 + slack))
    else:
        lifespan_ok = True
    return ComparisonReport(
        passed=ordering_ok and lifespan_ok,
        ordering_ok=ordering_ok,
        lifespan_ok=lifespan_ok,
        T_H=T_H,
        T_num=T_num if T_num is not None else math.nan,
        worst_margin=float(margins.min()) if margins.size else math.inf,
        n_checked=int(inside.sum()),
    )
