"""Test-function functionals along a trajectory and the inequality chain.

With psi(t, s) = e^{-t/2M} phi(s) the solver monitors

    L(t) = int psi v_t ds                    (linear moment)
    J(t) = int_0^t int h psi |v_tau|^p ds dtau
    F(t) = J/2 + N eps,   N eps = (1/2) int phi v_t(0) ds
    G(t) = L - J/2 - N eps                   (so G + F = L identically)

and the Riccati ratio F'(t) (t+R)^{p-1} / F(t)^p, whose positive lower
bound drives the finite-time blow-up of F.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .coordinates import SpatialGrid
from .potentials import nonlinear_weight_h, regime_split
from .test_function import TestFunctionTable, psi_weight

__all__ = [
    "MonitorSample",
    "MonitorSeries",
    "FunctionalMonitor",
    "linear_moment",
    "nonlinear_spatial_integral",
    "accumulate_nonlinear",
    "InequalityReport",
    "check_inequalities",
    "integral_bound_ratio",
    "hoelder_I_check",
]

_trapz = np.trapezoid if hasattr(np, "trapezoid") else np.trapz


@dataclass(frozen=True)
class MonitorSample:
    """One time slice of the functional chain."""

    t: float
    L: float
    J: float
    G: float
    F: float
    Fprime: float
    ratio_riccati: float

    def e_tM_G(self, M: float) -> float:
        if self.t / M < 709.0:
            return math.exp(self.t / M) * self.G
        return math.copysign(math.inf, self.G) if self.G != 0.0 else 0.0


@dataclass
class MonitorSeries:
    """Monitor samples of one run plus the constants the checks need.

    ``plunge_t`` marks the entry into the last decade of growth before the
    blow-up threshold (max |v_t| >= threshold/10); samples past it are
    recorded but excluded from the inequality checks, where discretization
    error dominates.
    """

    M: float
    R: float
    p: float
    N_eps: float
    samples: list[MonitorSample] = field(default_factory=list)
    crossings: dict[float, float] = field(default_factory=dict)
    snapshots: list[tuple[float, np.ndarray, np.ndarray]] = field(default_factory=list)
    plunge_t: float | None = None

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self.samples])

    def to_csv(self, path) -> None:
        row = ",".join(["%.17g"] * 8) + "\n"
        with open(path, "w", newline="\n") as fh:
            fh.write("t,L,J,G,F,Fprime,ratio_riccati,e_tM_G\n")
            fh.writelines(row % (s.t, s.L, s.J, s.G, s.F, s.Fprime, s.ratio_riccati,
                                 s.e_tM_G(self.M)) for s in self.samples)


def linear_moment(state, table: TestFunctionTable, M: float) -> float:
    """L(t) = e^{-t/2M} * trapezoid(phi * v_t) over the grid."""
    return psi_weight(M, state.t) * float(
        _trapz(table.phi * state.vt, dx=table.grid.ds)
    )


def nonlinear_spatial_integral(state, table: TestFunctionTable, M: float, p: float,
                               h: np.ndarray | None = None) -> float:
    """S(t) = e^{-t/2M} * trapezoid(h * phi * |v_t|^p), the integrand of J."""
    hh = table.grid.h_of_s if h is None else h
    return psi_weight(M, state.t) * float(
        _trapz(hh * table.phi * np.abs(state.vt) ** p, dx=table.grid.ds)
    )


def accumulate_nonlinear(J: float, S_prev: float, S_curr: float, dt: float) -> float:
    """One trapezoidal time slab of the accumulated nonlinear integral."""
    return J + 0.5 * dt * (S_prev + S_curr)


def _riccati_ratio(t: float, F: float, Fprime: float, p: float, R: float) -> float:
    """F'(t+R)^{p-1}/F^p; zero when the nonlinear term vanishes identically."""
    if Fprime == 0.0:
        return 0.0
    if F <= 0.0:
        return math.inf
    return Fprime * (t + R) ** (p - 1.0) / F**p


class FunctionalMonitor:
    """Accumulates J step by step and emits MonitorSamples on demand.

    The solver's hot loop feeds raw window sums (unweighted by ds).
    """

    def __init__(self, grid: SpatialGrid, table: TestFunctionTable, params,
                 h: np.ndarray | None = None):
        self.grid = grid
        self.table = table
        self.params = params
        self.h = grid.h_of_s if h is None else h
        self.J = 0.0
        self.N_eps = 0.0
        self._S_prev = None
        self._t_prev = None

    def start(self, state) -> MonitorSample:
        """Record the data functional and initial integrand; return the t=0 sample."""
        self.N_eps = 0.5 * float(_trapz(self.table.phi * state.vt, dx=self.grid.ds))
        self._S_prev = nonlinear_spatial_integral(
            state, self.table, self.params.M, self.params.p, h=self.h)
        self._t_prev = state.t
        return self.sample_from(state.t, linear_moment(state, self.table, self.params.M),
                                0.5 * self._S_prev)

    def push_sums(self, t: float, sum_phi_vt: float, sum_hphi_vtp: float) -> tuple[float, float]:
        """Advance J to time t from raw window sums; returns (L, Fprime)."""
        w = psi_weight(self.params.M, t) * self.grid.ds
        S = w * sum_hphi_vtp
        self.J = accumulate_nonlinear(self.J, self._S_prev, S, t - self._t_prev)
        self._S_prev = S
        self._t_prev = t
        return w * sum_phi_vt, 0.5 * S

    def sample_from(self, t: float, L: float, Fprime: float) -> MonitorSample:
        F = 0.5 * self.J + self.N_eps
        ratio = _riccati_ratio(t, F, Fprime, self.params.p, self.params.R)
        return MonitorSample(t=t, L=L, J=self.J, G=L - F, F=F, Fprime=Fprime,
                             ratio_riccati=ratio)


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of the four tolerance-qualified inequality checks."""

    positivity_ok: bool          # G >= -tol |L|
    monotone_ok: bool            # e^{t/M} G nondecreasing
    domination_ok: bool          # F <= L + tol |L|
    riccati_ok: bool             # ratio bounded below by a positive constant
    C_emp: float
    worst_positivity: float
    worst_monotone: float
    worst_domination: float
    n_samples: int
    n_used: int

    @property
    def passed(self) -> bool:
        return (self.positivity_ok and self.monotone_ok and self.domination_ok
                and self.riccati_ok)

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({k: getattr(self, k) for k in (
                "positivity_ok", "monotone_ok", "domination_ok", "riccati_ok",
                "C_emp", "worst_positivity", "worst_monotone", "worst_domination",
                "n_samples", "n_used", "passed")}, fh, indent=2)
            fh.write("\n")


def check_inequalities(series: MonitorSeries, M: float, tol: float = 1e-6,
                       exclude_final_frac: float = 0.02) -> InequalityReport:
    """Verify the inequality chain along a run, with additive slack tol*scale.

    All checks stop at the entry into the last decade of growth before the
    blow-up threshold: there the time-trapezoid of the nonlinear integral
    overshoots by orders of magnitude in a handful of steps, so the
    inequalities it feeds are pure discretization noise.  The Riccati floor
    additionally drops the trailing ``exclude_final_frac`` of samples.

    The exponential-weight monotonicity is checked in the rescaled form
    G_{k+1} >= e^{-dt/M} G_k - slack, which is the same inequality with both
    sides multiplied by e^{-t_{k+1}/M}; the naive form overflows for long runs.
    """
    t_all = series.column("t")
    n_samples = len(t_all)
    if n_samples == 0:
        raise ValueError("empty monitor series")
    if series.plunge_t is not None:
        keep = t_all < series.plunge_t
    else:
        keep = np.ones(n_samples, dtype=bool)
    t = t_all[keep]
    L = series.column("L")[keep]
    G = series.column("G")[keep]
    F = series.column("F")[keep]
    ratio = series.column("ratio_riccati")[keep]
    n = len(t)
    if n == 0:
        raise ValueError("no samples before the blow-up plunge")
    slack = tol * np.abs(L)

    pos_margin = G + slack
    positivity_ok = bool(np.all(pos_margin >= 0.0))

    decay = np.exp(-(t[1:] - t[:-1]) / M)
    mono_margin = G[1:] - decay * G[:-1] + np.maximum(slack[1:], slack[:-1])
    monotone_ok = bool(np.all(mono_margin >= 0.0)) if n > 1 else True

    dom_margin = L + slack - F
    domination_ok = bool(np.all(dom_margin >= 0.0))

    n_used = max(1, n - max(1, math.ceil(exclude_final_frac * n))) if n > 1 else 1
    C_emp = float(np.min(ratio[:n_used]))
    # A vanishing ratio throughout means the nonlinear term is absent
    # (linear or zero-data run); the floor is then vacuous.
    vacuous = bool(np.all(ratio[:n_used] == 0.0))
    riccati_ok = vacuous or bool(C_emp > 0.0 and np.isfinite(C_emp))

    return InequalityReport(
        positivity_ok=positivity_ok,
        monotone_ok=monotone_ok,
        domination_ok=domination_ok,
        riccati_ok=riccati_ok,
        C_emp=C_emp,
        worst_positivity=float(np.min(pos_margin)),
        worst_monotone=float(np.min(mono_margin)) if n > 1 else math.inf,
        worst_domination=float(np.min(dom_margin)),
        n_samples=n_samples,
        n_used=n_used,
    )


def _panel_sum(f, cuts, width: float) -> float:
    """Integral of the vectorised f over [cuts[0], cuts[-1]].

    Each interval between consecutive cuts is split into equal panels no
    wider than ``width``, each integrated by 16-point Gauss-Legendre.
    """
    total = 0.0
    nodes, weights = np.polynomial.legendre.leggauss(16)
    for left, right in zip(cuts[:-1], cuts[1:]):
        npan = max(1, int(math.ceil((right - left) / width)))
        edges = np.linspace(left, right, npan + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        halfw = 0.5 * (edges[1:] - edges[:-1])
        pts = (mid[:, None] + halfw[:, None] * nodes[None, :]).ravel()
        wts = (halfw[:, None] * weights[None, :]).ravel()
        total += float(wts @ f(pts))
    return total


def integral_bound_ratio(alpha: float, beta: float, L: float, t: float) -> float:
    """Ratio of int_0^{t+L} (1+s)^a e^{-b(t-s)} ds to (t+L)^a.

    Integrated in the shifted variable u = t - s so the exponential factor
    never exceeds e^{beta L}.  Past u = 40/beta it is below e^{-40} of its
    value at u = 0 and the rest of the range is dropped; panels no wider
    than min(1, 1/beta) resolve the exponential.
    """
    if alpha < 0 or beta <= 0 or L <= 0 or t < 0:
        raise ValueError("need alpha >= 0, beta > 0, L > 0, t >= 0")
    val = _panel_sum(lambda u: (1.0 + t - u) ** alpha * np.exp(-beta * u),
                     [-L, min(t, 40.0 / beta)], min(1.0, 1.0 / beta))
    return val / (t + L) ** alpha


def hoelder_I_check(M: float, p: float, R: float, t: float) -> float:
    """Ratio I(t)/(t+R) with I = int_{|s|<=t+R} h^{-1/(p-1)} e^{(s-t)/2M} ds.

    Uses the exact weight h, not its asymptotic surrogate.  For p >= 3/2 the
    ratio stays bounded in t; for p < 3/2 the horizon end makes it grow, and
    the growing value is simply reported.
    """
    if not 1.0 < p <= 2.0:
        raise ValueError(f"exponent must lie in (1, 2], got p={p}")
    if t < 0 or R <= 0:
        raise ValueError("need t >= 0 and R > 0")
    a, b = -(t + R), t + R
    split = regime_split(M)

    def integrand(s):
        h = np.asarray(nonlinear_weight_h(M, p, s))
        return h ** (-1.0 / (p - 1.0)) * np.exp((s - t) / (2.0 * M))

    cuts = [a] + ([split] if a < split < b else []) + [b]
    # Panels no wider than 2M resolve the exponential scale of h.
    return _panel_sum(integrand, cuts, 2.0 * M) / (t + R)
