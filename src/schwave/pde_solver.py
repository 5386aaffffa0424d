"""Explicit leapfrog solver for v_tt - v_ss + W v = h |v_t|^p with blow-up detection.

The scheme is the three-level leapfrog

    v^{n+1} = 2 v^n - v^{n-1} + dt^2 (D2 v^n - W v^n + h |vt*|^p),

where the derivative nonlinearity is evaluated with a backward-difference
predictor followed by one corrector pass through the centered difference,
which restores second-order accuracy without a nonlinear solve.  The first
step is bootstrapped by a Taylor expansion using the PDE at t = 0.

Compactly supported data propagate at unit speed, so the update touches
only a window that grows by one node per step, and a run is declared
invalid (boundary_contact) before the signal can ever reach the grid edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .coordinates import ModelParams, SpatialGrid
from .functionals import FunctionalMonitor, MonitorSeries
from .test_function import solve_phi

__all__ = [
    "STATUS_BLEW_UP",
    "STATUS_REACHED_TMAX",
    "STATUS_BOUNDARY_CONTACT",
    "FieldState",
    "LifespanRecord",
    "bump_profile",
    "init_state",
    "cfl_dt",
    "run_until",
    "physical_field_u",
]

STATUS_BLEW_UP = "blew_up"
STATUS_REACHED_TMAX = "reached_tmax"
STATUS_BOUNDARY_CONTACT = "boundary_contact"
STATUSES = (STATUS_BLEW_UP, STATUS_REACHED_TMAX, STATUS_BOUNDARY_CONTACT)

# Time between regular monitor samples.
MONITOR_DT = 0.1


@dataclass(eq=False)
class FieldState:
    """Field and time-derivative samples at one time level."""

    t: float
    v: np.ndarray
    vt: np.ndarray
    max_abs_vt: float


@dataclass(frozen=True)
class LifespanRecord:
    """One measured lifespan: the first threshold crossing of max |v_t|."""

    epsilon: float
    p: float
    M: float
    R: float
    T_num: float
    threshold: float
    ds: float
    dt: float
    status: str

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == STATUS_BLEW_UP and not self.T_num > 0:
            raise ValueError("blow-up record must carry a positive T_num")


def bump_profile(R: float, s):
    """C^3 bump (1 - (s/R)^2)^4 supported on |s| < R."""
    if R <= 0:
        raise ValueError(f"support radius must be positive, got R={R}")
    y = np.asarray(s, dtype=float) / R
    out = np.where(np.abs(y) < 1.0, (1.0 - y * y) ** 4, 0.0)
    return float(out) if out.ndim == 0 else out


def init_state(params: ModelParams, grid: SpatialGrid, f=None, g=None,
               t_max: float | None = None) -> FieldState:
    """Initial data v = eps*f, v_t = eps*g (defaults: f = 0, g = bump).

    ``f`` and ``g`` may be callables of s or arrays.  The data support must
    sit strictly inside the grid; when ``t_max`` is given the grid must also
    be large enough that the unit-speed signal cannot reach the boundary
    within the planned horizon.
    """
    def as_array(prof, default):
        if prof is None:
            return default
        if callable(prof):
            return np.asarray(prof(grid.s), dtype=float)
        return np.asarray(prof, dtype=float)

    v = params.epsilon * as_array(f, np.zeros(grid.n))
    vt = params.epsilon * as_array(g, bump_profile(params.R, grid.s))
    if v.shape != (grid.n,) or vt.shape != (grid.n,):
        raise ValueError("data arrays must match the grid length")

    nz = np.nonzero((np.abs(v) > 0.0) | (np.abs(vt) > 0.0))[0]
    if nz.size:
        if nz[0] < 2 or nz[-1] > grid.n - 3:
            raise ValueError("initial data support touches the grid boundary")
        if t_max is not None:
            room = min(grid.s[nz[0]] - grid.s_min, grid.s_max - grid.s[nz[-1]])
            if t_max > room - 4.0 * grid.ds:
                raise ValueError(
                    f"grid too small for horizon t_max={t_max}: signal would "
                    f"reach the boundary after t = {room - 4.0 * grid.ds:.6g}"
                )
    return FieldState(t=0.0, v=v, vt=vt, max_abs_vt=float(np.max(np.abs(vt))))


def cfl_dt(grid: SpatialGrid, safety: float) -> float:
    """Stable time step dt = safety * ds for the unit-speed stencil."""
    if not 0.0 < safety < 1.0:
        raise ValueError(f"CFL safety factor must lie in (0, 1), got {safety}")
    return safety * grid.ds


def run_until(params: ModelParams, grid: SpatialGrid, threshold: float,
              t_max: float, cfl: float = 0.9,
              aux_thresholds: tuple = (), linear: bool = False,
              f=None, g=None, enforce_grid: bool = True,
              snapshot_times: tuple = (),
              forcing=None) -> tuple[LifespanRecord, MonitorSeries]:
    """Step until max |v_t| crosses the threshold, t_max is reached, or the
    signal approaches the boundary.

    Returns the lifespan record plus the functional monitor series, built
    on the test function phi solved on ``grid`` with growth rate 1/2M.
    Samples are taken every MONITOR_DT time units and at every step once
    max |v_t| enters the last decade below the threshold.  ``aux_thresholds``
    are additional levels whose first crossing times are recorded (used for
    threshold-insensitivity checks).  ``linear`` forces h = 0.
    ``snapshot_times`` record (t_n, v^n, centered v_t^n) at the first step
    at or past each time; times due at one step share its snapshot.
    ``forcing`` is an optional callable (t, s) -> array added to the right
    side, for manufactured-solution verification; a forced run updates the
    whole interior every step.
    """
    dt = cfl_dt(grid, cfl)
    state0 = init_state(params, grid, f=f, g=g,
                        t_max=t_max if enforce_grid else None)
    if threshold <= state0.max_abs_vt:
        raise ValueError("threshold must exceed the initial max |v_t|")
    table = solve_phi(grid, 1.0 / (2.0 * params.M))

    h_eff = np.zeros(grid.n) if linear else grid.h_of_s
    W = grid.W_of_s
    phi = table.phi
    inv_ds2 = 1.0 / grid.ds**2
    gn = grid.n

    mon = FunctionalMonitor(grid, table, params, h=h_eff)
    first_sample = mon.start(state0)
    series = MonitorSeries(M=params.M, R=params.R, p=params.p, N_eps=mon.N_eps)
    series.samples.append(first_sample)

    # Initial support window (one-node halo); forcing may act anywhere.
    nz = np.nonzero((np.abs(state0.v) > 0.0) | (np.abs(state0.vt) > 0.0))[0]
    if forcing is not None:
        wlo, whi = 1, gn - 2
    elif nz.size:
        wlo, whi = int(nz[0]) - 1, int(nz[-1]) + 1
    else:
        wlo = whi = gn // 2
    wlo, whi = max(wlo, 1), min(whi, gn - 2)

    v_prev = state0.v.copy()
    f_n = None if forcing is None else np.asarray(forcing(0.0, grid.s), dtype=float)
    v_curr = backend.taylor_first_step(state0.v, state0.vt, W, h_eff, params.p,
                                       dt, inv_ds2, forcing=f_n)
    v_next = np.zeros(gn)
    wlo, whi = max(wlo - 1, 1), min(whi + 1, gn - 2)

    pending = sorted(set(aux_thresholds) | {threshold})
    snaps = sorted(snapshot_times)
    status = STATUS_REACHED_TMAX
    T_num = math.nan
    decade = threshold / 10.0
    next_sample = MONITOR_DT
    n_level = 1
    # The update window grows one node per step (numerical speed ds/dt > 1)
    # and pins at the grid edge; boundary contact is declared when actual
    # signal, not the window, gets within two spacings of the boundary.
    fringe_tol = 1e-10 * max(state0.max_abs_vt, float(np.max(np.abs(state0.v))), 1e-300)

    while True:
        t_n = n_level * dt
        if t_n >= t_max - 1e-12:
            break
        lo, hi = max(wlo - 1, 1), min(whi + 1, gn - 2)
        if forcing is not None:
            f_n = np.asarray(forcing(t_n, grid.s), dtype=float)
        max_vt, s_phi_vt, s_hphi = backend.leapfrog_window(
            v_prev, v_curr, v_next, W, h_eff, phi, params.p, dt, inv_ds2, lo, hi,
            forcing=f_n)
        if ((lo <= 2 and float(np.max(np.abs(v_next[1:4]))) > fringe_tol)
                or (hi >= gn - 3 and float(np.max(np.abs(v_next[gn - 4:gn - 1]))) > fringe_tol)):
            status = STATUS_BOUNDARY_CONTACT
            break
        finite = math.isfinite(max_vt + s_phi_vt + s_hphi)
        if not finite:
            status = STATUS_BLEW_UP
            T_num = t_n
            break
        L, Fp = mon.push_sums(t_n, s_phi_vt, s_hphi)

        while pending and max_vt >= pending[0]:
            series.crossings[pending.pop(0)] = t_n
        crossed = threshold in series.crossings
        if series.plunge_t is None and max_vt >= decade:
            series.plunge_t = t_n

        if t_n >= next_sample - 1e-12 or max_vt >= decade or crossed:
            series.samples.append(mon.sample_from(t_n, L, Fp))
            while next_sample <= t_n + 1e-12:
                next_sample += MONITOR_DT
        if snaps and t_n >= snaps[0] - 1e-12:
            snaps = [ts for ts in snaps if ts - 1e-12 > t_n]
            vt_full = np.zeros(gn)
            vt_full[lo:hi + 1] = (v_next[lo:hi + 1] - v_prev[lo:hi + 1]) / (2.0 * dt)
            series.snapshots.append((t_n, v_curr.copy(), vt_full))
        if crossed:
            status = STATUS_BLEW_UP
            T_num = t_n
            break

        v_prev, v_curr, v_next = v_curr, v_next, v_prev
        wlo, whi = lo, hi
        n_level += 1

    record = LifespanRecord(
        epsilon=params.epsilon, p=params.p, M=params.M, R=params.R,
        T_num=T_num, threshold=threshold, ds=grid.ds, dt=dt, status=status,
    )
    return record, series


def physical_field_u(v: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Recover the physical field u = v / r on the grid nodes."""
    return v / grid.r_of_s
