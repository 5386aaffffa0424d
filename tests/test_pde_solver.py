"""Solver tests: profiles, stepping, blow-up detection, finite speed, stability."""

import dataclasses
import math

import numpy as np
import pytest

from schwave._core_py import leapfrog_window, taylor_first_step
from schwave.coordinates import ModelParams, build_grid, sized_grid
from schwave.pde_solver import (
    STATUS_BLEW_UP,
    STATUS_BOUNDARY_CONTACT,
    STATUS_REACHED_TMAX,
    LifespanRecord,
    bump_profile,
    cfl_dt,
    init_state,
    physical_field_u,
    run_until,
)


def flat_grid(params, s_min, s_max, n):
    """Grid with the potentials zeroed (flat-space control problems)."""
    grid = build_grid(params, s_min, s_max, n)
    zero = np.zeros(n)
    return dataclasses.replace(grid, W_of_s=zero, h_of_s=zero.copy())


def test_bump_profile_values():
    assert bump_profile(1.0, 0.0) == 1.0
    assert bump_profile(1.0, 1.0) == 0.0
    assert bump_profile(1.0, -1.0) == 0.0
    assert bump_profile(2.0, 1.0) == pytest.approx(0.31640625, abs=1e-15)
    assert np.all(bump_profile(1.0, np.array([-2.0, 1.5, 7.0])) == 0.0)
    with pytest.raises(ValueError):
        bump_profile(0.0, 0.5)


def test_init_state_defaults():
    params = ModelParams(M=1.0, p=2.0, epsilon=0.1, R=1.0)
    grid = build_grid(params, -10.0, 10.0, 401)
    state = init_state(params, grid)
    assert state.t == 0.0
    assert np.max(state.v) == 0.0
    assert np.max(state.vt) == pytest.approx(0.1)
    assert state.max_abs_vt == pytest.approx(0.1)


def test_init_state_rejects_small_grid():
    params = ModelParams(M=1.0, p=2.0, epsilon=0.1, R=1.0)
    grid = build_grid(params, -10.0, 10.0, 401)
    init_state(params, grid, t_max=5.0)
    with pytest.raises(ValueError):
        init_state(params, grid, t_max=20.0)
    # Support touching the boundary is rejected outright.
    wide = ModelParams(M=1.0, p=2.0, epsilon=0.1, R=11.0)
    with pytest.raises(ValueError):
        init_state(wide, grid)


def test_zero_data_stays_zero():
    params = ModelParams(M=1.0, p=2.0, epsilon=0.1, R=1.0)
    grid = build_grid(params, -10.0, 10.0, 401)
    zero = lambda s: np.zeros_like(s)
    dt = cfl_dt(grid, 0.9)
    _, series = run_until(params, grid, 1.0, 21 * dt, f=zero, g=zero,
                          snapshot_times=(20 * dt,))
    (_, v, vt), = series.snapshots
    assert np.all(v == 0.0)
    assert np.all(vt == 0.0)


def test_forcing_outside_data_support_acts():
    # Zero data leave the support window empty; a forced run must still
    # update the whole interior, so a bump forcing at s = 5 moves v there.
    params = ModelParams(M=1.0, p=2.0, epsilon=0.1, R=1.0)
    grid = build_grid(params, -10.0, 10.0, 401)
    zero = lambda s: np.zeros_like(s)
    forcing = lambda t, s: (1.0 + t) * bump_profile(1.0, s - 5.0)
    dt = cfl_dt(grid, 0.9)
    _, series = run_until(params, grid, 1.0, 3 * dt, f=zero, g=zero,
                          forcing=forcing, snapshot_times=(2 * dt,))
    (_, v2, _), = series.snapshots
    # Reference: Taylor bootstrap, then one full-interior leapfrog step.
    W, h, inv_ds2 = grid.W_of_s, grid.h_of_s, 1.0 / grid.ds**2
    v0 = np.zeros(grid.n)
    v1 = taylor_first_step(v0, v0, W, h, params.p, dt, inv_ds2,
                           forcing=forcing(0.0, grid.s))
    ref = np.zeros(grid.n)
    leapfrog_window(v0, v1, ref, W, h, np.ones(grid.n), params.p, dt, inv_ds2,
                    1, grid.n - 2, forcing=forcing(dt, grid.s))
    np.testing.assert_array_equal(v2, ref)
    assert v2[np.argmin(np.abs(grid.s - 5.0))] > 0.0


def test_cfl_dt():
    params = ModelParams(M=1.0, p=2.0, epsilon=0.1, R=1.0)
    g1 = build_grid(params, -5.0, 5.0, 1001)   # ds = 0.01
    assert cfl_dt(g1, 0.9) == pytest.approx(0.009)
    g2 = build_grid(params, -5.0, 5.0, 501)    # ds = 0.02
    assert cfl_dt(g2, 0.5) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        cfl_dt(g1, 1.0)


def test_dalembert_splitting():
    # Flat linear problem: v(t) = (bump(s-t) + bump(s+t)) / 2 to O(ds^2).
    params = ModelParams(M=1.0, p=2.0, epsilon=1.0, R=1.0)
    errs = []
    for n in (801, 1601):
        grid = flat_grid(params, -8.0, 8.0, n)
        dt0 = cfl_dt(grid, 0.9)
        nsteps = int(math.ceil(5.0 / dt0))
        dt = 5.0 / nsteps
        _, series = run_until(params, grid, 1e6, 5.0 + dt, cfl=dt / grid.ds,
                              f=lambda s: bump_profile(1.0, s),
                              g=lambda s: np.zeros_like(s),
                              snapshot_times=(5.0,))
        (t, v, _), = series.snapshots
        exact = 0.5 * (bump_profile(1.0, grid.s - t)
                       + bump_profile(1.0, grid.s + t))
        errs.append(np.max(np.abs(v - exact)))
    assert 3.0 < errs[0] / errs[1] < 5.0  # one halving, order ~2


def test_stencil_causality_below_unit_cfl():
    # With dt = 0.9 ds the numerical domain of dependence grows at one node
    # per step (speed ds/dt); outside it the field is identically zero.
    params = ModelParams(M=1.0, p=2.0, epsilon=0.3, R=1.0)
    grid = sized_grid(params, 40.0, 0.05)
    dt = cfl_dt(grid, 0.9)
    nsteps = int(30.0 / dt)
    _, series = run_until(params, grid, 1e6 * params.epsilon, (nsteps + 1) * dt,
                          snapshot_times=(nsteps * dt,))
    (t, v, _), = series.snapshots
    outside = np.abs(grid.s) > params.R + (nsteps + 2) * grid.ds
    assert np.all(v[outside] == 0.0)
    # The physical cone still confines all but the tiny dispersive fringe.
    fringe = np.abs(grid.s) > params.R + t + 2.0 * grid.ds
    assert np.max(np.abs(v[fringe])) <= 1e-4 * np.max(np.abs(v))


def test_physical_field_roundtrip():
    params = ModelParams(M=1.0, p=2.0, epsilon=0.1, R=1.0)
    grid = build_grid(params, -5.0, 5.0, 101)
    state = init_state(params, grid)
    assert np.all(physical_field_u(state.v, grid) == 0.0)
    v = grid.r_of_s.copy()
    u = physical_field_u(v, grid)
    np.testing.assert_allclose(u, 1.0, rtol=1e-15)
    np.testing.assert_allclose(u * grid.r_of_s, v, rtol=1e-15)


def test_threshold_must_exceed_initial():
    params = ModelParams(M=1.0, p=2.0, epsilon=1.0, R=1.0)
    grid = sized_grid(params, 10.0, 0.1)
    with pytest.raises(ValueError):
        run_until(params, grid, 0.5, 10.0)


def test_large_data_blow_up_and_epsilon_ordering():
    T = {}
    for eps in (2.5, 5.0):
        params = ModelParams(M=1.0, p=2.0, epsilon=eps, R=1.0)
        grid = sized_grid(params, 40.0, 0.05)
        record, _ = run_until(params, grid, 1e6 * eps, 40.0)
        assert record.status == STATUS_BLEW_UP
        assert record.T_num > 0.0
        T[eps] = record.T_num
    assert T[5.0] < T[2.5]


def test_linear_run_reaches_tmax_and_decays_locally():
    params = ModelParams(M=1.0, p=2.0, epsilon=0.5, R=1.0)
    grid = sized_grid(params, 200.0, 0.1)
    record, series = run_until(params, grid, 1e6 * 0.5, 200.0, linear=True,
                               snapshot_times=(190.0,))
    assert record.status == STATUS_REACHED_TMAX
    assert math.isnan(record.T_num)
    # The pulse leaves the data region; only a weak scattering tail remains.
    _, v, vt = series.snapshots[0]
    near = np.abs(grid.s) <= 5.0
    assert np.max(np.abs(vt[near])) < 1e-4 * params.epsilon
    # The linear moment settles onto its outgoing-pulse plateau ~ N eps.
    L = series.column("L")
    assert abs(L[-1]) < 0.6 * abs(L[0])
    assert abs(L[-1] - L[len(L) // 2]) < 0.01 * abs(L[0])


def test_boundary_contact_detected():
    params = ModelParams(M=1.0, p=2.0, epsilon=0.5, R=1.0)
    grid = build_grid(params, -6.0, 6.0, 241)
    record, _ = run_until(params, grid, 1e6, 50.0, enforce_grid=False,
                          linear=True)
    assert record.status == STATUS_BOUNDARY_CONTACT
    assert record.T_num != record.T_num  # nan


def test_lifespan_stable_under_halving():
    T = []
    for ds in (0.05, 0.025):
        params = ModelParams(M=1.0, p=1.5, epsilon=0.4, R=1.0)
        grid = sized_grid(params, 60.0, ds)
        record, _ = run_until(params, grid, 1e6 * 0.4, 60.0)
        assert record.status == STATUS_BLEW_UP
        T.append(record.T_num)
    assert abs(T[1] - T[0]) / T[0] < 0.05


def test_aux_crossings_match_separate_runs():
    params = ModelParams(M=1.0, p=1.5, epsilon=0.5, R=1.0)
    grid = sized_grid(params, 50.0, 0.05)
    rec_hi, series = run_until(params, grid, 1e6 * 0.5, 50.0,
                               aux_thresholds=(1e3 * 0.5,))
    rec_lo, _ = run_until(params, grid, 1e3 * 0.5, 50.0)
    assert series.crossings[1e3 * 0.5] == pytest.approx(rec_lo.T_num, abs=1e-12)
    assert series.crossings[1e6 * 0.5] == pytest.approx(rec_hi.T_num, abs=1e-12)


def test_linear_energy_bounded():
    # Discrete energy of the h = 0 problem stays bounded over t in [0, 100].
    params = ModelParams(M=1.0, p=2.0, epsilon=0.3, R=1.0)
    grid = sized_grid(params, 110.0, 0.1)
    dt = cfl_dt(grid, 0.9)
    last = int(100.0 / dt)
    levels = sorted(set(range(1, last + 1, 100)) | {last})
    _, series = run_until(params, grid, 1e6 * params.epsilon, (last + 1) * dt,
                          linear=True, snapshot_times=tuple(k * dt for k in levels))
    assert len(series.snapshots) == len(levels)

    def energy(v, vt):
        # v^k paired with the centered v_t^k of the same level.
        vs = np.zeros_like(v)
        vs[1:-1] = (v[2:] - v[:-2]) / (2.0 * grid.ds)
        return float(np.sum(vt**2 + vs**2 + grid.W_of_s * v**2) * grid.ds)

    E = [energy(v, vt) for _, v, vt in series.snapshots]
    E0, Emax, Eend = E[0], max(E), E[-1]
    assert Emax <= E0 * (1.0 + 1e-6)
    assert Eend >= 0.9 * E0  # neutral scheme: no spurious damping either


def test_record_validation():
    with pytest.raises(ValueError):
        LifespanRecord(epsilon=0.1, p=2.0, M=1.0, R=1.0, T_num=-1.0,
                       threshold=1.0, ds=0.1, dt=0.09, status=STATUS_BLEW_UP)
    with pytest.raises(ValueError):
        LifespanRecord(epsilon=0.1, p=2.0, M=1.0, R=1.0, T_num=1.0,
                       threshold=1.0, ds=0.1, dt=0.09, status="exploded")


def test_snapshot_times_due_at_one_step_share_it():
    # At dt = 0.045 the first step at or past both 1.0 and 1.01 is t = 1.035.
    params = ModelParams(M=1.0, p=2.0, epsilon=0.1, R=1.0)
    grid = build_grid(params, -10.0, 10.0, 401)
    dt = cfl_dt(grid, 0.9)
    _, series = run_until(params, grid, 1.0, 2.0, snapshot_times=(1.0, 1.01))
    assert [t for t, _, _ in series.snapshots] == [23 * dt]


def test_snapshots_captured():
    params = ModelParams(M=1.0, p=1.5, epsilon=0.5, R=1.0)
    grid = sized_grid(params, 50.0, 0.05)
    _, series = run_until(params, grid, 1e6 * 0.5, 50.0,
                          snapshot_times=(5.0, 20.0))
    assert len(series.snapshots) == 2
    t0, v0, vt0 = series.snapshots[0]
    assert t0 == pytest.approx(5.0, abs=grid.ds)
    assert v0.shape == (grid.n,) and vt0.shape == (grid.n,)
    assert np.max(np.abs(v0)) > 0.0
