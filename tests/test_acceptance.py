"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.

Shared sweeps and runs are module-scoped fixtures so the expensive solves
happen once.  Amplitude ranges are calibrated so every configured run is
desk-scale; see the README for the measured lifespan laws behind them.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from schwave.coordinates import (
    ModelParams,
    build_grid,
    horizon_gap_from_tortoise,
    sized_grid,
    tortoise_from_radius,
)
from schwave.experiments import (
    SweepConfig,
    fit_exponential,
    fit_power_law,
    sweep,
    target_slope,
    upper_bound_check,
)
from schwave.functionals import (
    check_inequalities,
    hoelder_I_check,
    integral_bound_ratio,
)
from schwave.pde_solver import (
    STATUS_BLEW_UP,
    bump_profile,
    cfl_dt,
    run_until,
)
from schwave.potentials import nonlinear_weight_h, verify_h_asymptotics
from schwave.riccati import (
    H_blowup_time,
    H_closed_form,
    RiccatiParams,
    comparison_check,
)
from schwave.test_function import solve_phi


def verdict(criterion: str, ok: bool, detail: str, t0: float | None = None) -> None:
    wall = f", {time.perf_counter() - t0:.1f}s" if t0 is not None else ""
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail}{wall})")


# ---------------------------------------------------------------------------
# Shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def chain_runs():
    """Criterion 5/11 runs: (p, eps, ds) -> (record, series, report).

    p = 1.5 runs reach blow-up; p = 2 runs are evaluated over a fixed
    horizon because their blow-up times (~2e4 and ~2e8) are desk-infeasible,
    which the inequality-chain checks do not require.
    """
    t0 = time.perf_counter()
    out = {}
    for p in (1.5, 2.0):
        for eps in (0.5, 0.25):
            for ds in (0.05, 0.025):
                params = ModelParams(M=1.0, p=p, epsilon=eps, R=1.0)
                t_max = 80.0 if p == 1.5 else 60.0
                grid = sized_grid(params, t_max, ds)
                record, series = run_until(params, grid, 1e6 * eps, t_max)
                report = check_inequalities(series, params.M)
                out[(p, eps, ds)] = (record, series, report)
    return out, time.perf_counter() - t0


def collecting_sweep(config):
    runs = []
    t0 = time.perf_counter()
    records = sweep(config, collect=lambda rec, ser: runs.append((rec, ser)))
    return records, runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep_p15():
    config = SweepConfig(M=1.0, p=1.5, R=1.0,
                         epsilon_list=(0.2, 0.141, 0.1, 0.0707, 0.05, 0.0354,
                                       0.025),
                         ds=0.05, t_max=100.0)
    return (config, *collecting_sweep(config))


@pytest.fixture(scope="module")
def sweep_p175():
    config = SweepConfig(M=1.0, p=1.75, R=1.0,
                         epsilon_list=(0.6, 0.45, 0.34, 0.25),
                         ds=0.05, t_max=120.0)
    return (config, *collecting_sweep(config))


@pytest.fixture(scope="module")
def sweep_p20():
    config = SweepConfig(M=1.0, p=2.0, R=1.0,
                         epsilon_list=(2.0, 1.5, 1.2, 1.0, 0.8),
                         ds=0.05, t_max=40.0)
    return (config, *collecting_sweep(config))


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_coordinate_round_trip():
    t0 = time.perf_counter()
    worst = 0.0
    for M in (0.5, 1.0, 2.0):
        s = np.concatenate([-np.geomspace(50.0, 1e-2, 350),
                            np.geomspace(1e-2, 1e4, 650)])
        gap = horizon_gap_from_tortoise(M, s)
        back = tortoise_from_radius(M, r_minus_2M=gap)
        worst = max(worst, float(np.max(np.abs(back - s)
                                        / np.maximum(1.0, np.abs(s)))))
    ok = worst <= 1e-10
    verdict("C1 coordinate round-trip", ok, f"worst rel err {worst:.3e}", t0=t0)
    assert ok


def test_criterion_02_weight_asymptotics():
    t0 = time.perf_counter()
    ok = True
    worst_flat = 0.0
    for M in (0.5, 1.0, 2.0):
        for p in (1.5, 1.75, 2.0):
            res = verify_h_asymptotics(M, p, s_min=-60.0 * max(M, 1.0),
                                       s_max=1e4)
            bounds = (res.far_min, res.far_max, res.near_min, res.near_max)
            ok &= all(math.isfinite(b) and b > 0.0 for b in bounds)
    s = np.geomspace(1e3, 1e4, 500)
    for p in (1.5, 1.75, 2.0):
        ratio = nonlinear_weight_h(1.0, p, s) * s ** (p - 1.0)
        worst_flat = max(worst_flat, float(ratio.max() / ratio.min() - 1.0))
    ok &= worst_flat < 0.10
    verdict("C2 weight asymptotics", ok,
            f"all ratio intervals finite/positive, far-field variation "
            f"{worst_flat * 100:.2f}% < 10%", t0=t0)
    assert ok


def test_criterion_03_test_function():
    t0 = time.perf_counter()
    params = ModelParams(M=1.0, p=2.0, epsilon=1.0, R=1.0)
    positive = True
    for M in (0.5, 1.0, 2.0):
        grid = build_grid(ModelParams(M=M, p=2.0, epsilon=1.0, R=1.0),
                          -60.0, 60.0, 2401)
        positive &= bool(np.all(solve_phi(grid, 1.0 / (2.0 * M)).phi > 0.0))

    flat = build_grid(params, -40.0, 40.0, 4001)
    table = solve_phi(flat, 0.5, W_values=np.zeros(2 * flat.n - 1))
    mid = flat.n // 2
    exact = np.exp(0.5 * (flat.s - flat.s[mid]))
    flat_err = float(np.max(np.abs(table.phi / exact - 1.0)))

    resid = []
    for n in (2001, 4001, 8001, 16001):
        grid = build_grid(params, -60.0, 60.0, n)
        resid.append(solve_phi(grid, 0.5).max_relative_residual())
    orders = np.log2(np.array(resid[:-1]) / np.array(resid[1:]))
    ok = (positive and flat_err <= 1e-8
          and bool(np.all((orders > 1.8) & (orders < 2.2))))
    verdict("C3 test function", ok,
            f"phi > 0, flat-control err {flat_err:.2e} <= 1e-8, "
            f"residual orders {np.round(orders, 3)}", t0=t0)
    assert ok


def _dalembert_error(n):
    params = ModelParams(M=1.0, p=2.0, epsilon=1.0, R=1.0)
    grid = build_grid(params, -8.0, 8.0, n)
    zero = np.zeros(n)
    flat = dataclasses.replace(grid, W_of_s=zero, h_of_s=zero.copy())
    nsteps = int(math.ceil(5.0 / cfl_dt(flat, 0.9)))
    dt = 5.0 / nsteps
    _, series = run_until(params, flat, 1e6, 5.0 + dt, cfl=dt / flat.ds,
                          f=lambda s: bump_profile(1.0, s),
                          g=lambda s: np.zeros_like(s), snapshot_times=(5.0,))
    (t, v, _), = series.snapshots
    exact = 0.5 * (bump_profile(1.0, flat.s - t) + bump_profile(1.0, flat.s + t))
    return float(np.max(np.abs(v - exact)))


def _manufactured_error(n):
    params = ModelParams(M=1.0, p=1.5, epsilon=1.0, R=1.0)
    grid = build_grid(params, -6.0, 6.0, n)
    R = params.R

    def b(s):
        return bump_profile(R, s)

    def bpp(s):
        y = np.asarray(s) / R
        inside = np.abs(y) < 1.0
        return np.where(inside,
                        (-8.0 * (1 - y**2) ** 3 + 48.0 * y**2 * (1 - y**2) ** 2)
                        / R**2, 0.0)

    def forcing(t, s):
        vs = math.exp(-t) * b(s)
        return (vs - math.exp(-t) * bpp(s) + grid.W_of_s * vs
                - grid.h_of_s * (math.exp(-t) * b(s)) ** params.p)

    nsteps = int(math.ceil(1.0 / cfl_dt(grid, 0.9)))
    dt = 1.0 / nsteps
    _, series = run_until(params, grid, 1e6, 1.0 + dt, cfl=dt / grid.ds,
                          f=b, g=lambda s: -b(s), forcing=forcing,
                          snapshot_times=(1.0,))
    (t, v, _), = series.snapshots
    exact = math.exp(-t) * b(grid.s)
    return float(np.max(np.abs(v - exact)))


def test_criterion_04_solver_convergence():
    t0 = time.perf_counter()
    sizes = (401, 801, 1601, 3201)
    e_d = np.array([_dalembert_error(n) for n in sizes])
    e_m = np.array([_manufactured_error(n) for n in sizes])
    ord_d = np.log2(e_d[:-1] / e_d[1:])
    ord_m = np.log2(e_m[:-1] / e_m[1:])
    ok = bool(np.all((ord_d > 1.8) & (ord_d < 2.2))
              and np.all((ord_m > 1.8) & (ord_m < 2.2)))
    verdict("C4 solver convergence", ok,
            f"d'Alembert orders {np.round(ord_d, 3)}, "
            f"manufactured orders {np.round(ord_m, 3)}", t0=t0)
    assert ok


def test_criterion_05_inequality_chain(chain_runs):
    chain_runs, elapsed = chain_runs
    all_pass = True
    stable = True
    details = []
    for p in (1.5, 2.0):
        for eps in (0.5, 0.25):
            reports = [chain_runs[(p, eps, ds)][2] for ds in (0.05, 0.025)]
            all_pass &= all(r.passed and r.C_emp > 0.0 for r in reports)
            change = abs(reports[1].C_emp - reports[0].C_emp) / reports[0].C_emp
            stable &= change <= 0.20
            details.append(f"p={p} eps={eps}: C_emp={reports[0].C_emp:.4f} "
                           f"(halving shift {change * 100:.2f}%)")
    ok = all_pass and stable
    verdict("C5 inequality chain", ok,
            "; ".join(details) + f"; runs wall {elapsed:.1f}s")
    assert ok


@pytest.mark.parametrize("which", ["p15", "p175", "p20"])
def test_criterion_06_blowup_and_threshold(which, sweep_p15, sweep_p175,
                                           sweep_p20):
    # Known red for p = 1.5: the measured shift between the 1e3*eps and
    # 1e6*eps crossings is 2.0-3.7% at every amplitude and resolution tried
    # (ds-independent, i.e. a continuum property of the weakest admissible
    # nonlinearity), so the < 2% requirement is not attainable there.
    config, records, runs, elapsed = {"p15": sweep_p15, "p175": sweep_p175,
                                      "p20": sweep_p20}[which]
    all_blew = all(r.status == STATUS_BLEW_UP for r in records)
    shifts = []
    for record, series in runs:
        lo = series.crossings.get(record.threshold * 1e-3)
        hi = series.crossings.get(record.threshold)
        shifts.append((hi - lo) / hi)
    worst = max(shifts)
    verdict(f"C6 blow-up/threshold p={config.p}", all_blew and worst < 0.02,
            f"all {len(records)} runs blew_up={all_blew}, "
            f"worst Lambda shift {worst * 100:.2f}% (need < 2%), "
            f"sweep wall {elapsed:.1f}s")
    assert all_blew
    assert worst < 0.02, (
        f"threshold-insensitivity shift {worst * 100:.2f}% exceeds 2% "
        f"(continuum tail of the p={config.p} plunge; see decisions ledger)")


def test_criterion_07_power_law_scaling(sweep_p15, sweep_p175):
    config, records, _, elapsed = sweep_p15
    span = config.epsilon_list[0] / config.epsilon_list[-1]
    fit = fit_power_law(records)
    bound = upper_bound_check(records, fit, slack=1.5)
    target = target_slope(config.p)
    ok = (len(records) >= 5 and span >= 8.0
          and abs(fit.slope - target) <= 0.25 * abs(target)
          and bound.passed)
    verdict("C7 lifespan power law (p=1.5)", ok,
            f"slope {fit.slope:.3f} vs {target} (+-25%), r2={fit.r_squared:.4f}, "
            f"span {span:.1f}x, bound margin {bound.max_margin:.2f} "
            f"<= {1 + bound.slack}, sweep wall {elapsed:.1f}s")
    assert ok

    config75, records75, _, _ = sweep_p175
    fit75 = fit_power_law(records75)
    target75 = target_slope(config75.p)
    soft_ok = abs(fit75.slope - target75) <= 0.35 * abs(target75)
    verdict("C7 soft target (p=1.75)", soft_ok,
            f"slope {fit75.slope:.3f} vs {target75} (+-35%)")
    assert soft_ok


def test_criterion_08_exponential_scaling(sweep_p20):
    config, records, _, elapsed = sweep_p20
    fit = fit_exponential(records)
    bound = upper_bound_check(records, fit, slack=1.5)
    ok = (len(records) >= 4 and fit.slope > 0.0 and fit.r_squared >= 0.9
          and bound.passed)
    verdict("C8 lifespan exponential (p=2)", ok,
            f"slope {fit.slope:.3f} > 0, r2={fit.r_squared:.4f} >= 0.9, "
            f"bound margin {bound.max_margin:.2f}, sweep wall {elapsed:.1f}s")
    assert ok


def test_criterion_09_riccati_closed_forms():
    t0 = time.perf_counter()
    worst_resid = 0.0
    for p in (1.5, 1.75, 2.0):
        rp = RiccatiParams(p=p, N=1.0, epsilon=0.1, C=1.0, R=1.0)
        T = H_blowup_time(rp)
        for ti in np.linspace(0.02 * T, 0.95 * T, 200):
            d = 1e-5 * (ti + rp.R)
            stencil = [ti - 2 * d, ti - d, ti + d, ti + 2 * d]
            H = [H_closed_form(rp, tj) for tj in stencil]
            dH = (H[0] - 8 * H[1] + 8 * H[2] - H[3]) / (12 * d)
            rhs = rp.C * H_closed_form(rp, ti) ** p / (ti + rp.R) ** (p - 1.0)
            worst_resid = max(worst_resid, abs(dH - rhs) / rhs)

    rng = np.random.default_rng(20260809)
    worst_T = 0.0
    for k in range(20):
        p = 2.0 if k % 2 == 0 else float(rng.uniform(1.5, 1.95))
        N = float(rng.uniform(0.3, 3.0))
        eps = float(rng.uniform(0.05, 0.5))
        C = float(rng.uniform(0.3, 3.0))
        R = float(rng.uniform(0.5, 2.0))
        if p == 2.0 and C * N * eps < 0.08:
            C = 0.08 / (N * eps)
        rp = RiccatiParams(p=p, N=N, epsilon=eps, C=C, R=R)
        T = H_blowup_time(rp)
        cap = 1e10 * rp.H0

        def rhs_ode(t, y):
            return [C * abs(y[0]) ** p / (t + R) ** (p - 1.0)]

        def blown(t, y):
            return y[0] - cap
        blown.terminal = True
        blown.direction = 1
        sol = solve_ivp(rhs_ode, (0.0, 2.0 * T + 10.0), [rp.H0], rtol=1e-11,
                        atol=1e-300, events=blown)
        t_e = sol.t_events[0][0]
        tail = cap ** (1.0 - p) * (t_e + R) ** (p - 1.0) / (C * (p - 1.0))
        worst_T = max(worst_T, abs(t_e + tail - T) / T)

    ok = worst_resid <= 1e-8 and worst_T <= 1e-3
    verdict("C9 comparison-ODE closed forms", ok,
            f"FD residual {worst_resid:.2e} <= 1e-8, "
            f"blow-up time vs integration {worst_T:.2e} <= 1e-3", t0=t0)
    assert ok


def test_criterion_10_integral_lemmas():
    t0 = time.perf_counter()
    sup_ok = True
    for alpha in (0.0, 1.0, 2.0):
        for beta in (0.5, 1.0):  # 1/(2M) for M in {1, 0.5}
            vals = [integral_bound_ratio(alpha, beta, 1.0, t)
                    for t in np.linspace(0.0, 100.0, 26)]
            sup_ok &= math.isfinite(max(vals)) and max(vals) > 0.0
    hoelder_ok = True
    for p in (1.5, 1.75, 2.0):
        vals = [hoelder_I_check(1.0, p, 1.0, t)
                for t in np.linspace(0.0, 200.0, 21)]
        hoelder_ok &= all(math.isfinite(v) for v in vals)
        hoelder_ok &= max(vals[10:]) <= vals[0]  # bounded: no late growth
    grow = hoelder_I_check(1.0, 1.4, 1.0, 200.0) / hoelder_I_check(1.0, 1.4, 1.0, 20.0)
    growing = grow > 100.0
    ok = sup_ok and hoelder_ok and growing
    verdict("C10 integral lemmas", ok,
            f"moment-bound sups finite, I/(t+R) bounded for p>=3/2, "
            f"p=1.4 ratio grows {grow:.2e}x over t in [20, 200]", t0=t0)
    assert ok


def test_criterion_11_comparison_ordering(chain_runs):
    chain_runs, _ = chain_runs
    ok = True
    details = []
    for (p, eps, ds), (record, series, report) in chain_runs.items():
        comp = comparison_check(series, report.C_emp, T_num=record.T_num)
        ok &= comp.passed
        if record.status == STATUS_BLEW_UP:
            details.append(f"p={p} eps={eps} ds={ds}: T_num={record.T_num:.1f} "
                           f"<= T_H={comp.T_H:.1f}")
    verdict("C11 comparison ordering", ok,
            f"F >= H pointwise on all {len(chain_runs)} runs; " + "; ".join(details[:2]))
    assert ok
