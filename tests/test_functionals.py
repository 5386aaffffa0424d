"""Functional chain: quadratures, identities, inequality checks, integral lemmas."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schwave
from schwave.coordinates import ModelParams, build_grid, sized_grid
from schwave.functionals import (
    FunctionalMonitor,
    MonitorSample,
    MonitorSeries,
    accumulate_nonlinear,
    check_inequalities,
    hoelder_I_check,
    integral_bound_ratio,
    linear_moment,
    nonlinear_spatial_integral,
)
from schwave.pde_solver import init_state, run_until
from schwave.test_function import solve_phi


@pytest.fixture(scope="module")
def setup():
    params = ModelParams(M=1.0, p=1.5, epsilon=0.5, R=1.0)
    grid = build_grid(params, -30.0, 30.0, 1201)
    table = solve_phi(grid, 0.5)
    return params, grid, table


def test_linear_moment_zero_state(setup):
    params, grid, table = setup
    state = init_state(params, grid, f=lambda s: np.zeros_like(s),
                       g=lambda s: np.zeros_like(s))
    assert linear_moment(state, table, params.M) == 0.0


def test_linear_moment_quadrature_accuracy(setup):
    # Trapezoid value converges O(ds^2): compare against a 4x-refined grid.
    params, _, _ = setup
    vals = {}
    for n in (601, 1201, 4801):
        grid = build_grid(params, -30.0, 30.0, n)
        table = solve_phi(grid, 0.5)
        state = init_state(params, grid)
        vals[n] = linear_moment(state, table, params.M)
    ref = vals[4801]
    e1, e2 = abs(vals[601] - ref), abs(vals[1201] - ref)
    assert vals[601] > 0.0
    assert e2 < e1 / 3.0  # second-order decay


def test_accumulate_identities(setup):
    params, grid, table = setup
    state = init_state(params, grid)
    assert nonlinear_spatial_integral(state, table, params.M, params.p,
                                      h=np.zeros(grid.n)) == 0.0
    assert accumulate_nonlinear(1.0, 0.0, 0.0, 0.1) == 1.0
    zero = init_state(params, grid, f=lambda s: np.zeros_like(s),
                      g=lambda s: np.zeros_like(s))
    assert nonlinear_spatial_integral(zero, table, params.M, params.p) == 0.0


def test_accumulate_time_trapezoid_consistency(setup):
    # One coarse slab vs two half slabs of a smooth integrand: O(dt^2) gap.
    S = lambda t: math.exp(0.3 * t)
    coarse = accumulate_nonlinear(0.0, S(0.0), S(0.2), 0.2)
    fine = accumulate_nonlinear(
        accumulate_nonlinear(0.0, S(0.0), S(0.1), 0.1), S(0.1), S(0.2), 0.1)
    exact = (S(0.2) - S(0.0)) / 0.3
    assert abs(fine - exact) < abs(coarse - exact) / 3.5


def test_monitor_initial_values(setup):
    params, grid, table = setup
    state = init_state(params, grid)
    N_eps = 0.5 * float(np.trapezoid(table.phi * state.vt, dx=grid.ds)
                        if hasattr(np, "trapezoid")
                        else np.trapz(table.phi * state.vt, dx=grid.ds))
    sample = FunctionalMonitor(grid, table, params).start(state)
    assert sample.G == pytest.approx(N_eps, rel=1e-12)
    assert sample.F == pytest.approx(N_eps, rel=1e-12)
    assert sample.L == pytest.approx(2.0 * N_eps, rel=1e-12)
    assert N_eps > 0.0


def test_G_plus_F_equals_L_along_run():
    params = ModelParams(M=1.0, p=1.5, epsilon=0.5, R=1.0)
    grid = sized_grid(params, 45.0, 0.05)
    _, series = run_until(params, grid, 1e6 * 0.5, 45.0)
    G, F, L = (series.column(k) for k in ("G", "F", "L"))
    scale = np.maximum(np.abs(L), np.abs(F))
    assert np.max(np.abs(G + F - L) / np.maximum(scale, 1e-300)) < 1e-12
    # F is nondecreasing exactly (sum of nonnegative slabs).
    assert np.all(np.diff(F) >= 0.0)


def test_monitor_fast_path_matches_state_path():
    params = ModelParams(M=1.0, p=1.5, epsilon=0.5, R=1.0)
    grid = build_grid(params, -20.0, 20.0, 801)
    table = solve_phi(grid, 0.5)
    state = init_state(params, grid)
    mon = FunctionalMonitor(grid, table, params)
    mon.start(state)
    L_ref = linear_moment(state, table, params.M)
    sums_phi_vt = float(np.dot(table.phi, state.vt))
    # Trapezoid equals the plain node sum for interior-supported data.
    assert sums_phi_vt * grid.ds == pytest.approx(L_ref, rel=1e-12)


def test_check_inequalities_zero_data():
    params = ModelParams(M=1.0, p=1.5, epsilon=0.5, R=1.0)
    grid = sized_grid(params, 20.0, 0.1)
    zero = lambda s: np.zeros_like(s)
    _, series = run_until(params, grid, 1.0, 20.0, f=zero, g=zero)
    report = check_inequalities(series, params.M)
    assert report.passed
    assert report.C_emp == 0.0  # vacuous floor


def test_check_inequalities_linear_run():
    params = ModelParams(M=1.0, p=1.5, epsilon=0.5, R=1.0)
    grid = sized_grid(params, 120.0, 0.1)
    _, series = run_until(params, grid, 1e6 * 0.5, 120.0, linear=True)
    report = check_inequalities(series, params.M)
    assert report.positivity_ok and report.monotone_ok and report.domination_ok
    assert report.passed


def test_series_csv_round_trip(tmp_path):
    series = MonitorSeries(M=1.0, R=1.0, p=1.5, N_eps=0.25)
    series.samples.append(MonitorSample(t=0.0, L=0.5, J=0.0, G=0.25, F=0.25,
                                        Fprime=0.125, ratio_riccati=2.0))
    series.samples.append(MonitorSample(t=0.1, L=0.6, J=0.01, G=0.345, F=0.255,
                                        Fprime=0.13, ratio_riccati=2.1))
    special = (0.2, math.inf, -math.inf, -0.0, math.nan, 5e-324, 1e-310)
    series.samples.append(MonitorSample(*special))
    path = tmp_path / "monitor.csv"
    series.to_csv(path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "t,L,J,G,F,Fprime,ratio_riccati,e_tM_G"
    got = [float(tok) for tok in rows[1].split(",")]
    assert got[:7] == [0.0, 0.5, 0.0, 0.25, 0.25, 0.125, 2.0]
    assert got[7] == pytest.approx(0.25)  # e^{0} G
    # Non-finite values, signed zeros and subnormals print as %.17g does.
    assert rows[3] == ",".join(f"{v:.17g}" for v in special + (-0.0,))


def test_integral_bound_examples():
    # alpha = 0 closed form: (e^{bL} - e^{-bt}) / b with b = L = 1, t = 10.
    val = integral_bound_ratio(0.0, 1.0, 1.0, 10.0)
    assert val == pytest.approx(math.e - math.exp(-10.0), rel=1e-8)
    assert val <= math.e
    assert integral_bound_ratio(1.0, 0.5, 1.0, 0.0) > 0.0
    with pytest.raises(ValueError):
        integral_bound_ratio(-1.0, 1.0, 1.0, 1.0)
    # Far past the decay scale the whole mass sits near u = 0.
    for beta, L in ((1.0, 1.0), (4.0, 5.0)):
        expected = (math.exp(beta * L) - math.exp(-beta * 1e5)) / beta
        assert integral_bound_ratio(0.0, beta, L, 1e5) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("t", [1e3, 1e5])
@pytest.mark.parametrize("beta, L", [(0.05, 5.0), (1.0, 1.0), (4.0, 0.3)])
def test_integral_bound_matches_mpmath(alpha, t, beta, L):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        # Breakpoints at multiples of the decay length keep tanh-sinh accurate.
        pts = [-L, 0.0] + [k / beta for k in (1, 2, 4, 8, 16, 32, 64, 128)
                           if k / beta < t] + [t]
        val = mp.quad(lambda u: (1 + t - u) ** alpha * mp.exp(-beta * u),
                      [mp.mpf(x) for x in pts])
        ref = float(val / (mp.mpf(t) + L) ** alpha)
    assert integral_bound_ratio(alpha, beta, L, t) == pytest.approx(ref, rel=1e-13)


def test_integral_bound_alpha0_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.given(st.floats(0.05, 4.0), st.floats(0.1, 5.0), st.floats(0.0, 1e6))
    def check(beta, L, t):
        # (e^{bL} - e^{-bt}) / b, without cancellation for small b(t+L).
        expected = -math.exp(beta * L) * math.expm1(-beta * (t + L)) / beta
        assert integral_bound_ratio(0.0, beta, L, t) == pytest.approx(expected, rel=1e-13)

    check()


def test_import_leaves_scipy_integrate_unloaded(tmp_path):
    # Importing the package (every CLI run does) loads no scipy module at
    # all, and a solve still runs once scipy cannot be imported: numpy is
    # the only runtime dependency.
    src = str(Path(schwave.__file__).resolve().parents[1])
    code = "\n".join([
        "import sys",
        "sys.path.insert(0, sys.argv[1])",
        "import schwave",
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']",
        "assert not loaded, loaded",
        "sys.modules['scipy'] = None",
        "from schwave import cli",
        "cli.main(['solve', '--eps', '1', '--tmax', '3', '--ds', '0.1',",
        "          '--out', sys.argv[2]])",
    ])
    proc = subprocess.run([sys.executable, "-c", code, src, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "status=reached_tmax" in proc.stdout
    assert (tmp_path / "monitor.csv").exists()


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_integral_bound_sup_finite(alpha, beta):
    ratios = [integral_bound_ratio(alpha, beta, 1.0, t)
              for t in np.linspace(0.0, 100.0, 26)]
    assert max(ratios) < 50.0
    assert all(r > 0.0 for r in ratios)


def test_hoelder_bounded_for_supported_exponents():
    for p in (1.5, 1.75, 2.0):
        vals = [hoelder_I_check(1.0, p, 1.0, t) for t in np.linspace(0.0, 200.0, 11)]
        assert all(np.isfinite(v) and v > 0.0 for v in vals)
        # Bounded: the large-t plateau does not exceed the early-time value.
        assert max(vals[5:]) <= vals[0]


def test_hoelder_diverges_below_three_halves():
    early = hoelder_I_check(1.0, 1.4, 1.0, 20.0)
    late = hoelder_I_check(1.0, 1.4, 1.0, 200.0)
    assert late > 100.0 * early


def test_hoelder_validation():
    with pytest.raises(ValueError):
        hoelder_I_check(1.0, 2.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        hoelder_I_check(1.0, 2.0, -1.0, 1.0)
