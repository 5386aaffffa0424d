"""Sweep driver: config validation, fits on synthetic data, emission round trip."""

import math

import pytest

from schwave.experiments import (
    BoundReport,
    SweepConfig,
    config_from_mapping,
    emit_outputs,
    fit_exponential,
    fit_power_law,
    parse_config_file,
    read_records,
    sweep,
    target_slope,
    upper_bound_check,
)
from schwave.pde_solver import STATUS_BLEW_UP, LifespanRecord


def make_record(eps, T, p=1.5, status=STATUS_BLEW_UP):
    return LifespanRecord(epsilon=eps, p=p, M=1.0, R=1.0, T_num=T,
                          threshold=1e6 * eps, ds=0.05, dt=0.045, status=status)


def test_config_validation():
    SweepConfig(M=1.0, p=1.5, R=1.0, epsilon_list=(0.4, 0.2, 0.1))
    with pytest.raises(ValueError):
        SweepConfig(M=1.0, p=1.5, R=1.0, epsilon_list=())
    with pytest.raises(ValueError):
        SweepConfig(M=1.0, p=1.5, R=1.0, epsilon_list=(0.4, 0.4, 0.1))
    with pytest.raises(ValueError):
        SweepConfig(M=1.0, p=1.5, R=1.0, epsilon_list=(0.1, 0.2))
    with pytest.raises(ValueError):
        SweepConfig(M=1.0, p=1.5, R=1.0, epsilon_list=(0.4, -0.2))
    with pytest.raises(ValueError):
        SweepConfig(M=1.0, p=1.5, R=1.0, epsilon_list=(0.4, 0.2), threshold=0.5)


def test_fit_power_law_exact():
    records = [make_record(e, 1.0 / e) for e in (0.4, 0.2, 0.1, 0.05)]
    fit = fit_power_law(records)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 4

    records = [make_record(e, 5.0 * e**-3) for e in (0.4, 0.2, 0.1)]
    fit = fit_power_law(records)
    assert fit.slope == pytest.approx(-3.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-12)


def test_fit_exponential_exact():
    records = [make_record(e, math.exp(2.0 / e), p=2.0) for e in (0.8, 0.5, 0.4)]
    fit = fit_exponential(records)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)

    records = [make_record(e, 3.0 * math.exp(1.0 / e), p=2.0) for e in (0.8, 0.5, 0.4)]
    fit = fit_exponential(records)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)


def test_fit_needs_enough_points():
    records = [make_record(0.4, 2.5), make_record(0.2, 5.0)]
    with pytest.raises(ValueError):
        fit_power_law(records)
    # Non-blow-up records are excluded before counting.
    records += [make_record(0.1, float("nan"), status="reached_tmax")]
    with pytest.raises(ValueError):
        fit_power_law(records)


def test_target_slope():
    assert target_slope(1.5) == pytest.approx(-1.0)
    assert target_slope(1.75) == pytest.approx(-3.0)
    with pytest.raises(ValueError):
        target_slope(2.0)


def test_upper_bound_check():
    records = [make_record(e, 1.0 / e) for e in (0.4, 0.2, 0.1)]
    fit = fit_power_law(records)
    report = upper_bound_check(records, fit, slack=1.5)
    assert report.passed
    assert report.max_margin == pytest.approx(1.0, rel=1e-12)
    assert report.monotonic

    # One record far above the fitted shape is flagged.
    bad = records[:2] + [make_record(0.1, 100.0 / 0.1)]
    fit_bad = fit_power_law(records)
    report = upper_bound_check(bad, fit_bad, slack=1.5)
    assert not report.passed
    assert report.max_margin > 10.0


def test_emit_and_read_round_trip(tmp_path):
    records = [make_record(e, 7.123456789 / e**1.01) for e in (0.4, 0.2, 0.1)]
    fit = fit_power_law(records)
    emit_outputs(records, fit, upper_bound_check(records, fit), tmp_path)
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "epsilon,p,M,R,ds,dt,threshold,T_num,status"
    assert len(lines) == 4
    back = read_records(tmp_path / "sweep.csv")
    for a, b in zip(records, back):
        assert a == b  # 17 significant digits round-trip doubles exactly
    assert (tmp_path / "fit.json").exists()
    plot = (tmp_path / "plotdata_loglog.csv").read_text().strip().split("\n")
    assert plot[0] == "ln_epsilon,ln_T"
    assert len(plot) == 4


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "mass = 1.0\np = 1.5\nradius = 1.0\n"
        "epsilons = 0.4, 0.2, 0.1  # decreasing\n"
        "ds = 0.1\ncfl = 0.9\nthreshold = 1e6\ntmax = 60\noutdir = out\n")
    raw = parse_config_file(cfg)
    config = config_from_mapping(raw)
    assert config.epsilon_list == (0.4, 0.2, 0.1)
    assert config.ds == 0.1
    assert config.out_dir == "out"

    config2 = config_from_mapping(raw, overrides={"ds": 0.05, "outdir": None})
    assert config2.ds == 0.05

    bad = tmp_path / "bad.cfg"
    bad.write_text("mass = 1.0\nspeed = 3\n")
    with pytest.raises(ValueError):
        parse_config_file(bad)
    with pytest.raises(ValueError):
        config_from_mapping({"mass": "1.0"})


@pytest.fixture(scope="module")
def small_sweep_result():
    config = SweepConfig(M=1.0, p=1.5, R=1.0, epsilon_list=(0.5, 0.35, 0.25),
                         ds=0.1, t_max=60.0)
    return config, sweep(config)


def test_sweep_end_to_end(small_sweep_result):
    config, records = small_sweep_result
    assert [r.epsilon for r in records] == [0.5, 0.35, 0.25]
    assert all(r.status == STATUS_BLEW_UP for r in records)
    T = [r.T_num for r in records]
    assert T[0] < T[1] < T[2]
    fit = fit_power_law(records)
    assert fit.slope < 0.0
    assert upper_bound_check(records, fit).passed


def test_sweep_deterministic(tmp_path, small_sweep_result):
    config, records = small_sweep_result
    again = sweep(config)
    fit = fit_power_law(records)
    emit_outputs(records, fit, upper_bound_check(records, fit), tmp_path / "a")
    fit2 = fit_power_law(again)
    emit_outputs(again, fit2, upper_bound_check(again, fit2), tmp_path / "b")
    for name in ("sweep.csv", "fit.json", "plotdata_loglog.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_bound_report_fields():
    report = BoundReport(passed=True, max_margin=1.0, slack=1.5,
                         monotonic=True, n_records=3)
    assert report.passed and report.monotonic


def _fake_run_until(statuses):
    """run_until stand-in yielding canned statuses per call."""
    calls = []

    def fake(params, grid, threshold, t_max, **kwargs):
        status = statuses[min(len(calls), len(statuses) - 1)]
        calls.append(t_max)
        T = 0.5 * t_max if status == STATUS_BLEW_UP else float("nan")
        record = LifespanRecord(epsilon=params.epsilon, p=params.p, M=params.M,
                                R=params.R, T_num=T, threshold=threshold,
                                ds=grid.ds, dt=0.9 * grid.ds, status=status)
        from schwave.functionals import MonitorSeries
        return record, MonitorSeries(M=params.M, R=params.R, p=params.p,
                                     N_eps=0.1)
    return fake, calls


def test_sweep_aborts_on_boundary_contact(monkeypatch):
    import schwave.experiments as ex
    fake, _ = _fake_run_until(["boundary_contact"])
    monkeypatch.setattr(ex, "run_until", fake)
    config = SweepConfig(M=1.0, p=1.5, R=1.0, epsilon_list=(0.5,), ds=0.1,
                         t_max=20.0)
    with pytest.raises(ex.SweepAbort, match="enlarge the grid"):
        sweep(config)


def test_sweep_retries_horizon(monkeypatch):
    import schwave.experiments as ex
    fake, calls = _fake_run_until(["reached_tmax", "reached_tmax", "blew_up"])
    monkeypatch.setattr(ex, "run_until", fake)
    config = SweepConfig(M=1.0, p=1.5, R=1.0, epsilon_list=(0.5,), ds=0.1,
                         t_max=20.0)
    records = sweep(config)
    assert records[0].status == STATUS_BLEW_UP
    assert calls == [20.0, 80.0, 320.0]


def test_sweep_warns_on_step_budget(monkeypatch):
    import schwave.experiments as ex
    fake, _ = _fake_run_until(["blew_up"])
    monkeypatch.setattr(ex, "run_until", fake)
    monkeypatch.setattr(ex, "STEP_BUDGET", 10)
    config = SweepConfig(M=1.0, p=1.5, R=1.0, epsilon_list=(0.5,), ds=0.1,
                         t_max=20.0)
    with pytest.warns(UserWarning, match="may be\\s+infeasible"):
        sweep(config)


def test_sweep_warns_on_nonmonotone_lifespans():
    import schwave.experiments as ex
    records = [make_record(0.4, 10.0), make_record(0.2, 8.0)]
    with pytest.warns(UserWarning, match="not increasing"):
        ex._warn_monotonicity(records)
