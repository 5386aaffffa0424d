"""Coordinate map tests: forward/inverse examples, round trip, horizon scaling."""

import math

import numpy as np
import pytest

from schwave.coordinates import (
    ModelParams,
    build_grid,
    horizon_gap_from_tortoise,
    radius_from_tortoise,
    tortoise_from_radius,
)

# High-precision oracle values (bisection on the defining equation at 40 digits).
S_OF_R4_M1 = 5.3862943611198906
GAP_M1_S_MINUS10 = 2.4756857691786997e-3
GAP_M1_S_MINUS40 = 7.5825604250371456e-10
R_M1_S5386 = 4.0000000194400547


def test_forward_examples():
    assert tortoise_from_radius(1.0, 3.0) == pytest.approx(3.0, abs=1e-15)
    assert tortoise_from_radius(0.5, 2.0) == pytest.approx(2.0, abs=1e-15)
    assert tortoise_from_radius(1.0, 4.0) == pytest.approx(S_OF_R4_M1, rel=1e-14)


def test_forward_domain_error():
    with pytest.raises(ValueError):
        tortoise_from_radius(1.0, 2.0)
    with pytest.raises(ValueError):
        tortoise_from_radius(1.0, 1.5)
    with pytest.raises(ValueError):
        tortoise_from_radius(-1.0, 3.0)


def test_inverse_examples():
    assert radius_from_tortoise(1.0, 3.0) == pytest.approx(3.0, rel=1e-12)
    assert horizon_gap_from_tortoise(1.0, -10.0) == pytest.approx(
        GAP_M1_S_MINUS10, rel=1e-10)
    assert radius_from_tortoise(1.0, 5.3862944) == pytest.approx(
        R_M1_S5386, rel=1e-12)


def test_inverse_tolerance_contract():
    s = np.concatenate([-np.geomspace(50, 1e-3, 200), [0.0],
                        np.geomspace(1e-3, 1e4, 200)])
    for M in (0.5, 1.0, 2.0):
        x = horizon_gap_from_tortoise(M, s)
        back = tortoise_from_radius(M, r_minus_2M=x)
        assert np.all(np.abs(back - s) <= 1e-12 * np.maximum(1.0, np.abs(s)))


def test_inverse_matches_lambert_w_reference():
    # x = 2M W(e^{(s-2M)/2M} / 2M) at 50 digits, over s in [-1300M, 6e5 M],
    # plus a dense cluster around s = 2M(2 + ln 2M), where the Wright omega
    # argument crosses 1 and the iteration switches start values.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for M in (0.5, 1.0, 2.0):
            seam = 2.0 * M * (2.0 + math.log(2.0 * M))
            s = np.concatenate([-np.geomspace(1300.0 * M, 1e-3, 300), [0.0],
                                np.geomspace(1e-3, 6e5 * M, 300),
                                seam + 2.0 * M * np.linspace(-0.5, 0.5, 101)])
            x = horizon_gap_from_tortoise(M, s)
            two_m = mpmath.mpf(2.0 * M)
            for si, xi in zip(s, x):
                ref = two_m * mpmath.lambertw(
                    mpmath.exp((mpmath.mpf(si) - two_m) / two_m) / two_m).real
                assert abs((mpmath.mpf(xi) - ref) / ref) <= 1e-13, (M, si)


def test_round_trip_accuracy():
    # 1e-10 relative round trip over s in [-50M, 1e4 M].
    for M in (0.5, 1.0, 2.0):
        s = np.concatenate([-np.geomspace(50 * M, 1e-2, 400),
                            np.geomspace(1e-2, 1e4 * M, 600)])
        x = horizon_gap_from_tortoise(M, s)
        back = tortoise_from_radius(M, r_minus_2M=x)
        assert np.max(np.abs(back - s) / np.maximum(1.0, np.abs(s))) <= 1e-10


def test_inverse_monotone_in_s():
    s = np.linspace(-60.0, 500.0, 4001)
    x = horizon_gap_from_tortoise(1.0, s)
    assert np.all(np.diff(x) > 0.0)


def test_no_underflow_deep_inside():
    # Gap stays positive and exponentially accurate far below the horizon scale.
    assert horizon_gap_from_tortoise(1.0, -40.0) == pytest.approx(
        GAP_M1_S_MINUS40, rel=1e-10)
    g = horizon_gap_from_tortoise(0.5, -50.0)
    assert 0.0 < g < 1e-20


def test_horizon_decade_scaling():
    # Decreasing s by 2M ln 10 shrinks the gap by a factor ~10 (within 5%).
    for M in (0.5, 1.0, 2.0):
        s = np.array([-20.0 * M - k * 2.0 * M * math.log(10.0) for k in range(6)])
        x = horizon_gap_from_tortoise(M, s)
        ratios = x[:-1] / x[1:]
        assert np.all(np.abs(ratios - 10.0) < 0.5)


def test_unrepresentable_gap_rejected():
    with pytest.raises(ValueError):
        horizon_gap_from_tortoise(1.0, -4000.0)
    # z = (s - 2M)/2M = -739.9, but the -ln 2M shift underflows the gap to
    # zero for M > 1/2.
    with pytest.raises(ValueError):
        horizon_gap_from_tortoise(100.0, 200.0 - 739.9 * 200.0)
    # A subnormal gap (4.15e-322 here) would map back to s = -1478.0185.
    with pytest.raises(ValueError):
        horizon_gap_from_tortoise(1.0, -1478.0)


def test_model_params_validation():
    ModelParams(M=1.0, p=2.0, epsilon=0.1, R=1.0)
    with pytest.raises(ValueError):
        ModelParams(M=0.0, p=2.0, epsilon=0.1, R=1.0)
    with pytest.raises(ValueError):
        ModelParams(M=1.0, p=2.0, epsilon=0.0, R=1.0)
    with pytest.raises(ValueError):
        ModelParams(M=1.0, p=2.0, epsilon=0.1, R=-1.0)
    with pytest.raises(ValueError):
        ModelParams(M=1.0, p=2.5, epsilon=0.1, R=1.0)
    with pytest.raises(ValueError):
        ModelParams(M=1.0, p=1.0, epsilon=0.1, R=1.0)
    # Below 3/2 only with the exploratory flag.
    with pytest.raises(ValueError):
        ModelParams(M=1.0, p=1.4, epsilon=0.1, R=1.0)
    ModelParams(M=1.0, p=1.4, epsilon=0.1, R=1.0, exploratory=True)


@pytest.fixture
def unit_params():
    return ModelParams(M=1.0, p=2.0, epsilon=0.1, R=1.0)


def test_build_grid_invariants(unit_params):
    grid = build_grid(unit_params, -5.0, 5.0, 11)
    assert grid.n == 11
    assert grid.ds == pytest.approx(1.0)
    assert np.all(np.diff(grid.r_minus_2M) > 0.0)
    assert np.all((grid.F_of_s > 0.0) & (grid.F_of_s < 1.0))
    assert np.all(grid.W_of_s > 0.0)
    assert np.all(grid.h_of_s > 0.0)
    for name in ("s", "r_of_s", "r_minus_2M", "F_of_s", "W_of_s", "h_of_s"):
        assert getattr(grid, name).shape == (11,)


def test_build_grid_deep_horizon(unit_params):
    grid = build_grid(unit_params, -40.0, 40.0, 8001)
    assert grid.r_minus_2M[0] == pytest.approx(GAP_M1_S_MINUS40, rel=1e-9)
    assert grid.r_minus_2M[0] > 0.0


def test_build_grid_rejects_bad_inputs(unit_params):
    with pytest.raises(ValueError):
        build_grid(unit_params, -5.0, 5.0, 2)
    with pytest.raises(ValueError):
        build_grid(unit_params, 5.0, -5.0, 11)


def test_grid_tables_are_read_only(unit_params):
    grid = build_grid(unit_params, -5.0, 5.0, 11)
    with pytest.raises(ValueError):
        grid.W_of_s[0] = 1.0
