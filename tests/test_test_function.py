"""Shooting construction of the positive test function phi."""

import math

import numpy as np
import pytest

from schwave.coordinates import ModelParams, build_grid
from schwave.test_function import psi_weight, solve_phi


def make_grid(M=1.0, s_min=-60.0, s_max=60.0, n=2401):
    params = ModelParams(M=M, p=2.0, epsilon=1.0, R=1.0)
    return build_grid(params, s_min, s_max, n)


def test_flat_control_reproduces_exponential():
    # With W forced to zero the growing mode is exact up to RK4 error.
    grid = make_grid(s_min=-40.0, s_max=40.0, n=4001)
    table = solve_phi(grid, 0.5, W_values=np.zeros(2 * grid.n - 1))
    mid = grid.n // 2
    exact = np.exp(0.5 * (grid.s - grid.s[mid]))
    assert np.max(np.abs(table.phi / exact - 1.0)) <= 1e-8


@pytest.mark.parametrize("M", [0.5, 1.0, 2.0])
def test_positivity(M):
    grid = make_grid(M=M)
    table = solve_phi(grid, 1.0 / (2.0 * M))
    assert np.all(table.phi > 0.0)
    assert np.all(np.isfinite(table.phi))


def test_growth_ratio_bounded_on_right_tail():
    grid = make_grid()
    table = solve_phi(grid, 0.5)
    ratio = np.exp(-0.5 * grid.s) * table.phi
    tail = ratio[grid.s >= 30.0]
    assert tail.max() / tail.min() <= 1.1


def test_residual_second_order():
    errs = []
    for n in (2001, 4001, 8001, 16001):
        grid = make_grid(n=n)
        errs.append(solve_phi(grid, 0.5).max_relative_residual())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((orders > 1.8) & (orders < 2.2))


def test_residual_magnitude_tracks_equation_scale():
    grid = make_grid(n=4001)
    table = solve_phi(grid, 0.5)
    scale = 0.25 + grid.W_of_s.max()
    assert table.max_relative_residual() <= 0.25 * grid.ds**2 * scale


def test_shallow_grid_extends_left():
    # A grid that stops at s_min = -20 still gets an accurate phi because
    # the shooting start is extended toward the horizon internally.
    grid = make_grid(s_min=-20.0, s_max=40.0, n=1201)
    table = solve_phi(grid, 0.5)
    assert np.all(table.phi > 0.0)
    assert table.max_relative_residual() <= 0.25 * grid.ds**2 * (0.25 + grid.W_of_s.max())


def test_normalization_at_origin():
    grid = make_grid()
    table = solve_phi(grid, 0.5)
    ref = int(np.argmin(np.abs(grid.s)))
    assert table.phi[ref] == pytest.approx(1.0)


def test_rejects_nonpositive_growth():
    grid = make_grid(n=201)
    with pytest.raises(ValueError):
        solve_phi(grid, 0.0)


def test_psi_weight_values():
    assert psi_weight(1.0, 0.0) == pytest.approx(1.0)
    assert psi_weight(1.0, 2.0 * math.log(2.0)) == pytest.approx(0.5)
    assert psi_weight(0.5, 1.0) == pytest.approx(math.exp(-1.0))


def test_psi_satisfies_stationary_identity():
    # D2 psi - W psi = psi / (4 M^2) discretely, uniformly in t.
    M = 1.0
    grid = make_grid(n=8001)
    table = solve_phi(grid, 1.0 / (2.0 * M))
    for t in (0.0, 3.0):
        w = psi_weight(M, t)
        psi = w * table.phi
        lap = (psi[:-2] - 2.0 * psi[1:-1] + psi[2:]) / grid.ds**2
        resid = lap - grid.W_of_s[1:-1] * psi[1:-1] - psi[1:-1] / (4.0 * M**2)
        scale = (grid.W_of_s[1:-1] + 1.0 / (4.0 * M**2)) * psi[1:-1]
        assert np.max(np.abs(resid / scale)) <= 1e-4
