"""Numerical blow-up laboratory for the radial derivative-nonlinear wave
equation outside a Schwarzschild black hole, in tortoise coordinates."""

from .backend import BACKEND
from .coordinates import (
    ModelParams,
    SpatialGrid,
    build_grid,
    horizon_gap_from_tortoise,
    radius_from_tortoise,
    sized_grid,
    tortoise_from_radius,
)
from .experiments import (
    FitResult,
    SweepConfig,
    fit_exponential,
    fit_power_law,
    sweep,
    target_slope,
    upper_bound_check,
)
from .functionals import (
    MonitorSample,
    MonitorSeries,
    check_inequalities,
    hoelder_I_check,
    integral_bound_ratio,
)
from .pde_solver import (
    FieldState,
    LifespanRecord,
    bump_profile,
    cfl_dt,
    init_state,
    physical_field_u,
    run_until,
)
from .potentials import lapse, nonlinear_weight_h, potential_W, verify_h_asymptotics
from .riccati import (
    H_blowup_time,
    H_closed_form,
    RiccatiParams,
    comparison_check,
    lifespan_bound,
)
from .test_function import TestFunctionTable, psi_weight, solve_phi

__version__ = "0.1.0"
