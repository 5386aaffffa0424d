"""Positive solution phi of (-d^2/ds^2 + W + A^2) phi = 0 with growth e^{As}.

Toward the horizon the potential W decays like e^{s/2M}, so sufficiently
far left the equation is constant-coefficient and the growing mode e^{As}
solves it to exponentially small error.  We therefore shoot rightward from
a start point where W is negligible, with data (phi, phi') = (1, A), using
classical RK4 at the grid spacing.  Positivity is automatic: phi'' > 0
while phi > 0 and phi'(start) > 0, so phi can never turn back to zero.
The RK4 loop is backend.shoot_phi: C when built, else its bit-identical twin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .coordinates import SpatialGrid
from .potentials import potential_W

__all__ = ["TestFunctionTable", "solve_phi", "psi_weight"]


@dataclass(frozen=True, eq=False)
class TestFunctionTable:
    """Samples of phi and phi' on a grid, plus the growth rate A.

    The overall scale of phi is free (every functional built on it is
    homogeneous), so the table is normalized to phi = 1 at the node nearest
    s = 0.
    """

    A: float
    phi: np.ndarray
    dphi: np.ndarray
    grid: SpatialGrid

    __test__ = False  # not a pytest class despite the domain name

    def __post_init__(self):
        self.phi.setflags(write=False)
        self.dphi.setflags(write=False)

    def residual(self) -> np.ndarray:
        """Signed discrete residual D2 phi - (W + A^2) phi at interior nodes."""
        g = self.grid
        lap = (self.phi[:-2] - 2.0 * self.phi[1:-1] + self.phi[2:]) / g.ds**2
        return lap - (g.W_of_s[1:-1] + self.A**2) * self.phi[1:-1]

    def max_relative_residual(self) -> float:
        """Max residual relative to the local equation scale (W + A^2) phi."""
        g = self.grid
        scale = (g.W_of_s[1:-1] + self.A**2) * self.phi[1:-1]
        return float(np.max(np.abs(self.residual()) / scale))


# How small W must be, relative to A^2, at the shooting start.
_POTENTIAL_FLOOR = 1e-12
# Renormalization threshold during integration.
_RENORM_CAP = 1e250


def _shoot_start(grid: SpatialGrid, A: float) -> tuple[float, int]:
    """Start point s_min - k*ds where W <= floor * A^2, k >= 0 integer."""
    M = grid.M
    # Near the horizon W ~ x / (8 M^3); invert for the required gap, then
    # map the gap to s exactly and back off a 4M safety margin.
    x_req = _POTENTIAL_FLOOR * A * A * 8.0 * M**3
    s_req = 2.0 * M + x_req + 2.0 * M * math.log(x_req) - 4.0 * M
    if grid.s_min <= s_req:
        return grid.s_min, 0
    k = int(math.ceil((grid.s_min - s_req) / grid.ds))
    return grid.s_min - k * grid.ds, k


def solve_phi(grid: SpatialGrid, A: float, W_values: np.ndarray | None = None) -> TestFunctionTable:
    """Construct the positive growing solution on the grid's nodes.

    When the grid does not reach far enough toward the horizon for the
    start condition W <= 1e-12 A^2, the integration is extended leftward by
    whole steps so RK4 nodes still land exactly on grid nodes.

    ``W_values`` overrides the potential samples at the integration nodes
    and midpoints (used by the flat-space control test); normally the
    potential is evaluated from the grid's mass.
    """
    if A <= 0:
        raise ValueError(f"growth rate must be positive, got A={A}")
    ds = grid.ds
    if W_values is None:
        s_start, k = _shoot_start(grid, A)
        m = k + grid.n
        s_all = s_start + 0.5 * ds * np.arange(2 * m - 1)
        W_all = np.asarray(potential_W(grid.M, s_all))
    else:
        # Caller-supplied potential: integrate over the grid as given.
        k = 0
        m = grid.n
        W_all = np.asarray(W_values, dtype=float)
        if W_all.shape != (2 * m - 1,):
            raise ValueError(f"W_values must have shape ({2 * m - 1},)")

    c = W_all + A * A  # phi'' = c(s) phi at nodes and midpoints
    out = np.empty((3, m))  # phi, phi' and log offset per node, unnormalized
    backend.shoot_phi(c, *out, A, ds, _RENORM_CAP)
    raw, draw, offs = out[:, k:]
    ref = int(np.argmin(np.abs(grid.s)))
    ln_ref = math.log(raw[ref]) + offs[ref]
    factor = np.exp(offs - ln_ref)
    table = TestFunctionTable(
        A=A, phi=raw * factor, dphi=draw * factor, grid=grid)
    if np.any(table.phi <= 0.0) or not np.all(np.isfinite(table.phi)):
        raise RuntimeError("test function lost positivity or overflowed")
    return table


def psi_weight(M: float, t: float) -> float:
    """Scalar weight e^{-t/2M}; psi(t, s) is this factor times the phi samples."""
    return math.exp(-t / (2.0 * M))
