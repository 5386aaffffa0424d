"""Schwarzschild radius <-> tortoise coordinate maps and cached grid tables.

The tortoise coordinate s = r + 2M ln(r - 2M) maps the exterior region
r > 2M onto the whole real line.  Near the horizon the gap x = r - 2M is
exponentially small in s, so every routine here treats x (not r) as the
primary unknown: computing x by subtracting two nearly equal doubles would
destroy all precision exactly where the potentials need it most.  The
inverse is x = 2M omega((s - 2M)/2M - ln 2M), with omega the Wright omega
function computed by a fixed two-step iteration (ACM TOMS Algorithm 917).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "SpatialGrid",
    "tortoise_from_radius",
    "radius_from_tortoise",
    "horizon_gap_from_tortoise",
    "build_grid",
]

@dataclass(frozen=True)
class ModelParams:
    """Physical dial set: mass, nonlinearity exponent, data amplitude and radius.

    Exponents below 3/2 fall outside the regime where the blow-up machinery
    is claimed to work and must be requested explicitly via ``exploratory``.
    """

    M: float
    p: float
    epsilon: float
    R: float
    exploratory: bool = False

    def __post_init__(self):
        if not self.M > 0:
            raise ValueError(f"mass must be positive, got M={self.M}")
        if not self.epsilon > 0:
            raise ValueError(f"amplitude must be positive, got epsilon={self.epsilon}")
        if not self.R > 0:
            raise ValueError(f"data radius must be positive, got R={self.R}")
        if not 1.0 < self.p <= 2.0:
            raise ValueError(f"exponent must lie in (1, 2], got p={self.p}")
        if self.p < 1.5 and not self.exploratory:
            raise ValueError(
                f"p={self.p} < 3/2 is outside the supported regime; "
                "pass exploratory=True to study it anyway"
            )


@dataclass(frozen=True, eq=False)
class SpatialGrid:
    """Uniform tortoise-coordinate grid with cached coordinate and potential tables.

    ``r_minus_2M`` is stored alongside ``r_of_s`` because h(s) and W(s) are
    products with the horizon gap; recomputing it as r - 2M loses all
    precision once the gap drops below machine epsilon relative to 2M.
    """

    M: float
    p: float
    s_min: float
    s_max: float
    n: int
    ds: float
    s: np.ndarray
    r_of_s: np.ndarray
    r_minus_2M: np.ndarray
    F_of_s: np.ndarray
    W_of_s: np.ndarray
    h_of_s: np.ndarray

    def __post_init__(self):
        for arr in (self.s, self.r_of_s, self.r_minus_2M, self.F_of_s,
                    self.W_of_s, self.h_of_s):
            arr.setflags(write=False)


def tortoise_from_radius(M: float, r=None, r_minus_2M=None):
    """Forward map s = r + 2M ln(r - 2M), valid for r > 2M.

    Pass ``r_minus_2M`` instead of (or along with) ``r`` when the horizon
    gap is known to full precision; near the horizon this is the only way
    to evaluate s accurately.
    """
    r, x = _radius_and_gap(M, r, r_minus_2M)
    out = r + 2.0 * M * np.log(x)
    return float(out) if out.ndim == 0 else out


def _radius_and_gap(M: float, r, r_minus_2M):
    """Validated (r, x = r - 2M) arrays from ``r``, ``r_minus_2M`` or both."""
    if M <= 0:
        raise ValueError(f"mass must be positive, got M={M}")
    if r is None and r_minus_2M is None:
        raise ValueError("need r or r_minus_2M")
    if r_minus_2M is None:
        x = np.asarray(r, dtype=float) - 2.0 * M
    else:
        x = np.asarray(r_minus_2M, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("radius must lie outside the horizon (r > 2M)")
    r = np.asarray(r, dtype=float) if r is not None else 2.0 * M + x
    return r, x


def horizon_gap_from_tortoise(M: float, s):
    """Invert the tortoise map for the horizon gap x = r(s) - 2M.

    With w = x/2M, the relation x + 2M ln x = s - 2M reads w + ln w = z,
    z = (s - 2M)/2M - ln 2M, whose solution is the Wright omega function:
    x = 2M omega(z).  The result keeps its relative precision however small
    the gap is, as long as it is a normal double: within 1e-13 of a 50-digit
    Lambert-W reference for -1300M <= s <= 6e5 M.  A gap below the smallest
    normal double (z below about -708) raises ValueError.
    """
    if M <= 0:
        raise ValueError(f"mass must be positive, got M={M}")
    arr = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise ValueError("tortoise coordinate must be finite")
    z = (arr - 2.0 * M) / (2.0 * M)
    x = 2.0 * M * _wrightomega(z - math.log(2.0 * M))
    # Below z ~ -708 (shifted by -ln 2M) the gap leaves the normal doubles:
    # a subnormal keeps too few bits to map back to s; deeper it is 0 or NaN.
    if not np.all(x >= np.finfo(float).tiny):
        limit = 2.0 * M * (1.0 + math.log(np.finfo(float).tiny))  # x ~ e^{(s-2M)/2M}
        raise ValueError(f"s below {limit:.5g}: horizon gap not representable in doubles")
    return float(x[0]) if np.isscalar(s) or np.ndim(s) == 0 else x.reshape(np.shape(s))


def _wrightomega(z: np.ndarray) -> np.ndarray:
    """Wright omega, the real w with w + ln w = z: Lawrence, Corless & Jeffrey,
    ACM TOMS Algorithm 917 (2012).  Two fourth-order Fritsch-Shafer-Crowley
    steps from ln(1 + e^z) (z <= 1) or z - ln z (z > 1); 0 or NaN where e^z
    underflows, else within 6e-15 relative of a 40-digit reference.
    """
    with np.errstate(all="ignore"):
        w = np.where(z <= 1.0, np.log1p(np.exp(np.minimum(z, 1.0))),
                     z - np.log(np.maximum(z, 1.0)))
        for _ in range(2):
            r = z - w - np.log(w)
            a = (1.0 + w) * (1.0 + w + 2.0 * r / 3.0)
            w = w * (1.0 + r / (1.0 + w) * (a - r / 2.0) / (a - r))
    return w


def radius_from_tortoise(M: float, s):
    """Inverse map r(s) > 2M. See ``horizon_gap_from_tortoise`` for accuracy notes."""
    return 2.0 * M + horizon_gap_from_tortoise(M, s)


def build_grid(params: ModelParams, s_min: float, s_max: float, n: int) -> SpatialGrid:
    """Build a uniform grid on [s_min, s_max] with all coordinate/potential tables."""
    if not s_min < s_max:
        raise ValueError(f"need s_min < s_max, got [{s_min}, {s_max}]")
    if int(n) != n or n < 3:
        raise ValueError(f"need at least 3 grid nodes, got n={n}")
    n = int(n)
    M, p = params.M, params.p
    s = np.linspace(s_min, s_max, n)
    gap = np.asarray(horizon_gap_from_tortoise(M, s))
    r = 2.0 * M + gap
    F = gap / r
    W = 2.0 * M * gap / r**4
    h = gap / r**p
    grid = SpatialGrid(
        M=M, p=p, s_min=float(s_min), s_max=float(s_max), n=n,
        ds=(s_max - s_min) / (n - 1),
        s=s, r_of_s=r, r_minus_2M=gap, F_of_s=F, W_of_s=W, h_of_s=h,
    )
    _validate_grid(grid)
    return grid


def _validate_grid(grid: SpatialGrid) -> None:
    # Strict monotonicity is checked on the gap: deep inside the horizon
    # region adjacent r = 2M + x values can round to the same double even
    # though x itself is strictly increasing at full relative precision.
    if np.any(np.diff(grid.r_minus_2M) <= 0.0):
        raise RuntimeError("r(s) table is not strictly increasing")
    if np.any(np.diff(grid.r_of_s) < 0.0):
        raise RuntimeError("r(s) table decreased")
    if np.any((grid.F_of_s <= 0.0) | (grid.F_of_s >= 1.0)):
        raise RuntimeError("lapse left the open interval (0, 1)")


def grid_bounds_for(params: ModelParams, t_max: float, ds: float) -> tuple[float, float]:
    """Symmetric grid bounds for a run of horizon t_max at spacing ds.

    Unit propagation speed plus a margin of 5M, and never fewer than 50
    nodes, keeps the boundary causally disconnected from the data support
    for all t <= t_max, with room for the leapfrog's numerical precursor.
    """
    half = params.R + t_max + max(5.0 * params.M, 50.0 * ds)
    return -half, half


def sized_grid(params: ModelParams, t_max: float, ds: float) -> SpatialGrid:
    """Grid sized by ``grid_bounds_for`` with spacing no coarser than ds."""
    if ds <= 0:
        raise ValueError(f"spacing must be positive, got ds={ds}")
    s_min, s_max = grid_bounds_for(params, t_max, ds)
    n = int(math.ceil((s_max - s_min) / ds)) + 1
    return build_grid(params, s_min, s_max, n)
