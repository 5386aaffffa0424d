"""Lapse F, effective potential W, nonlinear weight h, and their asymptotics.

All near-horizon evaluation routes through the horizon gap x = r - 2M
(see coordinates.py): F = x/r, W = 2Mx/r^4, h = x/r^p are exact products
with the gap, whereas the textbook forms 1 - 2M/r and F r^{1-p} are pure
cancellation once x is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coordinates import _radius_and_gap, horizon_gap_from_tortoise

__all__ = [
    "lapse",
    "potential_W",
    "nonlinear_weight_h",
    "HAsymptotics",
    "verify_h_asymptotics",
    "regime_split",
]


def lapse(M: float, r=None, r_minus_2M=None):
    """Metric lapse F = 1 - 2M/r, computed as x/r to avoid cancellation."""
    r, x = _radius_and_gap(M, r, r_minus_2M)
    out = x / r
    return float(out) if out.ndim == 0 else out


def potential_W(M: float, s):
    """Effective potential W(s) = 2M F / r^3 of the reduced radial equation."""
    x = np.asarray(horizon_gap_from_tortoise(M, s))
    r = 2.0 * M + x
    out = 2.0 * M * x / r**4
    return float(out) if out.ndim == 0 else out


def nonlinear_weight_h(M: float, p: float, s):
    """Nonlinear weight h(s) = F r^{1-p} = x / r^p multiplying |v_t|^p."""
    if p < 1.0:
        raise ValueError(f"exponent must be >= 1, got p={p}")
    x = np.asarray(horizon_gap_from_tortoise(M, s))
    r = 2.0 * M + x
    out = x / r**p
    return float(out) if out.ndim == 0 else out


def regime_split(M: float) -> float:
    """Boundary s = 4M + e between the near-horizon and far-field regimes of h."""
    return 4.0 * M + math.e


@dataclass(frozen=True)
class HAsymptotics:
    """Empirical two-sided bounds on h against its regime asymptotes.

    far_*  bound h(s) * s^{p-1}   on [4M+e, s_max]   (power-law regime)
    near_* bound h(s) * e^{-s/2M} on [s_min, 4M+e]   (exponential regime)
    """

    far_min: float
    far_max: float
    near_min: float
    near_max: float
    split: float

    def as_rows(self):
        return [
            ("far  h*s^(p-1)", self.far_min, self.far_max),
            ("near h*exp(-s/2M)", self.near_min, self.near_max),
        ]


def verify_h_asymptotics(M: float, p: float, s_min: float, s_max: float,
                         n: int = 4000) -> HAsymptotics:
    """Measure the equivalence constants of h against both asymptotic regimes.

    Samples h(s)/s^{1-p} on [4M+e, s_max] (log-spaced) and h(s)/e^{s/2M} on
    [s_min, 4M+e] (linear), returning the inf/sup of each ratio.  Both
    intervals must come out finite and positive, otherwise the potential
    evaluation itself is broken.
    """
    split = regime_split(M)
    if not (s_min < split < s_max):
        raise ValueError(
            f"range [{s_min}, {s_max}] must straddle the regime split s = {split:.6g}"
        )
    s_far = np.geomspace(split, s_max, n)
    ratio_far = nonlinear_weight_h(M, p, s_far) * s_far ** (p - 1.0)
    s_near = np.linspace(s_min, split, n)
    ratio_near = nonlinear_weight_h(M, p, s_near) * np.exp(-s_near / (2.0 * M))
    result = HAsymptotics(
        far_min=float(ratio_far.min()), far_max=float(ratio_far.max()),
        near_min=float(ratio_near.min()), near_max=float(ratio_near.max()),
        split=split,
    )
    bounds = (result.far_min, result.far_max, result.near_min, result.near_max)
    if not all(math.isfinite(b) and b > 0.0 for b in bounds):
        raise RuntimeError(f"unbounded asymptotic ratio: {result}")
    return result
