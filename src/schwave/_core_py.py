"""Python twins of the compiled core (_core_c.c), run when it is absent.

The compiled leapfrog_window has the same semantics for p in
backend.C_EXPONENTS, except that values below DBL_MIN may flush to zero and
its window sums add in a fixed 8-lane order; both predictors multiply by
1/dt, so v_next is bit-identical at p = 2.  It also raises ValueError when
v_next shares memory with an input.  This module is its test oracle
and runs every other p and every forced step.  shoot_phi's twin is bit-identical.
"""

from __future__ import annotations

import math

import numpy as np


def _abs_pow(a: np.ndarray, p: float) -> np.ndarray:
    b = np.abs(a)
    if p == 2.0:
        return b * b
    return b**p


def leapfrog_window(v_prev, v_curr, v_next, W, h, phi, p, dt, inv_ds2, lo, hi,
                    forcing=None):
    """Advance one leapfrog step on the index window [lo, hi].

    Scheme: v_next = 2 v - v_prev + dt^2 (D2 v - W v + h |vt*|^p [+ forcing]),
    with a backward-difference predictor for vt* followed by one corrector
    pass using the centered difference through the predicted level.  Writes
    v_next in place and returns

        (max |vt|, sum phi*vt, sum h*phi*|vt|^p)

    where vt = (v_next - v_prev) / 2dt is the centered derivative at the
    *current* level and the sums run over the window, unweighted by ds.
    """
    w = slice(lo, hi + 1)
    dt2 = dt * dt
    vp = v_prev[w]
    vc = v_curr[w]
    lap = (v_curr[lo - 1:hi] - 2.0 * vc + v_curr[lo + 1:hi + 2]) * inv_ds2
    lin = lap - W[w] * vc
    if forcing is not None:
        lin = lin + forcing[w]
    base = 2.0 * vc - vp
    pred = (vc - vp) * (1.0 / dt)
    vn = base + dt2 * (lin + h[w] * _abs_pow(pred, p))
    vtc = (vn - vp) * (0.5 / dt)
    vn = base + dt2 * (lin + h[w] * _abs_pow(vtc, p))
    v_next[w] = vn
    vt = (vn - vp) * (0.5 / dt)
    avt = _abs_pow(vt, p)
    return (
        float(np.max(np.abs(vt))) if vt.size else 0.0,
        float(phi[w] @ vt),
        float((h[w] * phi[w]) @ avt),
    )


def taylor_first_step(v0, vt0, W, h, p, dt, inv_ds2, forcing=None):
    """Bootstrap level 1 from the Cauchy data via the PDE-completed Taylor step."""
    v1 = np.zeros_like(v0)
    lap = (v0[:-2] - 2.0 * v0[1:-1] + v0[2:]) * inv_ds2
    acc = lap - W[1:-1] * v0[1:-1] + h[1:-1] * _abs_pow(vt0[1:-1], p)
    if forcing is not None:
        acc = acc + forcing[1:-1]
    v1[1:-1] = v0[1:-1] + dt * vt0[1:-1] + 0.5 * dt * dt * acc
    return v1


def shoot_phi(c, raw, draw, offs, A, ds, cap):
    """RK4 for phi'' = c phi from (1, A), c at nodes and midpoints: node j gets
    phi, phi' = (raw[j], draw[j]) * e^offs[j]; log(phi) moves to offs above cap."""
    y1, y2, off = 1.0, A, 0.0
    raw[0], draw[0], offs[0] = y1, y2, off
    half = 0.5 * ds
    for j in range(len(raw) - 1):
        c0, ch, c1 = c[2 * j], c[2 * j + 1], c[2 * j + 2]
        k1a, k1b = y2, c0 * y1
        k2a, k2b = y2 + half * k1b, ch * (y1 + half * k1a)
        k3a, k3b = y2 + half * k2b, ch * (y1 + half * k2a)
        k4a, k4b = y2 + ds * k3b, c1 * (y1 + ds * k3a)
        y1 += ds / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        y2 += ds / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        if y1 > cap:
            off += math.log(y1)
            y2 /= y1
            y1 = 1.0
        raw[j + 1], draw[j + 1], offs[j + 1] = y1, y2, off
