"""Equivalence of the compiled and numpy stepping kernels and phi shooters."""

import math
import platform

import numpy as np
import pytest

from schwave import _core_py, backend
from schwave._core_py import leapfrog_window as py_kernel, taylor_first_step
from schwave.coordinates import ModelParams, build_grid
from schwave.potentials import potential_W
from schwave.test_function import _RENORM_CAP, solve_phi


def make_problem(n=500, seed=7):
    rng = np.random.default_rng(seed)
    s = np.linspace(-5, 5, n)
    v_curr = np.exp(-s**2) * rng.uniform(0.5, 1.0, n)
    v_prev = v_curr * rng.uniform(0.95, 1.0, n)
    W = rng.uniform(0.0, 0.05, n)
    h = rng.uniform(0.0, 0.2, n)
    phi = np.exp(0.3 * s)
    return v_prev, v_curr, W, h, phi


C_KERNEL = backend.available_backends().get("c")
needs_c = pytest.mark.skipif(C_KERNEL is None, reason="compiled kernel unavailable")


def assert_kernels_agree(v_prev, v_curr, W, h, phi, p):
    n = len(v_curr)
    dt, inv_ds2 = 0.018, 1.0 / 0.02**2
    out_py = np.zeros(n)
    out_c = np.zeros(n)
    r_py = py_kernel(v_prev, v_curr, out_py, W, h, phi, p, dt, inv_ds2, 1, n - 2)
    r_c = C_KERNEL(v_prev, v_curr, out_c, W, h, phi, p, dt, inv_ds2, 1, n - 2)
    np.testing.assert_allclose(out_c, out_py, rtol=1e-13, atol=1e-300)
    for a, b in zip(r_c, r_py):
        assert a == pytest.approx(b, rel=1e-12)
    return out_c


@needs_c
@pytest.mark.parametrize("p", [1.25, 1.5, 1.75, 2.0])
def test_backends_agree(p):
    assert_kernels_agree(*make_problem(), p)


@needs_c
@pytest.mark.parametrize("p", [1.5, 1.75, 2.0])
def test_backends_agree_into_subnormals(p):
    # A state decaying smoothly through DBL_MIN down to ~1e-320: the C kernel
    # flushes values below DBL_MIN to zero, which only moves them by < atol.
    v_prev, v_curr, W, h, phi = make_problem(n=2000)
    decay = np.geomspace(1.0, 1e-320, len(v_curr))
    tiny = np.finfo(float).tiny
    assert np.count_nonzero(v_curr * decay < tiny) > 50
    out_c = assert_kernels_agree(v_prev * decay, v_curr * decay, W, h, phi, p)
    if platform.machine() in ("x86_64", "AMD64"):
        assert not np.any((out_c != 0.0) & (np.abs(out_c) < tiny))


# (lo, width): the whole interior, then widths 8k + r (r != 0) at lo not
# 1 mod 8, so the compiled copy's vector body and its tail loop both run.
WINDOWS = [(1, 498), (2, 8 * 37 + 3), (7, 8 * 5 + 5), (100, 8 * 20 + 7), (13, 8 * 1 + 1)]


def make_tail_problem(dt):
    """make_problem in a blow-up tail: |v_t| ~ 100 and h up to 2, so the
    nonlinear term dominates the step and the predictor's rounding reaches
    v_next (in the smooth problem it is absorbed)."""
    v_prev, v_curr, W, h, phi = make_problem()
    s = np.linspace(-5, 5, len(v_curr))
    speed = 100.0 * np.random.default_rng(3).uniform(0.5, 1.0, len(s)) * np.exp(-s**2)
    return v_curr - dt * speed, v_curr, W, 10.0 * h, phi


@needs_c
@pytest.mark.parametrize("tail", [False, True], ids=["smooth", "tail"])
@pytest.mark.parametrize("dt", [0.018, 0.045])
def test_c_kernel_steps_bit_identically_at_p2(dt, tail):
    # p = 2 squares, as numpy does; no subnormals arise here, so an FMA
    # contraction in any compiled copy, or a predictor that is not the
    # numpy twin's multiply by 1/dt, would show as a changed bit.
    v_prev, v_curr, W, h, phi = make_tail_problem(dt) if tail else make_problem()
    n = len(v_curr)
    for lo, width in WINDOWS:
        hi = lo + width - 1
        out_py, out_c = np.zeros(n), np.zeros(n)
        py_kernel(v_prev, v_curr, out_py, W, h, phi, 2.0, dt, 1.0 / 0.02**2, lo, hi)
        C_KERNEL(v_prev, v_curr, out_c, W, h, phi, 2.0, dt, 1.0 / 0.02**2, lo, hi)
        np.testing.assert_array_equal(out_c, out_py, err_msg=f"lo={lo} width={width}")


def abs_pow(a, q):
    """The C kernel's |a|^(q/4) in Python floats (IEEE doubles, exact sqrt)."""
    b = abs(a)
    if q == 8:
        return b * b
    if q == 7:
        r = math.sqrt(b)
        return b * r * math.sqrt(r)
    if q == 6:
        return b * math.sqrt(b)
    if q == 5:
        return b * math.sqrt(math.sqrt(b))
    return b


def lane_sums(v_next, v_prev, h, phi, p, dt, lo, hi, lanes=8):
    """(max |vt|, sum phi vt, sum h phi |vt|^p) in the documented lane order.

    Node lo + k adds to lane k % lanes in order; lanes combine 0, 1, ... .
    """
    q, inv2dt = int(4 * p), 0.5 / dt
    mx, s1, s2 = [0.0] * lanes, [0.0] * lanes, [0.0] * lanes
    for k in range(hi - lo + 1):
        i, j = lo + k, k % lanes
        vt = (float(v_next[i]) - float(v_prev[i])) * inv2dt
        a = abs(vt)
        mx[j] = a if (a > mx[j] or a != a) else mx[j]
        s1[j] += float(phi[i]) * vt
        s2[j] += float(h[i]) * float(phi[i]) * abs_pow(vt, q)
    for j in range(1, lanes):
        mx[0] = mx[j] if (mx[j] > mx[0] or mx[j] != mx[j]) else mx[0]
        s1[0] += s1[j]
        s2[0] += s2[j]
    return mx[0], s1[0], s2[0]


@needs_c
@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 1.75, 2.0])
def test_c_sums_follow_lane_order(p):
    # Exact equality pins the summation order, and with it that every
    # compiled copy (SSE2, AVX2 or AVX-512) returns the same sums.
    v_prev, v_curr, W, h, phi = make_problem(n=4000)
    dt = 0.018
    for lo in (1, 2, 7, 100):
        for width in list(range(21)) + [8 * 37 + 3, 8 * 125 + 7, 3001]:
            hi = lo + width - 1
            out = np.zeros(len(v_curr))
            res = C_KERNEL(v_prev, v_curr, out, W, h, phi, p, dt, 1.0 / 0.02**2,
                           lo, hi)
            assert res == lane_sums(out, v_prev, h, phi, p, dt, lo, hi), (lo, width)


@needs_c
@pytest.mark.parametrize("offset", [3, 8 * 5 + 2], ids=["lane3", "tail"])
def test_c_nan_in_one_lane_reaches_every_result(offset):
    # v_prev enters only its own node's update, so the NaN sits in exactly
    # one lane; a larger finite node later in that lane must not replace it.
    v_prev, v_curr, W, h, phi = make_problem()
    n, lo = len(v_curr), 10
    v_prev = v_prev.copy()
    v_prev[lo + offset] = np.nan
    v_prev[lo + 3 + 8 * 3] *= -50.0
    res = C_KERNEL(v_prev, v_curr, np.zeros(n), W, h, phi, 2.0, 0.018,
                   1.0 / 0.02**2, lo, lo + 8 * 5 + 4)
    assert all(np.isnan(x) for x in res)


@needs_c
def test_kernel_isa_reported():
    from schwave import _core_c

    assert _core_c.ISA in ("avx512f", "avx2", "default")
    assert backend.KERNEL_ISA == (_core_c.ISA if backend.BACKEND == "c" else None)


@needs_c
def test_c_kernel_restores_fp_mode():
    v_prev, v_curr, W, h, phi = make_problem()
    n = len(v_curr)
    C_KERNEL(v_prev, v_curr, np.zeros(n), W, h, phi, 2.0, 0.018, 1.0 / 0.02**2,
             1, n - 2)
    assert np.float64(1e-308) / 10 > 0


def sharing_h(a):
    """h and v_next as views three nodes apart in one buffer."""
    buf = np.concatenate([a["h"], np.zeros(3)])
    return {**a, "h": buf[:-3], "v_next": buf[3:]}


# Each case maps the valid arguments to bad ones.
BAD_INPUTS = {
    "strided": lambda a: {**a, "v_prev": np.repeat(a["v_prev"], 2)[::2]},
    "float32": lambda a: {**a, "W": a["W"].astype(np.float32)},
    "short": lambda a: {**a, "phi": a["phi"][:-1]},
    "lo_below_1": lambda a: {**a, "lo": 0},
    "hi_past_n_minus_2": lambda a: {**a, "hi": 499},
    "p_1.6": lambda a: {**a, "p": 1.6},
    "p_2.5": lambda a: {**a, "p": 2.5},
    "v_next_is_v_curr": lambda a: {**a, "v_next": a["v_curr"]},
    "v_next_shares_h": sharing_h,
}


def kernel_args():
    v_prev, v_curr, W, h, phi = make_problem()
    n = len(v_curr)
    return {"v_prev": v_prev, "v_curr": v_curr, "v_next": np.zeros(n), "W": W,
            "h": h, "phi": phi, "p": 2.0, "dt": 0.018, "inv_ds2": 1.0 / 0.02**2,
            "lo": 1, "hi": n - 2}


@needs_c
@pytest.mark.parametrize("case", BAD_INPUTS)
def test_c_kernel_rejects_bad_input(case):
    with pytest.raises(ValueError):
        C_KERNEL(*BAD_INPUTS[case](kernel_args()).values())


@needs_c
def test_c_kernel_accepts_aliased_inputs_and_adjacent_v_next():
    # Only v_next is written, so the inputs may share memory with each other,
    # and v_next may end exactly where an input begins.
    a = kernel_args()
    n = len(a["v_curr"])
    buf = np.concatenate([np.zeros(n), a["v_curr"]])
    shared = {**a, "v_prev": buf[n:], "v_curr": buf[n:], "v_next": buf[:n],
              "W": a["h"]}
    separate = {**a, "v_prev": a["v_curr"].copy(), "W": a["h"].copy()}
    assert C_KERNEL(*shared.values()) == C_KERNEL(*separate.values())
    np.testing.assert_array_equal(shared["v_next"], separate["v_next"])


def kernel_or_skip(name):
    if name not in backend.available_backends():
        pytest.skip("compiled kernel unavailable")
    return backend.available_backends()[name]


@pytest.mark.parametrize("name", ["numpy", "c"])
def test_empty_window_returns_zeros(name):
    kernel = kernel_or_skip(name)
    v_prev, v_curr, W, h, phi = make_problem()
    out = np.full(len(v_curr), 123.0)
    res = kernel(v_prev, v_curr, out, W, h, phi, 2.0, 0.018, 1.0 / 0.02**2, 10, 9)
    assert res == (0.0, 0.0, 0.0)
    assert np.all(out == 123.0)


def test_dispatcher_uses_numpy_off_quarter_exponents():
    # At p = 1.6 the compiled kernel would need a libm pow per node; the
    # dispatcher must send the step to numpy (the C kernel rejects it).
    v_prev, v_curr, W, h, phi = make_problem()
    n = len(v_curr)
    out = np.zeros(n)
    res = backend.leapfrog_window(v_prev, v_curr, out, W, h, phi, 1.6, 0.018,
                                  1.0 / 0.02**2, 1, n - 2)
    out_ref = np.zeros(n)
    ref = py_kernel(v_prev, v_curr, out_ref, W, h, phi, 1.6, 0.018,
                    1.0 / 0.02**2, 1, n - 2)
    np.testing.assert_array_equal(out, out_ref)
    assert res == ref


def test_dispatcher_uses_numpy_for_forcing():
    v_prev, v_curr, W, h, phi = make_problem()
    n = len(v_curr)
    forcing = np.full(n, 0.25)
    out = np.zeros(n)
    res = backend.leapfrog_window(v_prev, v_curr, out, W, h, phi, 2.0, 0.018,
                                  1.0 / 0.02**2, 1, n - 2, forcing=forcing)
    out_ref = np.zeros(n)
    ref = py_kernel(v_prev, v_curr, out_ref, W, h, phi, 2.0, 0.018,
                    1.0 / 0.02**2, 1, n - 2, forcing=forcing)
    np.testing.assert_array_equal(out, out_ref)
    assert res == ref


def test_kernel_window_confinement():
    # Nodes outside [lo-?, hi] windows are untouched.
    v_prev, v_curr, W, h, phi = make_problem()
    n = len(v_curr)
    out = np.full(n, 123.0)
    py_kernel(v_prev, v_curr, out, W, h, phi, 2.0, 0.018, 1.0 / 0.02**2, 100, 200)
    assert np.all(out[:100] == 123.0)
    assert np.all(out[201:] == 123.0)
    assert np.all(out[100:201] != 123.0)


def test_taylor_first_step_formula():
    v_prev, v0, W, h, phi = make_problem()
    vt0 = 0.3 * v0
    dt, ds = 0.01, 0.02
    v1 = taylor_first_step(v0, vt0, W, h, 2.0, dt, 1.0 / ds**2)
    lap = (v0[:-2] - 2 * v0[1:-1] + v0[2:]) / ds**2
    expect = (v0[1:-1] + dt * vt0[1:-1]
              + 0.5 * dt**2 * (lap - W[1:-1] * v0[1:-1] + h[1:-1] * vt0[1:-1]**2))
    np.testing.assert_allclose(v1[1:-1], expect, rtol=1e-13)
    assert v1[0] == 0.0 and v1[-1] == 0.0


def test_nan_propagates_to_sums():
    v_prev, v_curr, W, h, phi = make_problem()
    n = len(v_curr)
    v_curr = v_curr.copy()
    v_curr[n // 2] = np.nan
    out = np.zeros(n)
    max_vt, s1, s2 = backend.leapfrog_window(v_prev, v_curr, out, W, h, phi,
                                             2.0, 0.018, 1.0 / 0.02**2, 1, n - 2)
    assert not np.isfinite(max_vt + s1 + s2)


@pytest.mark.parametrize("name", ["numpy", "c"])
def test_nan_propagates_to_every_result(name):
    # A NaN node makes max |vt| NaN too, even with larger finite nodes after it.
    kernel = kernel_or_skip(name)
    v_prev, v_curr, W, h, phi = make_problem()
    n = len(v_curr)
    v_curr = v_curr.copy()
    v_curr[n // 4] = np.nan
    v_curr[n // 2] *= 100.0
    res = kernel(v_prev, v_curr, np.zeros(n), W, h, phi, 2.0, 0.018,
                 1.0 / 0.02**2, 1, n - 2)
    assert all(np.isnan(x) for x in res)


C_SHOOTER = getattr(backend._core_c, "shoot_phi", None)


def shooter_coefficients(M, A, s0, ds, m, flat):
    """c = W + A^2 at m nodes from s0 and their midpoints, as solve_phi builds it."""
    s_all = s0 + 0.5 * ds * np.arange(2 * m - 1)
    W = np.zeros(2 * m - 1) if flat else potential_W(M, s_all)
    return W + A * A


def shoot_both(c, A, ds):
    m = (len(c) + 1) // 2
    outs = []
    for twin in (_core_py.shoot_phi, C_SHOOTER):
        raw, draw, offs = np.empty(m), np.empty(m), np.empty(m)
        assert twin(c, raw, draw, offs, A, ds, _RENORM_CAP) is None
        outs.append((raw, draw, offs))
    return outs


@needs_c
def test_c_shooter_matches_python_loop_bit_for_bit():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # Wide s-ranges make phi pass the cap, so the log renormalisation runs.
    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(M=st.floats(0.25, 4.0), A_rel=st.floats(0.2, 3.0),
                      s0=st.floats(-200.0, 50.0), width=st.floats(1.0, 3000.0),
                      m=st.integers(2, 4000), flat=st.booleans())
    @hypothesis.example(M=1.0, A_rel=1.0, s0=-60.0, width=2500.0, m=4000, flat=False)
    @hypothesis.example(M=1.0, A_rel=1.0, s0=-60.0, width=2500.0, m=4000, flat=True)
    def check(M, A_rel, s0, width, m, flat):
        A = A_rel / (2.0 * M)
        ds = width / (m - 1)
        c = shooter_coefficients(M, A, s0, ds, m, flat)
        py, cc = shoot_both(c, A, ds)
        for a, b in zip(py, cc):
            np.testing.assert_array_equal(a, b)

    check()


@needs_c
@pytest.mark.parametrize("flat", [False, True], ids=["schwarzschild", "flat"])
def test_c_shooter_renormalises_like_python(flat):
    c = shooter_coefficients(1.0, 0.5, -60.0, 0.05, 52_001, flat)
    py, cc = shoot_both(c, 0.5, 0.05)
    assert py[2][-1] > 2 * math.log(_RENORM_CAP)  # renormalised at least twice
    for a, b in zip(py, cc):
        np.testing.assert_array_equal(a, b)


@needs_c
@pytest.mark.parametrize("M", [0.5, 1.0, 2.0])
def test_solve_phi_same_on_both_shooters(M, monkeypatch):
    grid = build_grid(ModelParams(M=M, p=2.0, epsilon=1.0, R=1.0), -30.0, 400.0, 8601)
    tables = []
    for twin in (_core_py.shoot_phi, C_SHOOTER):
        monkeypatch.setattr(backend, "shoot_phi", twin)
        tables.append(solve_phi(grid, 1.0 / (2.0 * M)))
    np.testing.assert_array_equal(tables[0].phi, tables[1].phi)
    np.testing.assert_array_equal(tables[0].dphi, tables[1].dphi)


# Each case maps the valid arguments (c, raw, draw, offs) to bad ones.
BAD_SHOOTER_INPUTS = {
    "strided_raw": lambda a: {**a, "raw": np.repeat(a["raw"], 2)[::2]},
    "float32_c": lambda a: {**a, "c": a["c"].astype(np.float32)},
    "int64_offs": lambda a: {**a, "offs": np.zeros(len(a["offs"]), dtype=np.int64)},
    "2d_draw": lambda a: {**a, "draw": a["draw"].reshape(1, -1)},
    "short_draw": lambda a: {**a, "draw": a["draw"][:-1]},
    "long_offs": lambda a: {**a, "offs": np.empty(len(a["offs"]) + 1)},
    "c_too_long": lambda a: {**a, "c": np.append(a["c"], 0.25)},
    "c_too_short": lambda a: {**a, "c": a["c"][:-1]},
    "empty": lambda a: {name: np.empty(0) for name in a},
}


@needs_c
@pytest.mark.parametrize("case", BAD_SHOOTER_INPUTS)
def test_c_shooter_rejects_bad_input(case):
    m = 50
    args = {"c": np.full(2 * m - 1, 0.25), "raw": np.empty(m), "draw": np.empty(m),
            "offs": np.empty(m)}
    with pytest.raises(ValueError):
        C_SHOOTER(*BAD_SHOOTER_INPUTS[case](args).values(), 0.5, 0.05, _RENORM_CAP)
