"""Selects kernel and phi shooter: the compiled C core or its Python twins.

The compiled extension is optional: BACKEND is "c" when it is built and
"numpy" otherwise; the numpy kernel has identical semantics and the Python
shoot_phi gives bit-identical phi.  Both kernels stay reachable through
available_backends().  KERNEL_ISA names the instruction set of the compiled
kernel copy in use ("avx512f", "avx2" or "default"; None on the numpy
backend).
"""

from __future__ import annotations

from . import _core_py

try:  # pragma: no cover - depends on the build environment
    from . import _core_c
except ImportError:  # pragma: no cover
    _core_c = None

if _core_c is not None:
    BACKEND = "c"
    KERNEL_ISA = _core_c.ISA
    _default = _core_c.leapfrog_window
    shoot_phi = _core_c.shoot_phi
else:
    BACKEND = "numpy"
    KERNEL_ISA = None
    _default = _core_py.leapfrog_window
    shoot_phi = _core_py.shoot_phi

# Exponents the C kernel evaluates with sqrt chains; at any other p a scalar
# libm pow per node is slower than numpy's vectorised power.
C_EXPONENTS = frozenset((1.0, 1.25, 1.5, 1.75, 2.0))

taylor_first_step = _core_py.taylor_first_step


def leapfrog_window(*args, forcing=None):
    """Dispatch one leapfrog step (args as in _core_py.leapfrog_window).

    The default backend runs at the exponents in C_EXPONENTS; forced runs
    and every other p use the numpy kernel.
    """
    if forcing is None and args[6] in C_EXPONENTS:
        return _default(*args)
    return _core_py.leapfrog_window(*args, forcing=forcing)


def available_backends() -> dict:
    """Name -> kernel mapping for benchmarks and equivalence tests."""
    out = {"numpy": _core_py.leapfrog_window}
    if _core_c is not None:
        out["c"] = _core_c.leapfrog_window
    return out
