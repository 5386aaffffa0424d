"""Build script: compiles the optional plain-C stepping kernel.

The package works without the extension (a numpy fallback is selected at
import time), so any build failure here only costs speed, not features.
No -march=native: fused multiply-adds would change rounding against the
numpy twin, and -ffp-contract=off keeps compilers that default to
contraction from fusing.  The kernel carries its own AVX-512F and AVX2
clones (no FMA) on x86-64 glibc, one chosen when the module loads.
-fno-math-errno lets the kernel's sqrt vectorize; its arguments are never
negative and nothing reads errno.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Skip the extension instead of failing the install on build errors.

    Always recompiles: the up-to-date check compares file times only, so a
    module newer than an edited _core_c.c would otherwise be kept.
    """

    def finalize_options(self):
        super().finalize_options()
        self.force = True

    def run(self):
        try:
            super().run()
        except Exception as exc:  # pragma: no cover
            warnings.warn(f"compiled kernels disabled ({exc}); using numpy fallback")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # pragma: no cover
            warnings.warn(f"compiled kernels disabled ({exc}); using numpy fallback")


setup(
    ext_modules=[Extension("schwave._core_c", ["src/schwave/_core_c.c"],
                           extra_compile_args=["-O3", "-ffp-contract=off",
                                               "-fno-math-errno"])],
    cmdclass={"build_ext": OptionalBuildExt},
)
