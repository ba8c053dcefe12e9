"""Build script for the optional compiled kernel extension.

The package works without the extension: ``logladder._backend`` falls back
to the pure-Python kernels at import time, so a machine without a C
compiler still installs.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Try to build the accelerator; never fail the install over it."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, bad toolchain, ...
            print(f"logladder: skipping compiled kernels ({exc}); "
                  "using the pure-Python fallback")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"logladder: could not compile {ext.name} ({exc}); "
                  "using the pure-Python fallback")


kernels = Extension(
    "logladder._kernels",
    ["src/logladder/_kernels.c"],
    # -ffp-contract=off keeps the compiled kernels bit-identical to the
    # pure-Python ones (no FMA contraction of a*b+c).
    extra_compile_args=["-O2", "-ffp-contract=off"],
)

setup(ext_modules=[kernels], cmdclass={"build_ext": optional_build_ext})
