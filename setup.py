"""Build script for the optional compiled Numerov kernel.

The package is pure Python apart from etcrit._numerov, a hand-written C
twin of the pure-Python kernel in etcrit._numerov_py.  If the extension
cannot be built (no compiler) the install still succeeds and the
pure-Python kernel is used instead.
"""

import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

# -ffp-contract=off keeps the C arithmetic bit-identical to the pure-Python
# fallback (no fused multiply-add), which the kernel parity tests rely on.
if os.name == "nt":
    COMPILE_ARGS = ["/O2"]
else:
    COMPILE_ARGS = ["-O3", "-ffp-contract=off"]


class optional_build_ext(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler and friends
            print(f"warning: building etcrit._numerov failed ({exc}); "
                  "falling back to the pure-Python kernel")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: building {ext.name} failed ({exc}); "
                  "falling back to the pure-Python kernel")


ext_modules = []
if os.environ.get("ETCRIT_NO_EXTENSION") != "1":
    ext_modules = [Extension("etcrit._numerov", ["src/etcrit/_numerov.c"],
                             extra_compile_args=COMPILE_ARGS)]

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
