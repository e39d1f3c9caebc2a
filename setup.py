"""Build script: compiles the closed-loop kernel, a hand-written C twin of
outreg._kernel_py.  The extension is optional -- without a C compiler the
install still succeeds and the pure-Python twin runs instead (same
arithmetic, much slower).
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "outreg._kernel",
            ["src/outreg/_kernel.c"],
            # -ffp-contract=off: no FMA contraction, so the compiled kernel is
            # bit-identical to the pure-Python twin
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
