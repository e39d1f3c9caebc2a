import importlib.util
import os
import struct
import sys
from importlib.machinery import EXTENSION_SUFFIXES

import pytest

from outreg import _kernel_py, backend
from outreg.scenario import ScenarioConfig, steady_start
from outreg.simulate import _initial_state, _kernel_args

# the stock benchmark started on its steady orbit (`init = steady`)
STEADY_SCN = os.path.join(os.path.dirname(__file__), "..", "scenarios", "steady_start.scn")

_QNAN = struct.pack("<Q", 0x7FF8000000000000)


def pack_bits(vals):
    """vals as float64 bytes: signed zeros differ, and every nan is one
    canonical quiet nan, since a nan's sign and payload are not part of the
    twins' contract."""
    return b"".join(_QNAN if v != v else struct.pack("<d", v) for v in vals)


def run_twin(kern, cfg, y0=None):
    """kern.run_closed_loop on cfg as simulate.integrate packs it: the state
    at t = 0 (or y0), cfg's h, n_steps and stride, and the kernel arguments
    of cfg's mode."""
    return kern.run_closed_loop(y0 or _initial_state(cfg), cfg.h, cfg.n_steps, cfg.stride,
                                *_kernel_args(cfg, cfg.mode))


@pytest.fixture
def steady_cfg():
    """The stock benchmark started on its steady orbit: plant on the
    regulator-equation solution, filters at theta = Q xi(v(0)).  From here
    the loop has nothing to learn and the error stays at integration-noise
    level, which makes a clean regression scenario (see tests that use it)."""
    return steady_start(ScenarioConfig())


@pytest.fixture(params=["python", "compiled"])
def kern(request):
    """Each kernel twin in turn; the compiled one as the ckernel fixture
    builds it."""
    if request.param == "python":
        return _kernel_py
    return request.getfixturevalue("ckernel")


def _build_private(tmp_path_factory, extra_flags=()):
    """_kernel.c built by outreg.backend.build with warnings as errors and
    extra_flags, then loaded privately (not into sys.modules); skips the
    test without a compiler or Python.h, with the build's reason."""
    so = tmp_path_factory.mktemp("kernel") / ("_kernel" + EXTENSION_SUFFIXES[0])
    try:
        backend.build(so, extra_flags=("-Wall", "-Wextra", "-Werror", *extra_flags))
    except backend.CompileError:
        raise
    except backend.BuildError as exc:
        pytest.skip("the C twin does not build here: %s" % exc)
    name = "outreg._kernel"
    # the extension's own init registers it over any backend-loaded twin;
    # put back what was there
    prev = sys.modules.get(name)
    spec = importlib.util.spec_from_file_location(name, so)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    if prev is None:
        sys.modules.pop(name, None)
    else:
        sys.modules[name] = prev
    return mod


@pytest.fixture(scope="session")
def ckernel(tmp_path_factory):
    """The compiled twin, built from the tracked _kernel.c by the package's
    own recipe (outreg.backend.build) with warnings as errors, to keep the
    hand-written source clean.  It is loaded privately (not into
    sys.modules), so the rest of the suite keeps the backend that
    outreg.backend chose at import, and a run under OUTREG_BACKEND=python
    still checks twin parity.  A warning fails it; without a compiler or
    Python.h it skips, with the build's reason."""
    return _build_private(tmp_path_factory)


@pytest.fixture(scope="session")
def ckernel_no_int128(tmp_path_factory):
    """The compiled twin built as ckernel is, but with __SIZEOF_INT128__
    undefined, as on a compiler without 128-bit integers: its formatters
    print every value through CPython's PyOS_double_to_string."""
    return _build_private(tmp_path_factory, ("-U__SIZEOF_INT128__",))
