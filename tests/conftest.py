import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES

import pytest

from outreg import backend
from outreg.scenario import ScenarioConfig, steady_start

# the stock benchmark started on its steady orbit (`init = steady`)
STEADY_SCN = os.path.join(os.path.dirname(__file__), "..", "scenarios", "steady_start.scn")


def y0(cfg):
    """The kernel's 17-entry initial state of cfg, as simulate.run packs it."""
    return [*cfg.x0, *cfg.v0, *cfg.eta1_0, *cfg.eta2_0, cfg.khat0]


@pytest.fixture
def steady_cfg():
    """The stock benchmark started on its steady orbit: plant on the
    regulator-equation solution, filters at theta = Q xi(v(0)).  From here
    the loop has nothing to learn and the error stays at integration-noise
    level, which makes a clean regression scenario (see tests that use it)."""
    return steady_start(ScenarioConfig())


@pytest.fixture(scope="session")
def ckernel(tmp_path_factory):
    """The compiled twin, built from the tracked _kernel.c by the package's
    own recipe (outreg.backend.build) with warnings as errors, to keep the
    hand-written source clean.  It is loaded privately (not into
    sys.modules), so the rest of the suite keeps the backend that
    outreg.backend chose at import, and a run under OUTREG_BACKEND=python
    still checks twin parity.  A warning fails it; without a compiler or a
    _kernel.c it is the installed extension."""
    so = tmp_path_factory.mktemp("kernel") / ("_kernel" + EXTENSION_SUFFIXES[0])
    try:
        backend.build(so, extra_flags=("-Wall", "-Wextra", "-Werror"))
    except backend.CompileError:
        raise
    except backend.BuildError as exc:
        try:
            from outreg import _kernel
        except ImportError:
            pytest.skip("no outreg._kernel extension and no build: %s" % exc)
        return _kernel
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
