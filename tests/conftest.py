import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import outreg
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
    """The compiled twin: the installed extension if there is one, else the
    tracked C source built with gcc.  The built module is loaded privately
    (not into sys.modules), so the rest of the suite keeps the backend
    that outreg.backend chose at import."""
    try:
        from outreg import _kernel

        return _kernel
    except ImportError:
        pass
    gcc = shutil.which("gcc")
    paths = sysconfig.get_paths()
    if gcc is None or not os.path.exists(os.path.join(paths["include"], "Python.h")):
        pytest.skip("no outreg._kernel extension and no gcc + Python.h to build one")
    src = Path(outreg.__file__).with_name("_kernel.c")
    if not src.exists():
        pytest.skip("no outreg._kernel extension and no _kernel.c to build one")
    so = tmp_path_factory.mktemp("kernel") / ("_kernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    # setup.py's flags (-ffp-contract=off: no FMA contraction), plus warnings
    # as errors to keep the hand-written source clean
    cmd = [gcc, "-O3", "-ffp-contract=off", "-Wall", "-Wextra", "-Werror", "-shared",
           "-fPIC", "-I" + paths["include"], "-I" + paths["platinclude"], str(src),
           "-o", str(so)]
    built = subprocess.run(cmd, capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
    spec = importlib.util.spec_from_file_location("outreg._kernel", so)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    # the extension's own init registers it; undo that
    sys.modules.pop("outreg._kernel", None)
    return mod
