import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import outreg
from outreg.scenario import ScenarioConfig, with_overrides

# exact steady-state initial data for the stock benchmark: plant on the
# regulator-equation solution, filters at theta = Q xi(v(0)).  From here the
# loop has nothing to learn and the error stays at integration-noise level,
# which makes a clean regression scenario (see tests that use it).
STEADY_X0 = (1.0, 0.5)
STEADY_ETA1 = (0.06747511312217194, 0.00448868778280543,
               -0.016868778280542986, -0.0011221719457013574)
STEADY_ETA2 = (0.38639929937691186, -0.6123391256240911,
               -0.10734107266496068, 0.2836164691585286,
               0.05100307576288878, -0.36460041473277044,
               -0.06712833603318155, 0.7519667729302537)


@pytest.fixture
def steady_cfg():
    return with_overrides(ScenarioConfig(), x0=STEADY_X0,
                          eta1_0=STEADY_ETA1, eta2_0=STEADY_ETA2)


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
