"""Kernel backend selection.

The closed-loop integrator exists twice: a compiled extension and a pure
Python fallback written to perform identical floating-point work (see
_kernel_py).  Import prefers the compiled one: an installed outreg._kernel
extension, else _kernel.c built here on first import into the package's
__pycache__/, under a name keyed by the source bytes and FLAGS.  Every later
import loads that file without running the compiler.  Without a C compiler,
Python.h or a writable __pycache__/, import silently falls back to the
Python twin.  Set OUTREG_BACKEND=python or OUTREG_BACKEND=compiled to force
a choice; forcing the compiled backend raises, with the reason, if no
extension imports or builds.
"""

import os
import sys

# setup.py's extra_compile_args (a test pins the two): -ffp-contract=off
# forbids FMA contraction, so the compiled twin is bit-identical to the
# pure-Python one
FLAGS = ("-O3", "-ffp-contract=off")

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")


class BuildError(Exception):
    """_kernel.c could not be built or loaded here; the message says why."""


class CompileError(BuildError):
    """The compiler ran on _kernel.c and failed."""


def build(so_path, extra_flags=()):
    """Compile _kernel.c with FLAGS, then extra_flags, into the extension
    so_path.  The compiler writes a temp file beside so_path that os.replace
    moves into place, so a concurrent reader sees no file or a whole one.
    Raises BuildError naming what is missing, or CompileError with the
    compiler's last error line."""
    # only a build needs these, so a cache hit never imports them
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    cc_path = shutil.which(cc)
    if cc_path is None:
        raise BuildError("no C compiler: %r is not on PATH" % cc)
    paths = sysconfig.get_paths()
    if not os.path.exists(os.path.join(paths["include"], "Python.h")):
        raise BuildError("no Python.h in %s" % paths["include"])
    folder = os.path.dirname(os.path.abspath(so_path))
    try:
        os.makedirs(folder, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(so_path) + ".", suffix=".tmp",
                                   dir=folder)
        os.close(fd)
    except OSError as exc:
        raise BuildError("cannot write %s: %s" % (folder, exc.strerror or exc)) from None
    try:
        done = subprocess.run(
            [cc_path, *FLAGS, *extra_flags, "-shared", "-fPIC", "-I" + paths["include"],
             "-I" + paths["platinclude"], _SOURCE, "-o", tmp],
            capture_output=True, text=True)
        if done.returncode != 0:
            # the last "error:" line, not the source or caret line under it
            lines = done.stderr.strip().splitlines()
            lines = [ln for ln in lines if "error:" in ln] or lines
            raise CompileError("%s failed: %s" % (cc, lines[-1].strip() if lines
                                                 else "exit status %d" % done.returncode))
        # mkstemp's 0600 would keep the shared library from other users
        os.chmod(tmp, 0o755)
        os.replace(tmp, so_path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _compiled():
    """The compiled twin: the installed extension, else the one built here."""
    try:
        from . import _kernel

        return _kernel
    except ImportError:
        pass
    import importlib.machinery
    import importlib.util
    import zlib

    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
    except OSError as exc:
        raise BuildError("cannot read %s: %s" % (_SOURCE, exc.strerror or exc)) from None
    key = zlib.crc32(" ".join(FLAGS).encode(), zlib.crc32(source))
    so_path = os.path.join(os.path.dirname(_SOURCE), "__pycache__", "_kernel.%08x%s"
                           % (key, importlib.machinery.EXTENSION_SUFFIXES[0]))
    if not os.path.exists(so_path):
        build(so_path)
    name = __package__ + "._kernel"
    spec = importlib.util.spec_from_file_location(name, so_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # what `import outreg._kernel` would have done, so perfbench's
    # `from outreg import _kernel` finds it
    sys.modules[name] = module
    setattr(sys.modules[__package__], "_kernel", module)
    return module


_choice = os.environ.get("OUTREG_BACKEND", "").strip().lower()
if _choice not in ("", "compiled", "python"):
    raise ValueError("OUTREG_BACKEND must be 'compiled' or 'python', got %r" % _choice)

_impl = None
if _choice != "python":
    try:
        _impl = _compiled()
    except (BuildError, ImportError) as exc:
        if _choice == "compiled":
            raise ImportError("OUTREG_BACKEND=compiled but the outreg._kernel extension "
                              "is not built: %s" % exc) from None

if _impl is None:
    from . import _kernel_py as _impl

    BACKEND = "python"
else:
    BACKEND = "compiled"

run_closed_loop = _impl.run_closed_loop
