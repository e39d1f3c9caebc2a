"""The compiled twin built on first import (outreg.backend.build and the
__pycache__/ cache).  Each test that imports works on its own copy of the
package, so the checkout's cache is never touched, and starts at most two
children."""

import os
import shutil
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES

import pytest

import outreg
from outreg import backend

PKG = os.path.dirname(outreg.__file__)
PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(PKG)), "pyproject.toml")
PREFIX = "OUTREG_BACKEND=compiled but the outreg._kernel extension is not built"
REPORT = ("import sys, outreg.backend as b\n"
          "print(b.BACKEND, getattr(sys.modules.get('outreg._kernel'), '__file__', None))\n")


@pytest.fixture
def pkg(ckernel, tmp_path):
    """A copy of the package with no __pycache__/, on a machine that can
    build: the ckernel fixture skips where it cannot."""
    root = tmp_path / "src"
    shutil.copytree(PKG, root / "outreg", ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    return root


def _start(root, path=None, choice=None):
    env = {k: v for k, v in os.environ.items() if k != "OUTREG_BACKEND"}
    env["PYTHONPATH"] = str(root)
    if choice is not None:
        env["OUTREG_BACKEND"] = choice
    if path is not None:
        env["PATH"] = path
    return subprocess.Popen([sys.executable, "-c", REPORT], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _report(root, path=None, choice=None):
    proc = _start(root, path, choice)
    out, err = proc.communicate()
    return proc.returncode, out.split(), err


def _cache(root):
    cache = root / "outreg" / "__pycache__"
    return sorted(p.name for p in cache.iterdir()
                  if p.name.startswith("_kernel.")) if cache.exists() else []


def _marker(root):
    """The name of the marker a failed build of root's _kernel.c leaves."""
    return [n for n in _cache(root) if n.endswith(".failed")]


def test_an_install_ships_the_kernel_source():
    # an installed package builds the twin on first import as a checkout
    # does, so it needs _kernel.c; -ffp-contract=off is what keeps the
    # twins bit-identical
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        setuptools = tomllib.load(fh)["tool"]["setuptools"]
    assert "_kernel.c" in setuptools["package-data"]["outreg"]
    assert "-ffp-contract=off" in backend.FLAGS


def test_cold_import_builds_and_a_second_loads_it_without_a_compiler(pkg):
    rc, out, err = _report(pkg)
    assert rc == 0 and err == ""
    built = _cache(pkg)
    assert len(built) == 1 and built[0].endswith(".so")
    assert out == ["compiled", str(pkg / "outreg" / "__pycache__" / built[0])]
    # no compiler on PATH: only the cached file can give "compiled"
    rc, out2, err = _report(pkg, path="")
    assert rc == 0 and err == ""
    assert out2 == out
    assert _cache(pkg) == built


def test_a_changed_source_is_a_new_key(pkg):
    assert _report(pkg)[1][0] == "compiled"
    old = _cache(pkg)
    with open(pkg / "outreg" / "_kernel.c", "a", encoding="utf-8") as fh:
        fh.write("/* one more line */\n")
    # the old file no longer matches, and without a compiler nothing new is
    # built: only the new key's failure marker is added
    rc, out, err = _report(pkg, path="")
    assert (rc, out, err) == (0, ["python", "None"], "")
    new = _marker(pkg)
    assert len(new) == 1 and _cache(pkg) == sorted(old + new)


def test_an_extension_beside_the_modules_is_not_loaded(pkg, ckernel):
    # an extension an older editable install built in place is ignored:
    # the first import builds the edited source and loads that build
    shutil.copyfile(ckernel.__file__, pkg / "outreg" / ("_kernel" + EXTENSION_SUFFIXES[0]))
    with open(pkg / "outreg" / "_kernel.c", "a", encoding="utf-8") as fh:
        fh.write("/* one more line */\n")
    rc, out, err = _report(pkg)
    assert (rc, out[0], err) == (0, "compiled", "")
    assert os.path.dirname(out[1]) == str(pkg / "outreg" / "__pycache__")
    assert [os.path.basename(out[1])] == _cache(pkg)


def test_no_compiler_falls_back_silently_and_explains_when_forced(pkg):
    rc, out, err = _report(pkg, path="")
    assert (rc, out, err) == (0, ["python", "None"], "")
    rc, out, err = _report(pkg, path="", choice="compiled")
    assert rc != 0
    assert PREFIX + ": no C compiler: " in err
    assert "is not on PATH" in err
    # nothing was built: the one file is the failed build's marker
    assert _cache(pkg) == _marker(pkg) and len(_marker(pkg)) == 1


def test_a_failed_compile_names_the_compiler_error(pkg):
    with open(pkg / "outreg" / "_kernel.c", "a", encoding="utf-8") as fh:
        fh.write("#error outreg test: broken source\n")
    rc, out, err = _report(pkg)
    assert (rc, out, err) == (0, ["python", "None"], "")
    rc, out, err = _report(pkg, choice="compiled")
    assert rc != 0
    assert PREFIX + ": " in err and "failed: " in err
    assert "broken source" in err.strip().splitlines()[-1]
    # the failed builds leave no temp file behind, only their marker
    assert _cache(pkg) == _marker(pkg) and len(_marker(pkg)) == 1


def test_concurrent_cold_imports_leave_one_file(pkg):
    procs = [_start(pkg), _start(pkg)]
    results = [(out.split(), err) for out, err in (p.communicate() for p in procs)]
    built = _cache(pkg)
    assert len(built) == 1 and built[0].endswith(".so")
    expect = ["compiled", str(pkg / "outreg" / "__pycache__" / built[0])]
    assert results == [(expect, ""), (expect, "")]
    assert [p.returncode for p in procs] == [0, 0]


def test_a_rebuild_removes_the_old_key(pkg):
    assert _report(pkg)[1][0] == "compiled"
    old = _cache(pkg)
    cache = pkg / "outreg" / "__pycache__"
    # not builds, so they stay: another file, and a concurrent build's temp file
    tmp = old[0] + ".concurrent.tmp"
    for name in ("other.pyc", tmp):
        (cache / name).write_bytes(b"")
    keep = sorted(p.name for p in cache.iterdir() if p.name not in old)
    with open(pkg / "outreg" / "_kernel.c", "a", encoding="utf-8") as fh:
        fh.write("/* one more line */\n")
    # with a compiler the changed source builds, and only its key stays
    rc, out, err = _report(pkg)
    new = [name for name in _cache(pkg) if name != tmp]
    assert (rc, err) == (0, "")
    assert len(new) == 1 and new != old and new[0].endswith(".so")
    assert out == ["compiled", str(cache / new[0])]
    assert sorted(p.name for p in cache.iterdir() if p.name not in new) == keep


def test_a_failed_build_is_not_retried_until_forced(pkg):
    # the first import finds no compiler and leaves the reason in a marker
    assert _report(pkg, path="")[:2] == (0, ["python", "None"])
    (marker,) = _marker(pkg)
    reason = (pkg / "outreg" / "__pycache__" / marker).read_text(encoding="utf-8")
    assert reason.startswith("no C compiler: ") and reason.endswith("is not on PATH")
    # a later default import falls back on the marker alone: it imports
    # none of the build's modules, and builds nothing though a compiler is
    # on PATH now
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import outreg.backend as b\n"
            "print(b.BACKEND, sorted({'subprocess', 'sysconfig'} & (set(sys.modules) - before)))\n")
    env = {k: v for k, v in os.environ.items() if k != "OUTREG_BACKEND"}
    env["PYTHONPATH"] = str(pkg)
    done = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "python []\n", "")
    assert _cache(pkg) == [marker]
    # forcing the compiled twin ignores the marker: without a compiler it
    # builds again and raises the reason, with one it builds, and the build
    # removes the marker
    rc, out, err = _report(pkg, path="", choice="compiled")
    assert rc != 0 and PREFIX + ": " + reason in err
    rc, out, err = _report(pkg, choice="compiled")
    built = _cache(pkg)
    assert (rc, err) == (0, "") and len(built) == 1 and built[0].endswith(".so")
    assert out == ["compiled", str(pkg / "outreg" / "__pycache__" / built[0])]
    assert _report(pkg, path="") == (0, out, "")
