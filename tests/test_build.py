"""The compiled twin built on first import (outreg.backend.build and the
__pycache__/ cache).  Each test that imports works on its own copy of the
package, so the checkout's cache is never touched, and starts at most two
children."""

import ast
import os
import shutil
import subprocess
import sys

import pytest

import outreg
from outreg import backend

PKG = os.path.dirname(outreg.__file__)
SETUP_PY = os.path.join(os.path.dirname(os.path.dirname(PKG)), "setup.py")
PREFIX = "OUTREG_BACKEND=compiled but the outreg._kernel extension is not built"
REPORT = ("import sys, outreg.backend as b\n"
          "print(b.BACKEND, getattr(sys.modules.get('outreg._kernel'), '__file__', None))\n")


@pytest.fixture
def pkg(ckernel, tmp_path):
    """A copy of the package with no __pycache__/, on a machine that can
    build: the ckernel fixture built its twin instead of falling back to
    the installed extension."""
    if ckernel is sys.modules.get("outreg._kernel"):
        pytest.skip("ckernel is the installed extension: no compiler here")
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


def test_setup_py_compiles_with_the_package_flags():
    # setup.py's extension and a checkout's first-import build use one
    # flag tuple; -ffp-contract=off is what keeps the twins bit-identical
    tree = ast.parse(open(SETUP_PY, encoding="utf-8").read())
    args = [ast.literal_eval(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.keyword) and node.arg == "extra_compile_args"]
    assert args == [list(backend.FLAGS)]
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
    # the old file no longer matches, and without a compiler nothing new is built
    rc, out, err = _report(pkg, path="")
    assert (rc, out, err) == (0, ["python", "None"], "")
    assert _cache(pkg) == old


def test_no_compiler_falls_back_silently_and_explains_when_forced(pkg):
    rc, out, err = _report(pkg, path="")
    assert (rc, out, err) == (0, ["python", "None"], "")
    rc, out, err = _report(pkg, path="", choice="compiled")
    assert rc != 0
    assert PREFIX + ": no C compiler: " in err
    assert "is not on PATH" in err
    assert _cache(pkg) == []


def test_a_failed_compile_names_the_compiler_error(pkg):
    with open(pkg / "outreg" / "_kernel.c", "a", encoding="utf-8") as fh:
        fh.write("#error outreg test: broken source\n")
    rc, out, err = _report(pkg)
    assert (rc, out, err) == (0, ["python", "None"], "")
    rc, out, err = _report(pkg, choice="compiled")
    assert rc != 0
    assert PREFIX + ": " in err and "failed: " in err
    assert "broken source" in err.strip().splitlines()[-1]
    # the failed builds leave no temp file behind
    assert _cache(pkg) == []


def test_concurrent_cold_imports_leave_one_file(pkg):
    procs = [_start(pkg), _start(pkg)]
    results = [(out.split(), err) for out, err in (p.communicate() for p in procs)]
    built = _cache(pkg)
    assert len(built) == 1 and built[0].endswith(".so")
    expect = ["compiled", str(pkg / "outreg" / "__pycache__" / built[0])]
    assert results == [(expect, ""), (expect, "")]
    assert [p.returncode for p in procs] == [0, 0]

