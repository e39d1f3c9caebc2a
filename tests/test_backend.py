import itertools
import os
import subprocess
import sys

import pytest

from outreg import _kernel_py
from outreg.linalg import determinant
from outreg.mapping import MappingConfig, estimate_coeffs, hankel
from outreg.scenario import ScenarioConfig, with_overrides


@pytest.fixture(params=["python", "compiled"])
def kern(request):
    if request.param == "python":
        return _kernel_py
    return request.getfixturevalue("ckernel")


def _y0(cfg):
    return [*cfg.x0, *cfg.v0, *cfg.eta1_0, *cfg.eta2_0, cfg.khat0]


def _args(cfg, y0, n_steps, stride, mode=0):
    return (y0, cfg.h, n_steps, stride, cfg.c1, cfg.c2, cfg.c3, cfg.sigma,
            cfg.m1, cfg.m2, cfg.epsilon, cfg.mask1, cfg.mask2,
            cfg.rho.coeffs, cfg.k.coeffs, cfg.k0, mode,
            cfg.disturbance_amp, cfg.disturbance_freq)


def _assert_identical(a, b):
    ra, da, ya = a
    rb, db, yb = b
    assert da == db
    assert len(ra) == len(rb)
    for x, y in zip(ra, rb):
        assert tuple(x) == tuple(y)
    assert list(ya) == list(yb)


def test_twins_bit_identical_steady(ckernel, steady_cfg):
    args = _args(steady_cfg, _y0(steady_cfg), 2000, 10)
    _assert_identical(_kernel_py.run_closed_loop(*args),
                      ckernel.run_closed_loop(*args))


def test_twins_bit_identical_divergent(ckernel):
    cfg = ScenarioConfig()
    y0 = [1.0, -1.0, 1.0, 1.0] + [0.0] * 13
    args = _args(cfg, y0, 100000, 10)
    a = _kernel_py.run_closed_loop(*args)
    b = ckernel.run_closed_loop(*args)
    _assert_identical(a, b)
    assert a[1] == pytest.approx(0.117, abs=1e-12)


def test_twins_bit_identical_all_modes(ckernel, steady_cfg):
    for mode in (0, 1, 2):
        args = _args(steady_cfg, _y0(steady_cfg), 1500, 7, mode=mode)
        _assert_identical(_kernel_py.run_closed_loop(*args),
                          ckernel.run_closed_loop(*args))


def test_twins_bit_identical_with_disturbance(ckernel, steady_cfg):
    args = _args(steady_cfg, _y0(steady_cfg), 1500, 10)
    args = args[:17] + (0.05, 7.0)
    _assert_identical(_kernel_py.run_closed_loop(*args),
                      ckernel.run_closed_loop(*args))


def test_kernel_input_validation(kern):
    cfg = ScenarioConfig()
    with pytest.raises(ValueError):
        kern.run_closed_loop(*_args(cfg, [0.0] * 16, 10, 1))
    with pytest.raises(ValueError):
        kern.run_closed_loop(*_args(cfg, [0.0] * 17, 10, 0))
    with pytest.raises(ValueError):
        kern.run_closed_loop(*(_args(cfg, [0.0] * 17, 10, 1) + (-1.0,)))
    bad = _args(cfg, [0.0] * 17, 10, 1)
    bad = bad[:8] + ((1.0, 2.0),) + bad[9:]  # m1 too short
    with pytest.raises(ValueError):
        kern.run_closed_loop(*bad)


def _bits(mask):
    return "".join("1" if v else "0" for v in mask)


_MASK1S = list(itertools.product((False, True), repeat=2))
_MASK2S = list(itertools.product((False, True), repeat=4))


@pytest.mark.parametrize("mask2", _MASK2S, ids=_bits)
@pytest.mark.parametrize("mask1", _MASK1S, ids=_bits)
def test_kernel_aux_matches_module_path(kern, steady_cfg, mask1, mask2):
    # the record's auxiliaries must agree with the module-level operations
    # (different summation orders, so relative tolerance, not bit equality)
    # under every mask, since a twin may skip the cofactors a mask discards
    from outreg.controller import GainConfig, control_nonadaptive, zeta

    cfg = with_overrides(steady_cfg, mask1=mask1, mask2=mask2)
    cfg1 = MappingConfig(n=2, m=cfg.m1, epsilon=cfg.epsilon, zero_mask=cfg.mask1)
    cfg2 = MappingConfig(n=4, m=cfg.m2, epsilon=cfg.epsilon, zero_mask=cfg.mask2)
    gains = GainConfig(rho=cfg.rho, k=cfg.k, k0=cfg.k0)
    y0 = _y0(cfg)
    y0[5] += 0.31  # knock the filters off the invariant set
    y0[10] -= 0.17
    records, _, _ = kern.run_closed_loop(*_args(cfg, y0, 1, 1))
    t, x1, x2, e, zv, u, a11, a21, a23, det1, det2, khat = records[0]
    eta1 = y0[4:8]
    eta2 = y0[8:16]
    assert e == y0[0] - y0[2]
    est1 = estimate_coeffs(eta1, cfg1)
    est2 = estimate_coeffs(eta2, cfg2)
    assert a11 == pytest.approx(est1.a[0], rel=1e-10)
    assert a21 == pytest.approx(est2.a[0], rel=1e-10)
    assert a23 == pytest.approx(est2.a[2], rel=1e-10)
    assert det1 == pytest.approx(determinant(hankel(eta1)), rel=1e-10)
    assert det2 == pytest.approx(determinant(hankel(eta2)), rel=1e-10)
    zm = zeta(y0[1], eta1, e, gains, cfg1)
    assert zv == pytest.approx(zm, rel=1e-10)
    assert u == pytest.approx(control_nonadaptive(zm, eta2, gains, cfg2), rel=1e-10)


def test_backend_env_override():
    # forcing "compiled" needs the installed extension, not a test build
    pytest.importorskip("outreg._kernel")
    code = "import outreg.backend as b; print(b.BACKEND)"
    for forced in ("python", "compiled"):
        env = dict(os.environ, OUTREG_BACKEND=forced)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == forced
    env = dict(os.environ, OUTREG_BACKEND="fortran")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode != 0


def test_twins_identical_on_overflowing_step(ckernel):
    # a state big enough that an RK4 stage overflows to inf and the Hankel
    # determinant becomes nan mid-step; C division quietly produces nan/inf
    # and the python twin must do the same instead of raising
    cfg = ScenarioConfig()
    y0 = [1e9, 0.0, 1.0, 1.0] + [0.0] * 12 + [0.0]
    out_c = ckernel.run_closed_loop(*_args(cfg, y0, 5, 1))
    out_p = _kernel_py.run_closed_loop(*_args(cfg, y0, 5, 1))
    rc, dc, yc = out_c
    rp, dp, yp = out_p
    assert dc == dp == pytest.approx(cfg.h)
    assert len(rc) == len(rp)
    for a, b in zip(rc, rp):
        assert tuple(a) == tuple(b)
    for a, b in zip(yc, yp):
        assert a == b or (a != a and b != b)  # nan-aware exact match
