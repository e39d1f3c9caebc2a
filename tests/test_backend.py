import itertools
import os
import struct
import subprocess
import sys

import pytest
from conftest import y0

from outreg import _kernel_py
from outreg.linalg import determinant
from outreg.mapping import MappingConfig, estimate_coeffs, hankel
from outreg.scenario import ScenarioConfig, with_overrides


@pytest.fixture(params=["python", "compiled"])
def kern(request):
    if request.param == "python":
        return _kernel_py
    return request.getfixturevalue("ckernel")


def _args(cfg, y0, n_steps, stride, mode=0):
    return (y0, cfg.h, n_steps, stride, cfg.c1, cfg.c2, cfg.c3, cfg.sigma,
            cfg.m1, cfg.m2, cfg.epsilon, cfg.mask1, cfg.mask2,
            cfg.rho.coeffs, cfg.k.coeffs, cfg.k0, mode,
            cfg.disturbance_amp, cfg.disturbance_freq)


def _assert_identical(a, b):
    ra, da, ya = a
    rb, db, yb = b
    assert da == db
    assert ra.shape == rb.shape
    assert ra.tolist() == rb.tolist()
    assert list(ya) == list(yb)


_QNAN = struct.pack("<Q", 0x7FF8000000000000)


def _canonical_bytes(records):
    # the records' float64 bytes with every nan as one canonical quiet nan
    flat = records.cast("B").cast("d")
    return b"".join(_QNAN if v != v else struct.pack("<d", v) for v in flat)


def test_twins_bit_identical_steady(ckernel, steady_cfg):
    args = _args(steady_cfg, y0(steady_cfg), 2000, 10)
    _assert_identical(_kernel_py.run_closed_loop(*args),
                      ckernel.run_closed_loop(*args))


def test_one_step_calls_chain_into_one_run(kern, steady_cfg):
    # five one-step calls, each with its clock at t0 = i*h, give the rows and
    # final state of one five-step call bit for bit, disturbance phase included
    cfg = with_overrides(steady_cfg, disturbance_amp=0.05, disturbance_freq=7.0)
    records, _, y_run = kern.run_closed_loop(*_args(cfg, y0(cfg), 5, 1))
    rows = []
    y = y0(cfg)
    for i in range(5):
        rec, diverged_at, y = kern.run_closed_loop(*_args(cfg, y, 1, 1), i * cfg.h)
        assert diverged_at == -1.0
        rows += rec.tolist()[:1 if i < 4 else 2]
    assert rows == records.tolist()
    assert list(y) == list(y_run)


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
        args = _args(steady_cfg, y0(steady_cfg), 1500, 7, mode=mode)
        _assert_identical(_kernel_py.run_closed_loop(*args),
                          ckernel.run_closed_loop(*args))


def test_twins_bit_identical_with_disturbance(ckernel, steady_cfg):
    args = _args(steady_cfg, y0(steady_cfg), 1500, 10)
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


_BAD_STEPS = [
    # a negative count would still record one row, at t0 + n_steps * h
    (1e-3, -5, "n_steps must be >= 0, got -5"),
    # h <= 0 runs the clock backwards, so diverged_at could be negative and
    # read as -1.0; a nan h would report diverged_at = nan
    (0.0, 10, "h must be finite and > 0, got 0.0"),
    (-1e-3, 10, "h must be finite and > 0, got -0.001"),
    (float("nan"), 10, "h must be finite and > 0, got nan"),
    (float("inf"), 10, "h must be finite and > 0, got inf"),
]


@pytest.mark.parametrize("h, n_steps, message", _BAD_STEPS)
def test_kernel_rejects_bad_step(kern, h, n_steps, message):
    args = _args(ScenarioConfig(), [0.0] * 17, n_steps, 1)
    with pytest.raises(ValueError) as err:
        kern.run_closed_loop(args[0], h, *args[2:])
    assert str(err.value) == message


@pytest.mark.parametrize("mode", [-1, 3, 7])
def test_kernel_rejects_unknown_mode(kern, mode):
    # any mode but 1 or 2 would otherwise run as nonadaptive
    args = _args(ScenarioConfig(), [0.0] * 17, 10, 1, mode=mode)
    with pytest.raises(ValueError) as err:
        kern.run_closed_loop(*args)
    assert str(err.value) == "mode must be 0, 1 or 2, got %d" % mode


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
    state = y0(cfg)
    state[5] += 0.31  # knock the filters off the invariant set
    state[10] -= 0.17
    records, _, _ = kern.run_closed_loop(*_args(cfg, state, 1, 1))
    t, x1, x2, e, zv, u, a11, a21, a23, det1, det2, khat = records.tolist()[0]
    eta1 = state[4:8]
    eta2 = state[8:16]
    assert e == state[0] - state[2]
    est1 = estimate_coeffs(eta1, cfg1)
    est2 = estimate_coeffs(eta2, cfg2)
    assert a11 == pytest.approx(est1.a[0], rel=1e-10)
    assert a21 == pytest.approx(est2.a[0], rel=1e-10)
    assert a23 == pytest.approx(est2.a[2], rel=1e-10)
    assert det1 == pytest.approx(determinant(hankel(eta1)), rel=1e-10)
    assert det2 == pytest.approx(determinant(hankel(eta2)), rel=1e-10)
    zm = zeta(state[1], eta1, e, gains, cfg1)
    assert zv == pytest.approx(zm, rel=1e-10)
    assert u == pytest.approx(control_nonadaptive(zm, eta2, gains, cfg2), rel=1e-10)


def _forced_backend(forced):
    import outreg

    src = os.path.dirname(os.path.dirname(outreg.__file__))
    env = dict(os.environ, OUTREG_BACKEND=forced, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", "import outreg.backend as b; print(b.BACKEND)"],
                          env=env, capture_output=True, text=True)


def test_backend_env_override():
    out = _forced_backend("python")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "python"
    out = _forced_backend("fortran")
    assert out.returncode != 0
    assert "OUTREG_BACKEND must be 'compiled' or 'python', got 'fortran'" in out.stderr
    # forcing "compiled" works exactly when the default import finds the
    # installed extension or builds the twin, whatever this process chose
    built = _forced_backend("").stdout.strip() == "compiled"
    out = _forced_backend("compiled")
    if built:
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "compiled"
    else:
        assert out.returncode != 0
        assert ("OUTREG_BACKEND=compiled but the outreg._kernel extension is not built"
                in out.stderr)


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
    assert rc.shape == rp.shape
    assert rc.tolist() == rp.tolist()
    for a, b in zip(yc, yp):
        assert a == b or (a != a and b != b)  # nan-aware exact match


@pytest.mark.parametrize("n_steps, stride", [(1, 1), (10, 1), (10, 3), (10, 10), (10, 11),
                                             (2000, 7)])
def test_records_contract(kern, steady_cfg, n_steps, stride):
    # a row at every stride-th step from step 0 and one after the last step,
    # as one C-contiguous (rows, 12) float64 view
    records, diverged_at, _ = kern.run_closed_loop(
        *_args(steady_cfg, y0(steady_cfg), n_steps, stride))
    rows = (n_steps - 1) // stride + 2
    assert diverged_at == -1.0
    assert len(records) == rows
    assert records.shape == (rows, 12)
    assert records.format == "d" and records.c_contiguous
    h = steady_cfg.h
    assert [r[0] for r in records.tolist()] == (
        [s * h for s in range(0, n_steps, stride)] + [n_steps * h])


def test_records_single_row(kern, steady_cfg):
    # n_steps = 0 records only the final row, at t0
    records, diverged_at, _ = kern.run_closed_loop(
        *(_args(steady_cfg, y0(steady_cfg), 0, 1) + (0.25,)))
    assert diverged_at == -1.0
    assert records.shape == (1, 12)
    assert records.tolist()[0][0] == 0.25
    # a run that escapes on its first step keeps only the step-0 row
    cfg = ScenarioConfig()
    records, diverged_at, _ = kern.run_closed_loop(
        *_args(cfg, [1e9, 0.0, 1.0, 1.0] + [0.0] * 13, 5, 1))
    assert diverged_at == pytest.approx(cfg.h)
    assert records.shape == (1, 12)
    assert records.tolist()[0][:3] == [0.0, 1e9, 0.0]


@pytest.mark.parametrize("case", ["steady", "cold", "overflow"])
def test_twins_same_record_bytes(ckernel, steady_cfg, case):
    # bit for bit, signed zeros included; nans compare by position only
    if case == "steady":
        args = _args(steady_cfg, y0(steady_cfg), 1500, 3, mode=1)
    elif case == "cold":
        cfg = ScenarioConfig()
        args = _args(cfg, y0(cfg), cfg.n_steps, 1)
    else:
        args = _args(ScenarioConfig(), [1e9, 0.0, 1.0, 1.0] + [0.0] * 13, 5, 1)
    rp = _kernel_py.run_closed_loop(*args)[0]
    rc = ckernel.run_closed_loop(*args)[0]
    assert rp.shape == rc.shape and rp.format == rc.format == "d"
    assert _canonical_bytes(rp) == _canonical_bytes(rc)


def test_simlog_of_kernel_records_round_trips(kern, steady_cfg):
    from outreg.simulate import SimLog

    records, _, _ = kern.run_closed_loop(*_args(steady_cfg, y0(steady_cfg), 300, 1, mode=1))
    log = SimLog(records)
    assert len(log) == len(records) == 301
    assert log == SimLog.from_csv(log.to_csv())
    assert log.column("khat") == [r[11] for r in records.tolist()]
