import itertools
import os
import subprocess
import sys

import pytest
from conftest import run_twin

from outreg import _kernel_py
from outreg.linalg import determinant
from outreg.mapping import estimate_coeffs, hankel
from outreg.scenario import ScenarioConfig, with_overrides
from outreg.simulate import _initial_state, _kernel_args


def test_one_step_calls_chain_into_one_run(kern, steady_cfg):
    # with the disturbance off the field does not read the clock, so five
    # one-step calls, each with its clock starting at 0, give the rows (but
    # for their times) and the final state of one five-step call bit for bit
    cfg = with_overrides(steady_cfg, t_end=5 * steady_cfg.h, stride=1)
    one = with_overrides(cfg, t_end=cfg.h)
    assert cfg.disturbance_amp == 0.0
    records, _, y_run = run_twin(kern, cfg)
    rows = []
    y = _initial_state(cfg)
    for i in range(5):
        rec, diverged_at, y = run_twin(kern, one, y)
        assert diverged_at == -1.0
        rows += rec.tolist()[:1 if i < 4 else 2]
    assert [row[1:] for row in rows] == [row[1:] for row in records.tolist()]
    assert list(y) == list(y_run)


def test_kernel_input_validation(kern):
    # replace() skips the validation that would reject these configs
    cfg = ScenarioConfig(t_end=0.01)
    with pytest.raises(ValueError):
        run_twin(kern, cfg, [0.0] * 16)
    with pytest.raises(ValueError):
        run_twin(kern, cfg.replace(stride=0))
    with pytest.raises(ValueError):
        run_twin(kern, cfg.replace(m1=(1.0, 2.0)))  # m1 too short
    # the clock always starts at 0: there is no 20th argument
    with pytest.raises(TypeError):
        kern.run_closed_loop([0.0] * 17, cfg.h, 10, 1, *_kernel_args(cfg, cfg.mode), 0.0)


_BAD_STEPS = [
    # a negative count would still record one row, at n_steps * h
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
    args = _kernel_args(ScenarioConfig(), "nonadaptive")
    with pytest.raises(ValueError) as err:
        kern.run_closed_loop([0.0] * 17, h, n_steps, 1, *args)
    assert str(err.value) == message


@pytest.mark.parametrize("mode", [-1, 3, 7])
def test_kernel_rejects_unknown_mode(kern, mode):
    # any mode but 1 or 2 would otherwise run as nonadaptive
    args = list(_kernel_args(ScenarioConfig(), "nonadaptive"))
    args[12] = mode  # the mode code
    with pytest.raises(ValueError) as err:
        kern.run_closed_loop([0.0] * 17, 1e-3, 10, 1, *args)
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
    from outreg.controller import control_nonadaptive, zeta

    cfg = with_overrides(steady_cfg, mask1=mask1, mask2=mask2, t_end=steady_cfg.h, stride=1)
    state = _initial_state(cfg)
    state[5] += 0.31  # knock the filters off the invariant set
    state[10] -= 0.17
    records, _, _ = run_twin(kern, cfg, state)
    t, x1, x2, e, zv, u, a11, a21, a23, det1, det2, khat = records.tolist()[0]
    eta1 = state[4:8]
    eta2 = state[8:16]
    assert e == state[0] - state[2]
    est1 = estimate_coeffs(eta1, cfg, 1)
    est2 = estimate_coeffs(eta2, cfg, 2)
    assert a11 == pytest.approx(est1[0], rel=1e-10)
    assert a21 == pytest.approx(est2[0], rel=1e-10)
    assert a23 == pytest.approx(est2[2], rel=1e-10)
    assert det1 == pytest.approx(determinant(hankel(eta1)), rel=1e-10)
    assert det2 == pytest.approx(determinant(hankel(eta2)), rel=1e-10)
    zm = zeta(state[1], eta1, e, cfg)
    assert zv == pytest.approx(zm, rel=1e-10)
    assert u == pytest.approx(control_nonadaptive(zm, eta2, cfg), rel=1e-10)


def test_adaptive_field_matches_module_path(steady_cfg):
    # off the invariant set the adaptive vector field is the module-level
    # control law and filter dynamics: zeta, u, the gain rate and the 12
    # filter derivatives agree to a relative 1e-10
    from outreg.controller import control_adaptive, filter_derivative, zeta

    cfg = steady_cfg
    state = _initial_state(cfg)
    state[5] += 0.31  # knock the filters off the invariant set
    state[10] -= 0.17
    state[16] = 0.7  # a nonzero adapted gain
    dy, aux = [0.0] * 17, [0.0] * 8
    _kernel_py._deriv(0.0, state, dy, aux, *_kernel_args(cfg, "adaptive"), [0.0] * 2,
                      [0.0] * 4)
    e, zv, u = aux[:3]
    eta1, eta2 = state[4:8], state[8:16]
    zm = zeta(state[1], eta1, e, cfg)
    um, kdot = control_adaptive(zm, eta2, state[16], cfg)
    d1 = filter_derivative(eta1, state[1], cfg, 1)
    d2 = filter_derivative(eta2, um, cfg, 2)
    assert zv == pytest.approx(zm, rel=1e-10)
    assert u == pytest.approx(um, rel=1e-10)
    assert dy[16] == pytest.approx(kdot, rel=1e-10)
    assert dy[4:16] == pytest.approx(d1 + d2, rel=1e-10)


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
    # forcing "compiled" works exactly when the default import builds the
    # twin or finds its build, whatever this process chose
    built = _forced_backend("").stdout.strip() == "compiled"
    out = _forced_backend("compiled")
    if built:
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "compiled"
    else:
        assert out.returncode != 0
        assert ("OUTREG_BACKEND=compiled but the outreg._kernel extension is not built"
                in out.stderr)


@pytest.mark.parametrize("n_steps, stride", [(1, 1), (10, 1), (10, 3), (10, 10), (10, 11),
                                             (2000, 7)])
def test_records_contract(kern, steady_cfg, n_steps, stride):
    # a row at every stride-th step from step 0 and one after the last step,
    # as one C-contiguous (rows, 12) float64 view, and the final state as a list
    h = steady_cfg.h
    records, diverged_at, y_final = run_twin(
        kern, with_overrides(steady_cfg, t_end=n_steps * h, stride=stride))
    rows = (n_steps - 1) // stride + 2
    assert diverged_at == -1.0
    assert isinstance(y_final, list)
    assert len(records) == rows
    assert records.shape == (rows, 12)
    assert records.format == "d" and records.c_contiguous
    assert [r[0] for r in records.tolist()] == (
        [s * h for s in range(0, n_steps, stride)] + [n_steps * h])


def test_records_single_row(kern, steady_cfg):
    # n_steps = 0 records only the final row, at t = 0; validation rejects
    # such a scenario, replace() does not
    records, diverged_at, _ = run_twin(kern, steady_cfg.replace(t_end=0.0))
    assert diverged_at == -1.0
    assert records.shape == (1, 12)
    assert records.tolist()[0][0] == 0.0
    # a run that escapes on its first step keeps only the step-0 row
    cfg = ScenarioConfig(t_end=0.005, stride=1)
    records, diverged_at, _ = run_twin(kern, cfg, [1e9, 0.0, 1.0, 1.0] + [0.0] * 13)
    assert diverged_at == pytest.approx(cfg.h)
    assert records.shape == (1, 12)
    assert records.tolist()[0][:3] == [0.0, 1e9, 0.0]


def test_simlog_of_kernel_records_round_trips(kern, steady_cfg):
    from outreg.simulate import SimLog

    records, _, _ = run_twin(
        kern, with_overrides(steady_cfg, mode="adaptive", t_end=0.3, stride=1))
    log = SimLog(records)
    assert len(log) == len(records) == 301
    assert log == SimLog.from_csv(log.to_csv())
    assert log.column("khat") == [r[11] for r in records.tolist()]
