import pytest
from conftest import y0

from outreg.backend import run_closed_loop
from outreg.controller import Polynomial
from outreg.scenario import ScenarioConfig, loads, with_overrides
from outreg.simulate import DivergenceError, SimLog, metrics, run


def test_default_nonadaptive_run_diverges():
    # the stock scenario from cold-start filters blows up in finite time;
    # this pins the observed escape as a regression value (see README
    # behavior notes)
    cfg = ScenarioConfig()
    with pytest.raises(DivergenceError) as exc:
        run(cfg)
    assert exc.value.time == pytest.approx(0.117, abs=1e-12)
    assert len(exc.value.partial) >= 1
    assert exc.value.partial.t[0] == 0.0


def test_default_adaptive_run_diverges():
    cfg = with_overrides(ScenarioConfig(), mode="adaptive")
    with pytest.raises(DivergenceError) as exc:
        run(cfg)
    assert exc.value.time == pytest.approx(0.056, abs=1e-12)


def test_steady_start_holds_full_horizon(steady_cfg):
    log = run(steady_cfg)
    assert len(log) == 10001
    m = metrics(log, steady_cfg)
    assert m["trailing_sup_e"] <= 1e-6
    assert m["settling_time"] == 0.0
    assert m["khat_final"] == 0.0
    assert m["diverged"] is False
    # both Hankel determinants stay well inside the |det| < epsilon regime
    assert abs(m["min_detT1"]) < steady_cfg.epsilon
    assert abs(m["min_detT2"]) < steady_cfg.epsilon


def test_steady_start_estimates_lock(steady_cfg):
    log = run(steady_cfg)
    m = metrics(log, steady_cfg)
    assert m["trailing_err_a11"] <= 1e-4
    assert m["trailing_err_a21"] <= 1e-4
    assert m["trailing_err_a23"] <= 1e-4


@pytest.mark.parametrize("line", ["plant.sigma = 1", "plant.sigma = 2", "init.v = 0.3, -1.2"])
def test_derived_start_holds_off_the_stock_point(line):
    # init = steady at points whose start nobody wrote down: the loop starts
    # on the manifold, so the error stays at integration-noise level
    log = run(loads("init = steady\nsim.t_end = 1\n" + line + "\n"))
    assert max(map(abs, log.column("e"))) < 1e-9


def test_determinism_byte_exact(steady_cfg):
    a = run(steady_cfg).to_csv()
    b = run(steady_cfg).to_csv()
    assert a == b


def test_csv_round_trip(steady_cfg):
    cfg = with_overrides(steady_cfg, t_end=2.0)
    log = run(cfg)
    assert SimLog.from_csv(log.to_csv()) == log


def test_simlog_rejects_bad_rows():
    from array import array

    row = (0.0,) * 12
    with pytest.raises(ValueError, match="12 columns"):
        SimLog([row, (1.0,) * 11])
    with pytest.raises(ValueError, match=r"\(rows, 12\) float64 view"):
        SimLog(memoryview(array("d", [0.0] * 22)).cast("B").cast("d", (2, 11)))
    with pytest.raises(ValueError, match="strictly increasing"):
        SimLog([row, row])
    with pytest.raises(ValueError, match="strictly increasing"):
        SimLog([(1.0,) + row[1:], row])
    with pytest.raises(ValueError, match="strictly increasing"):
        SimLog([row, (float("nan"),) + row[1:]])
    with pytest.raises(ValueError, match="strictly increasing"):
        SimLog.from_csv(SimLog([row]).to_csv() + "0" + ",0" * 11 + "\n")
    log = SimLog([row, (1,) * 12])
    assert len(log) == 2
    assert log.column("khat") == [0.0, 1.0]
    with pytest.raises(ValueError, match="no column"):
        log.column("x3")


def test_csv_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        SimLog.from_csv("a,b,c\n1,2,3\n")


def test_open_loop_is_negative_control():
    # u forced to 0: the run stays bounded (double-well basin) but the
    # error never settles
    cfg = with_overrides(ScenarioConfig(), mode="open_loop")
    log = run(cfg)
    m = metrics(log, cfg)
    assert m["diverged"] is False
    assert m["trailing_sup_e"] > 0.3
    assert m["settling_time"] is None


def test_adaptive_khat_monotone(steady_cfg):
    cfg = with_overrides(steady_cfg, mode="adaptive")
    log = run(cfg)
    kh = log.column("khat")
    assert all(b >= a for a, b in zip(kh, kh[1:]))
    assert kh[-1] < float("inf")


def test_zero_state_zero_gains_stays_zero():
    with pytest.warns(UserWarning):
        cfg = with_overrides(
            ScenarioConfig(),
            x0=(0.0, 0.0), v0=(0.0, 0.0),
            rho=Polynomial((0.0,)), k=Polynomial((0.0,)), k0=0.0,
            t_end=0.1,
        )
    log = run(cfg)
    for name in ("x1", "x2", "e", "zeta", "u", "khat"):
        assert all(v == 0.0 for v in log.column(name))


def test_step_halving_agreement(steady_cfg):
    # classic self-convergence: h and h/2 final states agree to 1e-6 over
    # a 10 s horizon
    base = with_overrides(steady_cfg, t_end=10.0)
    fine = with_overrides(base, h=5e-4)

    def final_state(cfg):
        _, diverged, y = run_closed_loop(
            y0(cfg), cfg.h, cfg.n_steps, cfg.stride, cfg.c1, cfg.c2, cfg.c3,
            cfg.sigma, cfg.m1, cfg.m2, cfg.epsilon, cfg.mask1, cfg.mask2,
            cfg.rho.coeffs, cfg.k.coeffs, cfg.k0, 0, 0.0, 0.0)
        assert diverged < 0.0
        return y

    ya = final_state(base)
    yb = final_state(fine)
    assert max(abs(a - b) for a, b in zip(ya, yb)) <= 1e-6


def test_metrics_on_diverged_partial():
    cfg = ScenarioConfig()
    try:
        run(cfg)
        pytest.fail("expected divergence")
    except DivergenceError as exc:
        m = metrics(exc.partial, cfg, diverged_at=exc.time)
    assert m["diverged"] is True
    assert m["diverged_at"] == pytest.approx(0.117, abs=1e-12)
    assert m["trailing_sup_e"] is None
    assert m["settling_time"] is None


def test_metrics_settling_time(steady_cfg):
    log = run(with_overrides(steady_cfg, t_end=1.0))
    m = metrics(log, with_overrides(steady_cfg, t_end=1.0))
    assert m["settling_time"] == 0.0
    with pytest.raises(ValueError):
        metrics(SimLog([]), steady_cfg)
