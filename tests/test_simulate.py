import pickle
from bisect import bisect_left
from statistics import fmean

import pytest
from conftest import STEADY_SCN, run_twin

from outreg import simulate
from outreg.mapping import bump_psi
from outreg.scenario import (Polynomial, ScenarioConfig, load_scenario, loads, steady_start,
                             with_overrides)
from outreg.simulate import DivergenceError, SimLog, integrate, metrics, run


@pytest.fixture(scope="module")
def steady_log():
    """The 100 s steady-start run, integrated once for the tests that read it."""
    return run(steady_start(ScenarioConfig()))


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
    # off the orbit the gain grows (0 -> 38.67 over the records before the
    # escape), so its monotonicity is checked where it means something
    kh = exc.value.partial.column("khat")
    assert all(b >= a for a, b in zip(kh, kh[1:]))
    assert kh[-1] > 30.0


def test_steady_start_holds_full_horizon(steady_cfg, steady_log):
    log = steady_log
    assert len(log) == 10001
    m = metrics(log, steady_cfg)
    assert m["trailing_sup_e"] <= 1e-6
    assert m["settling_time"] == 0.0
    assert m["khat_final"] == 0.0
    assert m["diverged"] is False
    # both Hankel determinants stay well inside the |det| < epsilon regime
    assert abs(m["min_detT1"]) < steady_cfg.epsilon
    assert abs(m["min_detT2"]) < steady_cfg.epsilon


def test_steady_start_estimates_lock(steady_cfg, steady_log):
    m = metrics(steady_log, steady_cfg)
    assert m["trailing_err_a11"] <= 1e-4
    assert m["trailing_err_a21"] <= 1e-4
    assert m["trailing_err_a23"] <= 1e-4


@pytest.mark.parametrize("line", ["plant.sigma = 1", "plant.sigma = 2", "init.v = 0.3, -1.2"])
def test_derived_start_holds_off_the_stock_point(line):
    # init = steady at points whose start nobody wrote down: the loop starts
    # on the manifold, so the error stays at integration-noise level
    log = run(loads("init = steady\nsim.t_end = 1\n" + line + "\n"))
    assert max(map(abs, log.column("e"))) < 1e-9


def test_determinism_byte_exact(steady_cfg, steady_log):
    assert run(steady_cfg).to_csv() == steady_log.to_csv()


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
    # every other row of a (4, 12) view: right shape, not C-contiguous
    rows4 = memoryview(array("d", range(48))).cast("B").cast("d", (4, 12))
    with pytest.raises(ValueError, match=r"C-contiguous \(rows, 12\) float64 view"):
        SimLog(rows4[::2])
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


def _route_to(kern, monkeypatch):
    """Send simulate's kernel calls to kern; returns the list that gets the
    records view of each call."""
    got = []

    def kernel(*args):
        out = kern.run_closed_loop(*args)
        got.append(out[0])
        return out

    monkeypatch.setattr(simulate, "run_closed_loop", kernel)
    return got


def test_simlog_holds_the_kernels_rows(kern, monkeypatch, steady_cfg):
    # the log from integrate keeps the buffer the kernel wrote, not a copy
    got = _route_to(kern, monkeypatch)
    log, _, _ = integrate(steady_cfg.replace(t_end=0.3, stride=1))
    assert len(got) == 1
    assert log._data.obj is got[0].obj
    assert len(log) == len(got[0]) == 301


def test_simlog_pickles_bit_for_bit(kern, monkeypatch, steady_cfg):
    _route_to(kern, monkeypatch)
    log, _, _ = integrate(steady_cfg.replace(t_end=0.3, stride=1))
    with pytest.raises(DivergenceError) as exc:
        run(ScenarioConfig())
    assert exc.value.time == pytest.approx(0.117, abs=1e-12)
    for proto in (0, pickle.HIGHEST_PROTOCOL):
        for one in (log, SimLog.from_csv(log.to_csv()), SimLog([])):
            back = pickle.loads(pickle.dumps(one, proto))
            assert back == one
            assert back._data.tobytes() == one._data.tobytes()
        back = pickle.loads(pickle.dumps(exc.value, proto))
        assert (back.time, str(back)) == (exc.value.time, str(exc.value))
        assert back.partial == exc.value.partial
        assert back.partial._data.tobytes() == exc.value.partial._data.tobytes()


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
    # on the undisturbed steady orbit zeta stays at roundoff and khat with
    # it (1.9e-13 after 100 s; the kernel digest case `adaptive` pins those
    # bits), so a disturbance at omega = 7 gives the gain something to learn:
    # khat climbs from 0 to 0.048 over 10 s and the run holds
    cfg = with_overrides(steady_cfg, mode="adaptive", disturbance_amp=0.1,
                         disturbance_freq=7.0, t_end=10.0)
    log = run(cfg)
    kh = log.column("khat")
    assert all(b >= a for a, b in zip(kh, kh[1:]))
    assert kh[-1] < float("inf")
    assert kh[-1] > 1e-2


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
        _, diverged_at, y = integrate(cfg)
        assert diverged_at is None
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


@pytest.mark.parametrize("h, k0_holds, k0_escapes, escape_t",
                         [(1e-3, 2700.0, 2900.0, 0.12), (5e-4, 5400.0, 5700.0, 0.111)])
def test_gain_window_upper_edge_is_rk4s(h, k0_holds, k0_escapes, escape_t):
    # k0 * h ~ 2.785 is RK4's stability bound on the negative real axis: just
    # below it the steady start holds for 10 s, just above it the fast mode
    # the gain sets is integrated unstably and the run escapes
    base = with_overrides(load_scenario(STEADY_SCN), h=h, t_end=10.0)
    assert k0_holds * h < 2.785 < k0_escapes * h
    cfg = with_overrides(base, k0=k0_holds)
    log, diverged_at, _ = integrate(cfg)
    assert diverged_at is None
    assert metrics(log, cfg)["trailing_sup_e"] <= 1e-11
    _, diverged_at, _ = integrate(with_overrides(base, k0=k0_escapes))
    assert diverged_at == pytest.approx(escape_t, abs=1e-12)


@pytest.mark.parametrize("h, k0_holds, sup_e, k0_escapes, escape_t",
                         [(1e-3, 1100.0, 2.34e-3, 1200.0, 0.002),
                          (5e-4, 2200.0, 2.40e-3, 2400.0, 0.001)])
def test_cold_start_gain_window_closes_before_rk4s_edge(kern, h, k0_holds, sup_e,
                                                       k0_escapes, escape_t):
    # from the cold start (eta = 0) at epsilon = 0.25 the loop holds only up
    # to k0 * h ~ 1.14, well inside RK4's 2.785 that bounds the steady start;
    # the escapes come on the first steps, whatever the horizon
    base = with_overrides(ScenarioConfig(), epsilon=0.25, h=h, t_end=10.0)
    assert k0_holds * h < 1.14 < k0_escapes * h
    cfg = with_overrides(base, k0=k0_holds)
    records, diverged_at, _ = run_twin(kern, cfg)
    assert diverged_at == -1.0
    assert metrics(SimLog(records), cfg)["trailing_sup_e"] == pytest.approx(sup_e, rel=1e-2)
    _, diverged_at, _ = run_twin(kern, with_overrides(base, k0=k0_escapes))
    assert diverged_at == pytest.approx(escape_t, abs=1e-12)


def _steady_at_epsilon(eps):
    # the steady start at k0 = 10 over 25 s, where the trailing window is
    # already on the orbit that epsilon biases
    cfg = with_overrides(load_scenario(STEADY_SCN), k0=10.0, t_end=25.0, epsilon=eps)
    log, diverged_at, _ = integrate(cfg)
    assert diverged_at is None
    return log, cfg


def test_epsilon_below_the_orbit_det_is_inert():
    # on the orbit |det T1| ~ 1.2e-3, while Psi(1 + d^2 - eps^2) is ~1e-174 at
    # eps = 0.05 and ~1e-43 at 0.1: O is the exact inverse in doubles, so the
    # two logs are the same bytes.  At 0.3 the surrogate shrinks a11 toward 0
    assert _steady_at_epsilon(0.05)[0].to_csv() == _steady_at_epsilon(0.1)[0].to_csv()
    log, cfg = _steady_at_epsilon(0.3)
    assert metrics(log, cfg)["trailing_err_a11"] > 0.2


@pytest.mark.parametrize("eps", [0.22, 0.24, 0.26])
def test_epsilon_bias_is_the_surrogates_shrink(eps):
    # O = d / (d^2 + Psi) Adj scales the exact estimate by d^2 / (d^2 + Psi),
    # so a11 sits below sigma^2 by sigma^2 times one minus that, at the mean
    # det T1 d of the trailing window (min_detT1 misses by 7 % at 0.26)
    log, cfg = _steady_at_epsilon(eps)
    tail = bisect_left(log.t, 0.8 * cfg.t_end)
    d = fmean(log.column("detT1")[tail:])
    shrink = d * d / (d * d + bump_psi(1.0 + d * d - eps * eps))
    bias = cfg.sigma ** 2 * (1.0 - shrink)
    assert metrics(log, cfg)["trailing_err_a11"] == pytest.approx(bias, rel=0.05)


def test_epsilon_decides_whether_the_cold_start_escapes():
    # the stock cold start at k0 = 100: at eps = 0.23 it holds for 100 s
    # within the bounds of criteria 6 and 7, at eps = 0.2 it escapes
    cold = with_overrides(ScenarioConfig(), k0=100.0)
    cfg = with_overrides(cold, epsilon=0.23)
    log, diverged_at, _ = integrate(cfg)
    assert diverged_at is None
    m = metrics(log, cfg)
    assert m["trailing_sup_e"] < 1e-3
    assert m["trailing_err_a11"] <= 0.02
    assert m["trailing_err_a21"] <= 0.05
    assert m["trailing_err_a23"] <= 0.1
    _, diverged_at, _ = integrate(with_overrides(cold, epsilon=0.2))
    assert diverged_at == pytest.approx(4.98, abs=1e-12)
