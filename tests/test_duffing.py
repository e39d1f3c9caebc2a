import math
import random

import numpy as np
import pytest
from conftest import run_twin

from outreg.acceptance import criterion_5
from outreg.duffing import (
    duffing_coeffs,
    exo_flow,
    exo_flows,
    regulator_solution,
    steady_state_lead,
    steady_state_leads,
    steady_state_q,
    steady_state_theta,
    steady_state_xi,
)
from outreg.internal_model import companion_matrix
from outreg.mapping import chi, estimate_coeffs
from outreg.scenario import ScenarioConfig, with_overrides

P = ScenarioConfig()  # c = (-2, 1.5, 0.5), sigma = 0.5, and the stock internal models


def duffing_derivative(x, u: float, d: float, p):
    """Plant vector field at state x = (x1, x2) under input u and disturbance
    d: the oracle test_regulator_residual_random checks the regulator
    equations against (the kernel twins spell the same field inline)."""
    x1, x2 = float(x[0]), float(x[1])
    dx2 = -p.c3 * x2 - p.c1 * x1 - p.c2 * (x1 * x1 * x1) + u + d
    return (x2, dx2)


def exo_derivative(v, sigma: float):
    """Exosystem vector field, a rotation at rate sigma: the oracle the
    exosystem's exact flow and an RK4 loop over it are checked against
    (the kernel twins spell the same field inline)."""
    return (sigma * float(v[1]), -sigma * float(v[0]))


def test_duffing_derivative_examples():
    assert duffing_derivative((0.0, 0.0), 0.0, 0.0, P) == (0.0, 0.0)
    assert duffing_derivative((1.0, -1.0), 0.0, 0.0, P) == (-1.0, 1.0)
    zero = ScenarioConfig(c1=0.0, c2=0.0, c3=0.0)
    assert duffing_derivative((1.0, 0.0), 1.0, 1.0, zero) == (0.0, 2.0)


def test_exo_derivative_examples():
    assert exo_derivative((1.0, 1.0), 0.5) == (0.5, -0.5)
    assert exo_derivative((0.0, 0.0), 0.5) == (0.0, 0.0)


def test_exo_flow_rotation():
    v = exo_flow((1.0, 1.0), 0.5, 2.0 * math.pi)
    assert v == pytest.approx((-1.0, -1.0), abs=1e-12)
    # flow matches the vector field (central difference)
    h = 1e-6
    for t in (0.0, 0.3, 1.7):
        vm = exo_flow((1.0, 1.0), 0.5, t - h)
        vp = exo_flow((1.0, 1.0), 0.5, t + h)
        fd = ((vp[0] - vm[0]) / (2 * h), (vp[1] - vm[1]) / (2 * h))
        exact = exo_derivative(exo_flow((1.0, 1.0), 0.5, t), 0.5)
        assert fd == pytest.approx(exact, abs=1e-8)
    # norm preserved exactly by the closed form
    for t in (0.1, 5.0, 42.0):
        v = exo_flow((1.0, 1.0), 0.5, t)
        assert v[0] * v[0] + v[1] * v[1] == pytest.approx(2.0, rel=1e-14)


def test_regulator_solution_examples():
    assert regulator_solution((1.0, 1.0), P) == (1.0, 0.5, -1.5)
    assert regulator_solution((0.0, 0.0), P) == (0.0, 0.0, 0.0)


def test_regulator_residual_random():
    rng = random.Random(71)
    for _ in range(100):
        p = ScenarioConfig(
            c1=rng.uniform(-2, 2),
            c2=rng.uniform(-2, 2),
            c3=rng.uniform(-2, 2),
            sigma=rng.uniform(0.1, 2.0),
        )
        v = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        x1, x2, u = regulator_solution(v, p)
        # d/dt x2_ss along the flow is -sigma^2 v1
        lhs = -p.sigma * p.sigma * v[0]
        _, rhs = duffing_derivative((x1, x2), u, v[1], p)
        assert abs(lhs - rhs) <= 1e-10


def test_steady_state_xi_examples():
    assert steady_state_xi((1.0, 1.0), P, 1) == (0.5, -0.25)
    xi2 = steady_state_xi((1.0, 1.0), P, 2)
    assert len(xi2) == 4
    assert xi2[0] == regulator_solution((1.0, 1.0), P)[2] == -1.5
    with pytest.raises(ValueError):
        steady_state_xi((1.0, 1.0), P, 3)


def test_steady_state_lead_is_the_leading_xi_entry():
    for p in (P, ScenarioConfig(c1=1.2, c2=-0.7, c3=-1.9, sigma=1.7)):
        for k in range(100):
            v = exo_flow((1.0, -0.3), p.sigma, k * 0.37)
            for i in (1, 2):
                assert repr(steady_state_lead(v, p, i)) == repr(steady_state_xi(v, p, i)[0])


def test_batched_helpers_equal_the_scalar_formulas():
    # criterion 5 takes its exosystem samples and leads in batches; each
    # entry must be the bits of the formula spelled out per point
    rng = random.Random(24)
    for _ in range(40):
        p = ScenarioConfig(c1=rng.uniform(-2.0, 2.0), c2=rng.uniform(-2.0, 2.0),
                           c3=rng.uniform(-2.0, 2.0), sigma=rng.uniform(0.1, 2.0))
        v0 = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        ts = [rng.uniform(-60.0, 60.0) for _ in range(25)]
        vs = exo_flows(v0, p.sigma, ts)
        for t, v in zip(ts, vs):
            c, s = math.cos(p.sigma * t), math.sin(p.sigma * t)
            assert repr(v) == repr((v0[0] * c + v0[1] * s, -v0[0] * s + v0[1] * c))
            assert repr(exo_flow(v0, p.sigma, t)) == repr(v)
        s = p.sigma
        want = {1: [s * v2 for _, v2 in vs],
                2: [(p.c1 - s * s) * v1 + (p.c3 * s - 1.0) * v2 + p.c2 * (v1 * v1 * v1)
                    for v1, v2 in vs]}
        for i in (1, 2):
            assert repr(steady_state_leads(vs, p, i)) == repr(want[i])
            assert repr([steady_state_lead(v, p, i) for v in vs]) == repr(want[i])
    with pytest.raises(ValueError, match="component index"):
        steady_state_leads(vs, p, 0)


def test_xi_entries_are_successive_derivatives():
    # central finite differences along the exact flow validate every
    # hand-derived formula in steady_state_xi
    h = 1e-4
    v0 = (1.0, 1.0)
    for i, dim in ((1, 2), (2, 4)):
        for t in (0.0, 0.7, 1.3, 2.9, 6.1):
            vm = exo_flow(v0, P.sigma, t - h)
            vp = exo_flow(v0, P.sigma, t + h)
            xim = steady_state_xi(vm, P, i)
            xip = steady_state_xi(vp, P, i)
            xi = steady_state_xi(exo_flow(v0, P.sigma, t), P, i)
            for j in range(dim - 1):
                fd = (xip[j] - xim[j]) / (2 * h)
                assert fd == pytest.approx(xi[j + 1], abs=1e-6)


def test_xi_ode_residual():
    # each generated signal satisfies its own characteristic equation:
    # component 1: z'' + sigma^2 z = 0; component 2:
    # z'''' + 10 sigma^2 z'' + 9 sigma^4 z = 0.  The needed fourth
    # derivative is re-derived here independently of the module code.
    rng = random.Random(73)
    a1, a2 = duffing_coeffs(P)
    s = P.sigma
    A = P.c1 - s * s
    B = P.c3 * s - 1.0
    for _ in range(50):
        v = exo_flow((1.0, 1.0), s, rng.uniform(0, 20))
        v1, v2 = v
        xi1 = steady_state_xi(v, P, 1)
        ddz = -s * s * xi1[0]
        assert abs(ddz + a1[0] * xi1[0] + a1[1] * xi1[1]) <= 1e-8
        xi2 = steady_state_xi(v, P, 2)
        s4 = s ** 4
        d4 = s4 * (A * v1 + B * v2) + 3.0 * P.c2 * s4 * (7.0 * v1 ** 3 - 20.0 * v1 * v2 * v2)
        res = d4 + a2[0] * xi2[0] + a2[1] * xi2[1] + a2[2] * xi2[2] + a2[3] * xi2[3]
        assert abs(res) <= 1e-8


def test_duffing_coeffs_values():
    a1, a2 = duffing_coeffs(P)
    assert a1 == (0.25, 0.0)
    assert a2 == (0.5625, 0.0, 2.5, 0.0)
    # distinct roots on the imaginary axis: +-i sigma, then +-i sigma and
    # +-3i sigma; np.roots wants the constant last
    for cv, want in ((a1, [-0.5j, 0.5j]), (a2, [-1.5j, -0.5j, 0.5j, 1.5j])):
        r = sorted(np.roots([1.0, *reversed(cv)]), key=lambda z: z.imag)
        assert r == pytest.approx(want, abs=1e-9)


@pytest.fixture(scope="module")
def exo_rk4():
    """v after 100 s of RK4 at h = 1e-3 from v(0) = (1, 1), stage by stage"""
    v1, v2 = 1.0, 1.0
    h = 1e-3
    s = P.sigma
    for _ in range(100000):
        a1, a2 = exo_derivative((v1, v2), s)
        b1, b2 = exo_derivative((v1 + 0.5 * h * a1, v2 + 0.5 * h * a2), s)
        c1, c2 = exo_derivative((v1 + 0.5 * h * b1, v2 + 0.5 * h * b2), s)
        d1, d2 = exo_derivative((v1 + h * c1, v2 + h * c2), s)
        v1 += h / 6.0 * (a1 + 2 * b1 + 2 * c1 + d1)
        v2 += h / 6.0 * (a2 + 2 * b2 + 2 * c2 + d2)
    return v1, v2


def test_exo_energy_drift_rk4(exo_rk4):
    # relative norm drift over the 100 s must stay below 1e-8
    v1, v2 = exo_rk4
    drift = abs(math.hypot(v1, v2) - math.sqrt(2.0)) / math.sqrt(2.0)
    assert drift <= 1e-8
    # and the endpoint agrees with the closed form
    vf = exo_flow((1.0, 1.0), P.sigma, 100.0)
    assert (v1, v2) == pytest.approx(vf, abs=1e-7)


def test_kernel_integrates_the_exosystem_bit_for_bit(ckernel, exo_rk4):
    # criterion 10(b) reads v from the kernel: the open-loop stock run
    # integrates the same exosystem from v(0) = (1, 1) bit for bit
    cfg = with_overrides(ScenarioConfig(), mode="open_loop")
    assert (cfg.v0, cfg.sigma, cfg.h, cfg.n_steps) == ((1.0, 1.0), P.sigma, 1e-3, 100000)
    _, diverged_at, y_final = run_twin(ckernel, with_overrides(cfg, stride=cfg.n_steps))
    assert diverged_at == -1.0
    assert tuple(y_final[2:4]) == exo_rk4


def test_theta_dimensions():
    assert len(steady_state_theta((1.0, 1.0), P, 1)) == 4
    assert len(steady_state_theta((1.0, 1.0), P, 2)) == 8


@pytest.mark.parametrize("i", [0, 3, -1, 1.5, "1"])
def test_component_index_must_be_1_or_2(i):
    # the oracle and the estimator share one lookup of component i, so
    # every index but 1 and 2 is the same error everywhere
    calls = (lambda: steady_state_q(P, i), lambda: steady_state_theta((1.0, 1.0), P, i),
             lambda: steady_state_xi((1.0, 1.0), P, i), lambda: steady_state_lead((1.0, 1.0), P, i),
             lambda: estimate_coeffs((0.0,) * 4, P, i), lambda: chi((0.0,) * 4, P, i))
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "component index must be 1 or 2, got %r" % (i,)


def test_oracle_chain_chi_and_estimates():
    # at the exact steady-state filter state, the mapping recovers the true
    # coefficients and reconstructs the generated signal
    a1, a2 = duffing_coeffs(P)
    for t in (0.0, 0.7, 1.3, 2.9, 4.4):
        v = exo_flow((1.0, 1.0), P.sigma, t)
        th1 = steady_state_theta(v, P, 1)
        th2 = steady_state_theta(v, P, 2)
        assert chi(th1, P, 1) == pytest.approx(P.sigma * v[1], abs=1e-8)
        assert chi(th2, P, 2) == pytest.approx(regulator_solution(v, P)[2], abs=1e-6)
        est1 = estimate_coeffs(th1, P, 1)
        est2 = estimate_coeffs(th2, P, 2)
        assert est1 == pytest.approx(a1, abs=1e-9)
        assert est2 == pytest.approx(a2, abs=1e-8)


def test_filter_convergence():
    # driving the filter with the true steady-state input from eta(0) = 0,
    # the state locks onto theta; by t = 50 the gap is below 1e-6
    worst = 0.0
    for i, m in ((1, P.m1), (2, P.m2)):
        M = np.array(companion_matrix(m).to_lists())
        N = np.array([0.0] * (len(m) - 1) + [1.0])  # the last basis column
        s = P.sigma

        def rhs(t, eta):
            v = exo_flow((1.0, 1.0), s, t)
            return M @ eta + N * steady_state_xi(v, P, i)[0]

        h = 1e-3
        eta = np.zeros(len(m))
        t = 0.0
        for _ in range(50000):
            k1 = rhs(t, eta)
            k2 = rhs(t + 0.5 * h, eta + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, eta + 0.5 * h * k2)
            k4 = rhs(t + h, eta + h * k3)
            eta = eta + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        v = exo_flow((1.0, 1.0), s, t)
        theta = np.array(steady_state_theta(v, P, i))
        gap = float(np.linalg.norm(eta - theta))
        assert gap <= 1e-6
        worst = max(worst, gap)
    # acceptance criterion 5 integrates the same filter in its linear form
    # (eta+ = A eta + B w); it must report the gap of this stepwise loop
    assert "driven-filter terminal gap %.3g " % worst in criterion_5(0, {})[2]
