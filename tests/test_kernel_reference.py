"""The pure-Python twin's entry points against its RK4 loop.

run_closed_loop binds one vector field per run and calls it on a list state.
The reference below is the same loop with every vector-field evaluation made
through the _deriv and _chi_est entry points instead, with the argument forms
perfbench's microbenchmark passes, and each estimator alone checked against
the field.  Both evaluate every value with the same operations in the same
order, so they must agree bit for bit: what those entry points time is what
a run computes.
"""

from types import SimpleNamespace

import pytest
from conftest import pack_bits, run_twin

from outreg import _kernel_py
from outreg.scenario import ScenarioConfig, with_overrides
from outreg.simulate import _initial_state


def _reference_run(y0, h, n_steps, stride, c1, c2, c3, sigma, m1, m2, eps,
                   mask1, mask2, rho, kc, k0, mode, dist_amp, dist_freq):
    # the list forms run_closed_loop hands to its helpers
    m1, m2, rho, kc = ([float(v) for v in xs] for xs in (m1, m2, rho, kc))
    mask1, mask2 = ([1 if v else 0 for v in xs] for xs in (mask1, mask2))

    def f(t, y):
        dy, aux, ahat1, ahat2 = [0.0] * 17, [0.0] * 8, [0.0] * 4, [0.0] * 4
        _kernel_py._deriv(t, y, dy, aux, c1, c2, c3, sigma, m1, m2, eps, mask1, mask2,
                          rho, kc, k0, mode, dist_amp, dist_freq, ahat1, ahat2)
        # each estimator alone gives the determinants and estimates of the field
        est1, est2 = [0.0] * 4, [0.0] * 4
        det1 = _kernel_py._chi_est(y, 4, 2, m1, eps, mask1, est1)[1]
        det2 = _kernel_py._chi_est(y, 8, 4, m2, eps, mask2, est2)[1]
        assert _same([det1, det2], aux[6:])
        assert _same([est1[0], est2[0], est2[2]], aux[3:6])
        assert _same(est1 + est2, ahat1 + ahat2)
        return dy, aux

    y = [float(v) for v in y0]
    half = 0.5 * h
    h6 = h / 6.0
    rows = []
    diverged_at = -1.0
    for step in range(n_steps):
        t = step * h
        k1, aux = f(t, y)
        if step % stride == 0:
            rows.append([t, y[0], y[1], *aux, y[16]])
        k2 = f(t + half, [yi + half * ki for yi, ki in zip(y, k1)])[0]
        k3 = f(t + half, [yi + half * ki for yi, ki in zip(y, k2)])[0]
        k4 = f(t + h, [yi + h * ki for yi, ki in zip(y, k3)])[0]
        y = [yi + h6 * (a + 2.0 * b + 2.0 * c + d)
             for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
        # a nan fails both comparisons
        if any(not -1e9 <= v <= 1e9 for v in y):
            diverged_at = (step + 1) * h
            break
    if diverged_at < 0.0:
        t = n_steps * h
        rows.append([t, y[0], y[1], *f(t, y)[1], y[16]])
    return rows, diverged_at, y


# the reference in the kernel's calling convention, for conftest.run_twin
_REFERENCE = SimpleNamespace(run_closed_loop=_reference_run)


def _same(a, b):
    return pack_bits(a) == pack_bits(b)


def _case(name, steady_cfg):
    """(cfg, y0) of one case: 200 steps, a row at every third."""
    short = dict(t_end=0.2, stride=3)
    if name == "masks":
        cfg = with_overrides(steady_cfg, mask1=(True, False), mask2=(True, False, False, True),
                             mode="adaptive", **short)
    elif name == "cold":
        # escapes at t = 0.117, inside the 200 steps
        cfg = with_overrides(ScenarioConfig(), **short)
    elif name == "disturbed":
        cfg = with_overrides(steady_cfg, disturbance_amp=0.05, disturbance_freq=7.0, **short)
    else:
        cfg = with_overrides(steady_cfg, mode=name, **short)
    state = _initial_state(cfg)
    state[16] = 0.5  # khat rides along in every mode, and adapts in one
    return cfg, state


@pytest.mark.parametrize("name", ["nonadaptive", "adaptive", "open_loop", "masks",
                                  "disturbed", "cold"])
def test_run_closed_loop_equals_list_reference(steady_cfg, name):
    case = _case(name, steady_cfg)
    records, diverged_at, y_final = run_twin(_kernel_py, *case)
    rows, ref_diverged_at, ref_y = run_twin(_REFERENCE, *case)
    assert records.shape == (len(rows), 12)
    assert _same([diverged_at], [ref_diverged_at])
    if name == "cold":
        assert diverged_at == pytest.approx(0.117, abs=1e-12)
    else:
        assert diverged_at == -1.0
    assert _same(records.cast("B").cast("d"), [v for row in rows for v in row])
    assert isinstance(y_final, list)
    assert _same(y_final, ref_y)
