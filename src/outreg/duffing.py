"""Duffing oscillator benchmark with a rotational disturbance generator.

The plant is

    x1' = x2
    x2' = -c3*x2 - c1*x1 - c2*x1^3 + u + d(t)

driven by a two-state harmonic exosystem v' = [[0, sigma], [-sigma, 0]] v
that supplies both the disturbance d = v2 and the reference y_ref = v1.
The tracking error is e = x1 - v1.

Every function below takes the plant as p, a scenario.ScenarioConfig, and
reads only its c1, c2, c3 and sigma, except that steady_state_q and
steady_state_theta also read the filter coefficients m_i of internal-model
component i (1 or 2; any other i is a ValueError).  scenario._violation
requires the plant finite and sigma > 0; outside the benchmark box (c_i in
[-2, 2], sigma in [0.1, 2]) scenario._warn only warns, since every formula
here holds for any finite parameters.

Because the exosystem is a pure rotation, the regulator equations have a
closed-form solution, and the steady-state feedforward input u_ss is a
polynomial in (v1, v2).  Its time derivatives along the flow are therefore
also polynomials; they were derived once by hand from v' = Sv and are
hard-coded below (see steady_state_xi).  The tests validate them against
central finite differences, so a transcription slip cannot survive.

These closed forms are what make the benchmark useful: they provide exact
oracles for the coefficient estimator and the steady-state reconstruction
without any numerical root finding.
"""

from __future__ import annotations

from math import cos, sin

from .internal_model import _component, coeff_tuple, q_matrix
from .linalg import mat_vec


def exo_flow(v0, sigma: float, t: float):
    """Exact exosystem solution at time t from v0 (rotation matrix applied to v0)."""
    return exo_flows(v0, sigma, (t,))[0]


def exo_flows(v0, sigma: float, ts) -> list:
    """exo_flow from v0 at every time in ts, as a list of (v1, v2) pairs;
    cos and sin are evaluated once per time."""
    v1, v2 = float(v0[0]), float(v0[1])
    args = [sigma * t for t in ts]
    return [(v1 * c + v2 * s, -v1 * s + v2 * c) for c, s in zip(map(cos, args), map(sin, args))]


def regulator_solution(v, p):
    """Closed-form solution (x1_ss, x2_ss, u_ss) of the regulator equations.

    x1_ss = v1 tracks the reference exactly, x2_ss is its derivative along
    the exosystem flow, and u_ss is whatever input the plant then needs:
    the leading entry of component 2's generator state (steady_state_lead).
    """
    return (float(v[0]), p.sigma * float(v[1]), steady_state_lead(v, p, 2))


def steady_state_xi(v, p, i: int):
    """Steady-state generator state for component i.

    Component 1 generates x2_ss, component 2 generates u_ss; in both cases
    the generator state stacks the signal and its time derivatives along the
    exosystem flow.  The derivative formulas below come from repeatedly
    substituting v1' = sigma*v2, v2' = -sigma*v1 into u_ss; with
    A = c1 - sigma^2 and B = c3*sigma - 1,

        u    = A*v1 + B*v2 + c2*v1^3
        u'   = sigma*(-B*v1 + A*v2) + 3*c2*sigma*v1^2*v2
        u''  = sigma^2*(-A*v1 - B*v2) + 3*c2*sigma^2*(2*v1*v2^2 - v1^3)
        u''' = sigma^3*(B*v1 - A*v2) + 3*c2*sigma^3*(2*v2^3 - 7*v1^2*v2)
    """
    lead = steady_state_lead(v, p, i)
    v1, v2 = float(v[0]), float(v[1])
    s = p.sigma
    if i == 1:
        return (lead, -s * s * v1)
    A = p.c1 - s * s
    B = p.c3 * s - 1.0
    c2 = p.c2
    s2 = s * s
    s3 = s2 * s
    u1 = s * (-B * v1 + A * v2) + 3.0 * c2 * s * (v1 * v1 * v2)
    u2 = s2 * (-A * v1 - B * v2) + 3.0 * c2 * s2 * (2.0 * v1 * v2 * v2 - v1 * v1 * v1)
    u3 = s3 * (B * v1 - A * v2) + 3.0 * c2 * s3 * (2.0 * v2 * v2 * v2 - 7.0 * v1 * v1 * v2)
    return (lead, u1, u2, u3)


def steady_state_lead(v, p, i: int) -> float:
    """The leading entry of steady_state_xi(v, p, i): x2_ss for component 1,
    u = A*v1 + B*v2 + c2*v1^3 for component 2."""
    return steady_state_leads(((float(v[0]), float(v[1])),), p, i)[0]


def steady_state_leads(vs, p, i: int) -> list:
    """steady_state_lead at every exosystem state in vs, pairs of floats
    such as exo_flows returns."""
    s = p.sigma
    if i == 1:
        return [s * v2 for _, v2 in vs]
    _component(p, i)  # ValueError unless i == 2
    A = p.c1 - s * s
    B = p.c3 * s - 1.0
    c2 = p.c2
    return [A * v1 + B * v2 + c2 * (v1 * v1 * v1) for v1, v2 in vs]


def duffing_coeffs(p):
    """Characteristic coefficients (a1, a2) of the two steady-state signals.

    x2_ss = sigma*v2 satisfies z'' + sigma^2 z = 0.  u_ss contains the
    fundamental and its third harmonic (from the cubic), so it satisfies
    (D^2 + sigma^2)(D^2 + 9 sigma^2) z = 0, i.e. coefficients
    (9 sigma^4, 0, 10 sigma^2, 0) in the constant-term-first convention.
    """
    s2 = p.sigma * p.sigma
    return coeff_tuple((s2, 0.0)), coeff_tuple((9.0 * s2 * s2, 0.0, 10.0 * s2, 0.0))


def steady_state_q(p, i: int):
    """The Q of component i, which maps its generator state xi to theta.

    Q depends on the component but not on the exosystem state, so a caller
    that needs theta at many phases builds it once.
    """
    m, _ = _component(p, i)
    return q_matrix(duffing_coeffs(p)[i - 1], m)


def steady_state_theta(v, p, i: int, q=None):
    """Exact steady-state internal-model state theta = Q xi for component i.

    This is the state the filter eta converges to; it is the oracle against
    which the coefficient estimator and the chi reconstruction are checked.
    q, if given, is steady_state_q(p, i).
    """
    if q is None:
        q = steady_state_q(p, i)
    return tuple(mat_vec(q, steady_state_xi(v, p, i)))
