"""Duffing oscillator benchmark with a rotational disturbance generator.

The plant is

    x1' = x2
    x2' = -c3*x2 - c1*x1 - c2*x1^3 + u + d(t)

driven by a two-state harmonic exosystem v' = [[0, sigma], [-sigma, 0]] v
that supplies both the disturbance d = v2 and the reference y_ref = v1.
The tracking error is e = x1 - v1.

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

import warnings
from dataclasses import dataclass
from math import cos, sin

from .internal_model import CoeffVector, InternalModelSpec, q_matrix
from .linalg import mat_vec


@dataclass(frozen=True)
class DuffingParams:
    """Plant coefficients and exosystem frequency.

    The benchmark ranges c_i in [-2, 2] and sigma in [0.1, 2] are advisory:
    values outside them trigger a warning, not an error, since every formula
    in this module is valid for any finite parameters.
    """

    c1: float = -2.0
    c2: float = 1.5
    c3: float = 0.5
    sigma: float = 0.5

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "sigma"):
            val = getattr(self, name)
            val = float(val)
            if val != val or val in (float("inf"), float("-inf")):
                raise ValueError("%s must be finite, got %r" % (name, val))
            object.__setattr__(self, name, val)
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive, got %r" % (self.sigma,))
        for name in ("c1", "c2", "c3"):
            if not -2.0 <= getattr(self, name) <= 2.0:
                warnings.warn(
                    "%s = %r is outside the benchmark box [-2, 2]" % (name, getattr(self, name))
                )
        if not 0.1 <= self.sigma <= 2.0:
            warnings.warn("sigma = %r is outside the benchmark box [0.1, 2]" % (self.sigma,))


def duffing_derivative(x, u: float, d: float, p: DuffingParams):
    """Plant vector field at state x = (x1, x2) under input u and disturbance d."""
    x1, x2 = float(x[0]), float(x[1])
    dx2 = -p.c3 * x2 - p.c1 * x1 - p.c2 * (x1 * x1 * x1) + u + d
    return (x2, dx2)


def exo_derivative(v, sigma: float):
    """Exosystem vector field: a rotation at rate sigma."""
    return (sigma * float(v[1]), -sigma * float(v[0]))


def exo_flow(v0, sigma: float, t: float):
    """Exact exosystem solution at time t from v0 (rotation matrix applied to v0)."""
    c, s = cos(sigma * t), sin(sigma * t)
    v1, v2 = float(v0[0]), float(v0[1])
    return (v1 * c + v2 * s, -v1 * s + v2 * c)


def regulator_solution(v, p: DuffingParams):
    """Closed-form solution (x1_ss, x2_ss, u_ss) of the regulator equations.

    x1_ss = v1 tracks the reference exactly, x2_ss is its derivative along
    the exosystem flow, and u_ss is whatever input the plant then needs.
    """
    v1, v2 = float(v[0]), float(v[1])
    s = p.sigma
    x1_ss = v1
    x2_ss = s * v2
    u_ss = -s * s * v1 + p.c3 * s * v2 + p.c1 * v1 + p.c2 * (v1 * v1 * v1) - v2
    return (x1_ss, x2_ss, u_ss)


def steady_state_xi(v, p: DuffingParams, i: int):
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
    v1, v2 = float(v[0]), float(v[1])
    s = p.sigma
    if i == 1:
        return (s * v2, -s * s * v1)
    if i == 2:
        A = p.c1 - s * s
        B = p.c3 * s - 1.0
        c2 = p.c2
        s2 = s * s
        s3 = s2 * s
        u0 = A * v1 + B * v2 + c2 * (v1 * v1 * v1)
        u1 = s * (-B * v1 + A * v2) + 3.0 * c2 * s * (v1 * v1 * v2)
        u2 = s2 * (-A * v1 - B * v2) + 3.0 * c2 * s2 * (2.0 * v1 * v2 * v2 - v1 * v1 * v1)
        u3 = s3 * (B * v1 - A * v2) + 3.0 * c2 * s3 * (2.0 * v2 * v2 * v2 - 7.0 * v1 * v1 * v2)
        return (u0, u1, u2, u3)
    raise ValueError("component index must be 1 or 2, got %r" % (i,))


def duffing_coeffs(p: DuffingParams):
    """Characteristic coefficients (a1, a2) of the two steady-state signals.

    x2_ss = sigma*v2 satisfies z'' + sigma^2 z = 0.  u_ss contains the
    fundamental and its third harmonic (from the cubic), so it satisfies
    (D^2 + sigma^2)(D^2 + 9 sigma^2) z = 0, i.e. coefficients
    (9 sigma^4, 0, 10 sigma^2, 0) in the constant-term-first convention.
    """
    s2 = p.sigma * p.sigma
    a1 = CoeffVector((s2, 0.0))
    a2 = CoeffVector((9.0 * s2 * s2, 0.0, 10.0 * s2, 0.0))
    return (a1, a2)


def steady_state_q(p: DuffingParams, i: int, spec: InternalModelSpec):
    """The Q of component i, which maps its generator state xi to theta.

    Q depends on the component but not on the exosystem state, so a caller
    that needs theta at many phases builds it once.
    """
    a1, a2 = duffing_coeffs(p)
    return q_matrix(a1 if i == 1 else a2, spec.m)


def steady_state_theta(v, p: DuffingParams, i: int, spec: InternalModelSpec, q=None):
    """Exact steady-state internal-model state theta = Q xi for component i.

    This is the state the filter eta converges to; it is the oracle against
    which the coefficient estimator and the chi reconstruction are checked.
    q, if given, is steady_state_q(p, i, spec).
    """
    if q is None:
        q = steady_state_q(p, i, spec)
    return tuple(mat_vec(q, steady_state_xi(v, p, i)))
