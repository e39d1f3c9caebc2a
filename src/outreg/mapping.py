"""Hankel-based coefficient estimation and the steady-state output mapping.

Given the 2n filter states eta, the anti-diagonal-constant matrix
Theta(eta) and the tail col(eta_{n+1}, ..., eta_{2n}) form a linear system
whose solution recovers the generator coefficients.  Since Theta can pass
through singularity along trajectories, the inverse is replaced by the
globally defined surrogate

    O(Theta) = det(Theta) / (det^2(Theta) + Psi(1 + det^2(Theta) - eps^2)) . Adj(Theta)

built from a smooth bump-function partition Psi.  O equals the true inverse
whenever det^2 >= eps^2 and degrades to the zero matrix at det = 0.

chi(eta) = Gamma . Xi(a_check(eta)) . col(eta_1, ..., eta_n) evaluates the
steady-state signal estimate used by the control laws.

estimate_coeffs and chi read internal-model component i (1 or 2) of a
scenario.ScenarioConfig: its 2n filter coefficients m_i, the shared epsilon
and mask_i, whose True entries force the estimate's entry to exactly 0
(structurally known zeros of the benchmark).  An estimate is a tuple of n
floats that internal_model.coeff_tuple has checked.
"""

from __future__ import annotations

import math

from .internal_model import _component, coeff_tuple, xi_matrix
from .linalg import Matrix, ShapeError, _dot, adjugate, determinant, mat_vec, scale, zeros


def _eta_tuple(eta, n=None):
    vals = tuple(float(x) for x in eta)
    if len(vals) % 2 != 0 or not vals:
        raise ShapeError("filter state must have 2n entries, got %d" % len(vals))
    if n is not None and len(vals) != 2 * n:
        raise ShapeError("filter state has %d entries, expected %d" % (len(vals), 2 * n))
    for x in vals:
        if not math.isfinite(x):
            raise ValueError("non-finite filter state entry %r" % x)
    return vals


def hankel(eta) -> Matrix:
    """n x n matrix with entry (r, c) = eta_{r+c-1} (1-indexed); symmetric."""
    return _hankel_of(_eta_tuple(eta))


def _hankel_of(vals: tuple) -> Matrix:
    """hankel of a filter state _eta_tuple has already checked."""
    n = len(vals) // 2
    # copies of entries _eta_tuple has checked finite
    return Matrix._of(n, n, tuple([x for r in range(n) for x in vals[r:r + n]]))


def bump_kappa(s: float) -> float:
    """exp(-1/s) for s > 0, else 0; the C-infinity bump ingredient."""
    if s > 0.0:
        return math.exp(-1.0 / s)
    return 0.0


def bump_psi(s: float) -> float:
    """kappa(1-s) / (kappa(s) + kappa(1-s)): 1 for s <= 0, 0 for s >= 1.

    The denominator is positive for every s (the two kappa supports cover
    the line).  In doubles, kappa underflows to 0 for arguments below about
    0.0366, which snaps Psi to exactly 1 (or 0) slightly inside (0, 1);
    accepted, since the exact endpoint values are what the surrogate
    inverse relies on.
    """
    up = bump_kappa(1.0 - s)
    dn = bump_kappa(s) + up
    return up / dn


def regularized_inverse(theta: Matrix, epsilon: float) -> Matrix:
    """O(Theta), the total (never-failing) surrogate for Theta^-1.

    Exactly Theta^-1 when det^2 >= epsilon^2 (the Psi argument reaches 1);
    exactly the zero matrix when det = 0, which is also the formula's limit
    and sidesteps the 0/0 corner when epsilon >= 1 makes Psi underflow.
    """
    if not theta.is_square:
        raise ShapeError("need a square matrix, got %dx%d" % (theta.rows, theta.cols))
    if not (float(epsilon) > 0.0):
        raise ValueError("epsilon must be > 0, got %r" % (epsilon,))
    return _inverse_and_det(theta, float(epsilon))[0]


def _inverse_and_det(theta: Matrix, epsilon: float):
    """(O(Theta), det Theta) for a square Theta and a valid epsilon."""
    d = determinant(theta)
    if d == 0.0:
        return zeros(theta.rows, theta.cols), d
    s = d / (d * d + bump_psi(1.0 + d * d - epsilon * epsilon))
    return scale(adjugate(theta), s), d


def estimate_coeffs(eta, cfg, i: int) -> tuple:
    """a_check = -O(Theta(eta)) . col(eta_{n+1}, ..., eta_{2n}) for
    component i of scenario config cfg, then its mask."""
    m, mask = _component(cfg, i)
    return _estimate(_eta_tuple(eta, len(m) // 2), cfg.epsilon, mask)


def _estimate(vals: tuple, epsilon: float, mask) -> tuple:
    """estimate_coeffs for filter state vals, already checked."""
    o = regularized_inverse(_hankel_of(vals), epsilon)
    a = [-x for x in mat_vec(o, vals[len(vals) // 2:])]
    for j, masked in enumerate(mask):
        if masked:
            a[j] = 0.0
    return coeff_tuple(a)


def chi(eta, cfg, i: int) -> float:
    """Gamma . Xi(a_check(eta)) . col(eta_1, ..., eta_n) for component i of
    scenario config cfg, a scalar."""
    m, mask = _component(cfg, i)
    vals = _eta_tuple(eta, len(m) // 2)
    return _chi_of(vals, _estimate(vals, cfg.epsilon, mask), m)


def _chi_of(vals: tuple, a: tuple, m) -> float:
    """chi for filter state vals (already checked), its estimate a and the
    filter coefficients m."""
    return _dot(xi_matrix(a, m).row(0), vals)
