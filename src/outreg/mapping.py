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
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .internal_model import CoeffVector, xi_matrix
from .linalg import Matrix, ShapeError, _dot, adjugate, determinant, mat_vec, scale, zeros
from .record import Record


class MappingConfig(Record):
    """Estimator configuration for one internal-model component.

    n: generator dimension (the filter state has 2n entries).
    m: the 2n filter coefficients (same vector the Hurwitz pair uses).
    epsilon: regularization threshold; the surrogate inverse is exact once
        det^2(Theta) >= epsilon^2.
    zero_mask: optional n booleans; True entries are forced to exactly 0
        after estimation (structurally known zeros of the benchmark).
    """

    _fields = ("n", "m", "epsilon", "zero_mask")

    def __init__(self, n: int, m: Sequence[float], epsilon: float,
                 zero_mask: Optional[Sequence[bool]] = None):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        m = tuple(float(x) for x in m)
        if len(m) != 2 * n:
            raise ShapeError("m has %d entries, expected 2n = %d" % (len(m), 2 * n))
        if not (float(epsilon) > 0.0):
            raise ValueError("epsilon must be > 0, got %r" % (epsilon,))
        if zero_mask is not None:
            zero_mask = tuple(bool(b) for b in zero_mask)
            if len(zero_mask) != n:
                raise ShapeError("zero_mask has %d entries, expected n = %d" % (len(zero_mask), n))
        self.__dict__.update(n=n, m=m, epsilon=float(epsilon), zero_mask=zero_mask)


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


def estimate_coeffs(eta, cfg: MappingConfig) -> CoeffVector:
    """a_check = -O(Theta(eta)) . col(eta_{n+1}, ..., eta_{2n}), then mask."""
    return _estimate(_eta_tuple(eta, cfg.n), cfg)


def _estimate(vals: tuple, cfg: MappingConfig) -> CoeffVector:
    """estimate_coeffs for filter state vals, already checked."""
    o = regularized_inverse(_hankel_of(vals), cfg.epsilon)
    a = [-x for x in mat_vec(o, vals[cfg.n:])]
    if cfg.zero_mask is not None:
        for i, masked in enumerate(cfg.zero_mask):
            if masked:
                a[i] = 0.0
    return CoeffVector(a)


def chi(eta, cfg: MappingConfig) -> float:
    """Gamma . Xi(a_check(eta)) . col(eta_1, ..., eta_n), a scalar."""
    vals = _eta_tuple(eta, cfg.n)
    return _chi_of(vals, _estimate(vals, cfg), cfg)


def _chi_of(vals: tuple, a: CoeffVector, cfg: MappingConfig) -> float:
    """chi for filter state vals (already checked) and its estimate a."""
    return _dot(xi_matrix(a, cfg.m).row(0), vals)
