"""Closed-form estimator and mapping expressions for the benchmark dimensions.

These are the hand-expanded polynomial forms of estimate_coeffs and chi for
n = 2 and n = 4 with the structural zero pattern of the rotation-driven
benchmark (every second coefficient vanishes).  They share no matrix code
with the generic path beyond the determinant, so the two implementations
cross-validate each other; tests enforce agreement to relative 1e-10.

Index convention in comments: eta_k below is eta[k-1].
"""

from __future__ import annotations

from .internal_model import coeff_tuple
from .linalg import determinant
from .mapping import _eta_tuple, _hankel_of, bump_psi


def _scale(e: tuple, eps: float) -> float:
    # det / (det^2 + Psi(1 + det^2 - eps^2)), the scalar front factor of the
    # surrogate inverse, for a filter state _eta_tuple has checked;
    # zero-determinant input gives exactly 0
    d = determinant(_hankel_of(e))
    if d == 0.0:
        return 0.0
    return d / (d * d + bump_psi(1.0 + d * d - eps * eps))


def closed_form_ahat1(eta, epsilon: float) -> tuple:
    """Closed-form coefficient estimate for n = 2: (scale*(e2 e4 - e3^2), 0)."""
    e = _eta_tuple(eta, 2)
    s = _scale(e, float(epsilon))
    e2, e3, e4 = e[1], e[2], e[3]
    return coeff_tuple((s * (e2 * e4 - e3 * e3), 0.0))


def closed_form_ahat2(eta, epsilon: float) -> tuple:
    """Closed-form coefficient estimate for n = 4: (a1, 0, a3, 0)."""
    e = _eta_tuple(eta, 4)
    s = _scale(e, float(epsilon))
    n1, n2, n3, n4, n5, n6, n7, n8 = e
    a1 = s * (
        n5 * (n7 * n4 * n4 - 2.0 * n4 * n5 * n6 + n5 * n5 * n5 - n3 * n7 * n5 + n3 * n6 * n6)
        - n8 * (n6 * n3 * n3 - 2.0 * n3 * n4 * n5 + n4 * n4 * n4 - n2 * n6 * n4 + n2 * n5 * n5)
        - n7 * (-n7 * n3 * n3 + n6 * n3 * n4 + n3 * n5 * n5 - n4 * n4 * n5 + n2 * n7 * n4 - n2 * n6 * n5)
        - n6 * (-n4 * n4 * n6 + n4 * n5 * n5 + n3 * n7 * n4 - n3 * n5 * n6 - n2 * n7 * n5 + n2 * n6 * n6)
    )
    a3 = s * (
        n8 * (-n6 * n2 * n2 + n5 * n2 * n3 + n2 * n4 * n4 - n3 * n3 * n4 + n1 * n6 * n3 - n1 * n5 * n4)
        - n5 * (-n7 * n3 * n3 + n6 * n3 * n4 + n3 * n5 * n5 - n4 * n4 * n5 + n2 * n7 * n4 - n2 * n6 * n5)
        - n6 * (n4 * n4 * n4 - n1 * n4 * n7 + n1 * n5 * n6 + n2 * n3 * n7 - n2 * n4 * n6 - n3 * n4 * n5)
        + n7 * (n7 * n2 * n2 - 2.0 * n2 * n4 * n5 + n3 * n4 * n4 + n1 * n5 * n5 - n1 * n3 * n7)
    )
    return coeff_tuple((a1, 0.0, a3, 0.0))


def closed_form_chi1(eta, a_hat, m) -> float:
    """chi for n = 2: e1 (a1^2 - m3 a1 + m1) + e2 (m2 - a1 m4)."""
    e = _eta_tuple(eta, 2)
    a = tuple(map(float, a_hat))
    if len(a) != 2:
        raise ValueError("coefficient estimate must have 2 entries, got %d" % len(a))
    mm = tuple(float(x) for x in m)
    if len(mm) != 4:
        raise ValueError("m must have 4 entries, got %d" % len(mm))
    a1 = a[0]
    return e[0] * (a1 * a1 - mm[2] * a1 + mm[0]) + e[1] * (mm[1] - a1 * mm[3])


def closed_form_chi2(eta, a_hat, m) -> float:
    """chi for n = 4, polynomial in (a1, a3) and the first four filter states."""
    e = _eta_tuple(eta, 4)
    a = tuple(map(float, a_hat))
    if len(a) != 4:
        raise ValueError("coefficient estimate must have 4 entries, got %d" % len(a))
    mm = tuple(float(x) for x in m)
    if len(mm) != 8:
        raise ValueError("m must have 8 entries, got %d" % len(mm))
    a1, a3 = a[0], a[2]
    return (
        e[2] * (mm[2] + a1 * a3 - a3 * mm[4] + a3 * (a1 - a3 * a3) - mm[6] * (a1 - a3 * a3))
        + e[1] * (mm[1] - a1 * mm[5] + a1 * a3 * mm[7])
        + e[0] * (a1 * a1 - a1 * a3 * a3 + mm[6] * a1 * a3 - mm[4] * a1 + mm[0])
        - e[3] * (a3 * mm[5] - mm[3] + mm[7] * (a1 - a3 * a3))
    )
