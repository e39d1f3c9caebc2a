"""Companion-form generator and internal-model matrix data.

Coefficient convention used throughout the package: a coefficient vector
a = (a_1, ..., a_n) stands for the monic polynomial

    s^n + a_n s^(n-1) + ... + a_2 s + a_1

i.e. ``a[0]`` is the CONSTANT term and ``a[j]`` multiplies s^j.  This is
unconventional (most libraries put the constant last) but every closed-form
expression downstream depends on it, so it is enforced by tests rather than
hidden behind a conversion layer.

The steady-state generator matrix Phi(a) is the companion matrix carrying
that polynomial.  The internal-model filter is eta' = M eta + N w with output
map Gamma: M is the 2n x 2n companion built the same way from
m = (m_1, ..., m_2n), and N and Gamma are fixed basis vectors, the last
column and the first row, so they are never stored.  Xi(a) and Q tie the
two together; q_matrix satisfies the Sylvester identity
M Q = Q Phi(a) - N Gamma, which sylvester_residual evaluates.  Coefficient
vectors are plain tuples of floats that coeff_tuple has checked.

None of this math needs M to be Hurwitz, so nothing here gates m: the
Hurwitz rule on a scenario's model.m1 and model.m2 lives in scenario.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Sequence

from .linalg import (
    Matrix,
    ShapeError,
    _checked,
    _require_finite,
    _row_slices,
    frobenius_norm,
    identity,
    mat_mul,
    mat_pow,
    solve_linear,
    sub,
    transpose,
)

def coeff_tuple(a) -> tuple:
    """Coefficients (a_1, ..., a_n) of s^n + a_n s^(n-1) + ... + a_1 as a
    tuple of floats, which must be nonempty and finite."""
    vals = tuple(float(x) for x in a)
    if not vals:
        raise ValueError("coefficient vector must be nonempty")
    for x in vals:
        if not math.isfinite(x):
            raise ValueError("non-finite coefficient %r" % x)
    return vals


def admissible_from_frequencies(freqs: Sequence[float]) -> tuple:
    """Coefficients of prod_j (s^2 + w_j^2) for distinct positive frequencies.

    Convenience constructor for admissible vectors: the roots are +-i w_j.
    """
    poly = [1.0]  # constant-first, monic
    for w in freqs:
        w = float(w)
        if w <= 0:
            raise ValueError("frequencies must be positive, got %r" % w)
        w2 = w * w
        poly = [w2 * c + d for c, d in zip(poly + [0.0, 0.0], [0.0, 0.0] + poly)]
    return coeff_tuple(poly[:-1])


def companion_matrix(a) -> Matrix:
    """Companion matrix with ones on the superdiagonal and bottom row -a.

    Its characteristic polynomial is s^n + a_n s^(n-1) + ... + a_2 s + a_1.
    """
    coeffs = coeff_tuple(a)
    n = len(coeffs)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = 1.0
    for j in range(n):
        rows[n - 1][j] = -coeffs[j]
    return Matrix(rows)


def _component(cfg, i: int) -> tuple:
    """(m_i, mask_i) of internal-model component i of scenario config cfg:
    1 generates x2_ss, 2 generates u_ss."""
    if i == 1:
        return cfg.m1, cfg.mask1
    if i == 2:
        return cfg.m2, cfg.mask2
    raise ValueError("component index must be 1 or 2, got %r" % (i,))


def _times_companion(row: tuple, last: tuple) -> tuple:
    """row Phi for the companion matrix Phi whose last row is `last`, with
    the bits of mat_mul; the product must be finite.

    Column c of Phi holds 1.0 in row c - 1 and last[c] in row n - 1.  Every
    other term of the product's sum is a signed zero, which leaves a sum
    seeded with 0.0 as it is (such a sum is never -0.0), so entry c is
    0.0 + row[c-1] + row[n-1]*last[c], with 0.0 in place of row[c-1] at c = 0.
    """
    t = row[-1]
    return _require_finite(tuple([0.0 + x + t * y for x, y in zip((0.0,) + row, last)]))


def xi_matrix(a, m: Sequence[float]) -> Matrix:
    """Xi(a) = Phi(a)^(2n) + sum_j m_j Phi(a)^(j-1), an n x n matrix.

    The leading power is formed by repeated squaring (mat_pow); the sum
    accumulates sequential powers since every one of them is needed.  The
    unit row e_r times Phi is exactly e_(r+1) for r < n - 1, so row r of
    Phi^j is row r + 1 of Phi^(j-1): the rows of Phi^0, ..., Phi^(2n-1) are
    the unit rows followed by 2n - 1 products of one row with Phi, each the
    bits the row of mat_mul(Phi^(j-1), Phi) would have.
    """
    coeffs = coeff_tuple(a)
    n = len(coeffs)
    mm = tuple(float(x) for x in m)
    if len(mm) != 2 * n:
        raise ShapeError("m has %d entries, expected 2n = %d" % (len(mm), 2 * n))
    phi = companion_matrix(coeffs)
    last = phi.data[-n:]
    acc = mat_pow(phi, 2 * n).data
    rows = _row_slices(identity(n))
    for _ in range(2 * n - 1):
        rows.append(_times_companion(rows[-1], last))
    for j, mj in enumerate(mm):
        acc = [s + mj * x for s, x in zip(acc, chain(*rows[j:j + n]))]
    return _checked(n, n, tuple(acc))


def q_matrix(a, m: Sequence[float]) -> Matrix:
    """Q, the 2n x n matrix whose j-th row is Gamma Xi(a)^-1 Phi(a)^(j-1).

    Its top n x n block is exactly Xi(a)^-1.  Raises SingularMatrixError when
    Xi is numerically singular.
    """
    coeffs = coeff_tuple(a)
    n = len(coeffs)
    xi = xi_matrix(coeffs, m)
    # first row of Xi^-1 == solution of Xi^T y = e_1
    rows = [_require_finite(tuple(solve_linear(transpose(xi), [1.0] + [0.0] * (n - 1))))]
    last = tuple(-x for x in coeffs)
    for _ in range(2 * n - 1):
        rows.append(_times_companion(rows[-1], last))
    return Matrix._of(2 * n, n, tuple(chain(*rows)))


def sylvester_residual(m: Sequence[float], Q: Matrix, a) -> float:
    """Frobenius norm of M Q - Q Phi(a) + N Gamma for the filter M of m."""
    coeffs = coeff_tuple(a)
    n = len(coeffs)
    M = companion_matrix(m)
    if M.rows != 2 * n:
        raise ShapeError("m has %d entries, expected 2n = %d" % (M.rows, 2 * n))
    if Q.rows != 2 * n or Q.cols != n:
        raise ShapeError("Q is %dx%d, expected %dx%d" % (Q.rows, Q.cols, 2 * n, n))
    phi = companion_matrix(coeffs)
    # N Gamma: the last basis column times the first basis row
    n_gamma = Matrix._of(2 * n, n, (0.0,) * ((2 * n - 1) * n) + (1.0,) + (0.0,) * (n - 1))
    residual = sub(mat_mul(M, Q), sub(mat_mul(Q, phi), n_gamma))
    return frobenius_norm(residual)
