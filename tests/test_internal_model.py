import math
import random
import re

import numpy as np
import pytest

from outreg import linalg
from outreg.controller import filter_derivative
from outreg.internal_model import (
    _times_companion,
    admissible_from_frequencies,
    coeff_tuple,
    companion_matrix,
    q_matrix,
    sylvester_residual,
    xi_matrix,
)
from outreg.linalg import (Matrix, ShapeError, SingularMatrixError, determinant, identity,
                           mat_mul, mat_pow, transpose)
from outreg.scenario import _HURWITZ_MARGIN, ScenarioConfig, _routh_failure

M1 = (10.0, 18.0, 15.0, 6.0)
M2 = (1.0, 5.0, 13.0, 22.0, 26.0, 22.0, 13.0, 5.0)
A1 = (0.25, 0.0)                    # frequency 0.5
A2 = (0.5625, 0.0, 2.5, 0.0)        # frequencies 0.5 and 1.5


def random_admissible(rng, n):
    # distinct imaginary-axis root pairs; n must be even
    while True:
        freqs = sorted(rng.uniform(0.1, 3.0) for _ in range(n // 2))
        if all(b - a > 0.05 for a, b in zip(freqs, freqs[1:])):
            return admissible_from_frequencies(freqs)


def test_companion_examples():
    assert companion_matrix(A1).to_lists() == [[0.0, 1.0], [-0.25, 0.0]]
    c2 = companion_matrix(A2)
    assert c2.row(3) == [-0.5625, 0.0, -2.5, 0.0]
    assert c2.row(0) == [0.0, 1.0, 0.0, 0.0]
    assert c2.row(1) == [0.0, 0.0, 1.0, 0.0]
    assert c2.row(2) == [0.0, 0.0, 0.0, 1.0]
    assert companion_matrix((0.0,)).to_lists() == [[0.0]]


def test_companion_characteristic_polynomial():
    # det(sI - Phi) must equal s^n + a_n s^(n-1) + ... + a_1, checked by
    # evaluating both sides at 2n+1 sample points
    rng = random.Random(101)
    for _ in range(50):
        n = rng.randint(1, 6)
        a = [rng.uniform(-3, 3) for _ in range(n)]
        phi = np.array(companion_matrix(a).to_lists())
        for s in np.linspace(-2.0, 2.0, 2 * n + 1):
            lhs = float(np.linalg.det(s * np.eye(n) - phi))
            rhs = s ** n + sum(a[j] * s ** j for j in range(n))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_admissible_from_frequencies():
    for freqs, a, want in (([0.5], A1, [-0.5j, 0.5j]),
                           ([0.5, 1.5], A2, [-1.5j, -0.5j, 0.5j, 1.5j])):
        cv = admissible_from_frequencies(freqs)
        assert cv == pytest.approx(a)
        # distinct roots on the imaginary axis; np.roots wants the constant last
        r = sorted(np.roots([1.0, *reversed(cv)]), key=lambda z: z.imag)
        assert r == pytest.approx(want, abs=1e-9)
    with pytest.raises(ValueError):
        admissible_from_frequencies([0.0])


@pytest.mark.parametrize("freqs, want", [
    ([0.5], (0.25, 0.0)),
    ([0.5, 1.5], (0.5625, 0.0, 2.5, 0.0)),
    ([0.3, 1.1, 2.7], (0.7938810000000002, 0.0, 9.585900000000004, 0.0,
                       8.590000000000002, 0.0)),
])
def test_admissible_from_frequencies_bits(freqs, want):
    # exact values of the numpy convolution this product replaced
    assert admissible_from_frequencies(freqs) == want


def test_hurwitz_gate_accepts_benchmark_filters():
    # N and Gamma, the last basis column and the first basis row, are fixed:
    # test_sylvester_residual_n_gamma and test_filter_derivative_structure
    # pin where they act
    assert _routh_failure(M1) is None
    M = companion_matrix(M1)
    assert (M.rows, M.cols) == (4, 4)
    # roots of (s^2+2s+2)(s^2+4s+5)
    eigs = sorted(np.linalg.eigvals(np.array(M.to_lists())), key=lambda z: (z.real, z.imag))
    want = sorted([-2 + 1j, -2 - 1j, -1 + 1j, -1 - 1j], key=lambda z: (z.real, z.imag))
    assert eigs == pytest.approx(want, abs=1e-8)

    assert _routh_failure(M2) is None
    M = companion_matrix(M2)
    assert (M.rows, M.cols) == (8, 8)
    assert max(z.real for z in np.linalg.eigvals(np.array(M.to_lists()))) < -1e-6


def test_hurwitz_gate_rejects_unstable():
    # the message names the first Routh first-column entry that is not > 0
    # (s^2 - 1 has root +1, s^2 + s a root at the origin)
    assert _routh_failure((-1.0, 0.0)) == (
        "filter polynomial shifted by -1e-06 fails Routh-Hurwitz: row 1 of 2 has "
        "first-column entry -2e-06, not > 0")
    assert _routh_failure((0.0, 1.0)).endswith(
        "row 2 of 2 has first-column entry -9.99999e-07, not > 0")


def _worst_real_part(m):
    return float(np.linalg.eigvals(np.array(companion_matrix(m).to_lists())).real.max())


def _accepts(m):
    return _routh_failure(m) is None


@pytest.mark.parametrize("name, m, accepted", [
    ("s^2 + s, root at 0", (0.0, 1.0), False),
    ("s^2 - 1", (-1.0, 0.0), False),
    # the real parts are exactly the margin: on it counts as outside
    ("roots -1e-6 +- i", (1.0 + 1e-12, 2e-6), False),
    ("roots -2e-6 +- i", (1.0 + 4e-12, 4e-6), True),
    ("roots -2e-6 and -1", (2e-6, 1.0 + 2e-6), True),
    ("M1", M1, True),
    ("M2", M2, True),
])
def test_hurwitz_gate_boundary_cases(name, m, accepted):
    assert _accepts(m) is accepted


def test_hurwitz_gate_agrees_with_eigenvalues():
    # seeded random root sets around the margin and across the axis; the
    # Routh decision must match eigvals wherever the worst real part is
    # clear of the margin by more than the shift's rounding
    rng = random.Random(104)
    compared = 0
    for _ in range(5000):
        degree = rng.choice([2, 4, 6, 8])
        roots = []
        while len(roots) < degree:
            if rng.random() < 0.8:
                re = rng.choice([-1.0, -1.0, -1.0, 1.0]) * 10.0 ** rng.uniform(-7, 1)
            else:
                re = rng.uniform(-3.0, 0.5)
            if degree - len(roots) >= 2 and rng.random() < 0.6:
                im = rng.uniform(0.01, 3.0)
                roots += [complex(re, im), complex(re, -im)]
            else:
                roots.append(complex(re, 0.0))
        m = tuple(np.poly(roots).real[::-1][:-1])
        worst = _worst_real_part(m)
        if abs(worst - _HURWITZ_MARGIN) <= 1e-7:
            continue
        compared += 1
        assert _accepts(m) is (worst <= _HURWITZ_MARGIN), (m, worst)
    assert compared > 4800


def test_xi_matrix_duffing_first_row():
    # closed form of the first row for n=2: (a1^2 - m3 a1 + m1, m2 - m4 a1)
    xi = xi_matrix(A1, M1)
    assert xi.row(0) == pytest.approx([6.3125, 16.5])
    a1 = 0.25
    want = [a1 * a1 - 15.0 * a1 + 10.0, 18.0 - 6.0 * a1]
    assert xi.row(0) == pytest.approx(want)


def test_xi_matrix_scalar_case():
    xi = xi_matrix((0.0,), (1.0, 2.0))
    assert xi.to_lists() == [[1.0]]


def test_xi_matrix_nonsingular_on_admissible_draws():
    rng = random.Random(102)
    for _ in range(100):
        n = rng.choice([2, 4])
        a = random_admissible(rng, n)
        m = M1 if n == 2 else M2
        assert abs(determinant(xi_matrix(a, m))) >= 1e-12


def test_xi_matrix_shape_error():
    with pytest.raises(ShapeError):
        xi_matrix(A1, M2)


def test_q_matrix_top_block_is_xi_inverse():
    for a, m in ((A1, M1), (A2, M2)):
        n = len(a)
        q = q_matrix(a, m)
        assert q.rows == 2 * n and q.cols == n
        top = Matrix([q.row(i) for i in range(n)])
        prod = mat_mul(top, xi_matrix(a, m))
        for i in range(n):
            for j in range(n):
                want = 1.0 if i == j else 0.0
                assert prod.at(i, j) == pytest.approx(want, abs=1e-9)


def test_q_matrix_degenerate_dimension():
    # n=1 with a=(0): Phi=[0], Xi=[m1], rows Gamma Xi^-1 Phi^(j-1) = (1/m1, 0)
    q = q_matrix((0.0,), (1.0, 2.0))
    assert q.to_lists() == [[1.0], [0.0]]


def _plain_xi(a, m):
    """xi_matrix with each power of Phi the mat_mul of the one before."""
    phi = companion_matrix(a)
    n = phi.rows
    acc = mat_pow(phi, 2 * n).to_lists()
    p = identity(n)
    for j, mj in enumerate(m, 1):
        for r in range(n):
            for c in range(n):
                acc[r][c] += mj * p.at(r, c)
        if j < 2 * n:
            p = mat_mul(p, phi)
    return Matrix(acc)


def _plain_q(a, m):
    """q_matrix with each row times Phi an explicit loop from 0.0."""
    phi = companion_matrix(a)
    n = phi.rows
    e1 = [1.0] + [0.0] * (n - 1)
    rows = linalg._solve_loop(linalg._row_slices(transpose(_plain_xi(a, m))), [e1])
    for _ in range(2 * n - 1):
        row = []
        for c in range(n):
            s = 0.0
            for k in range(n):
                s += rows[-1][k] * phi.at(k, c)
            row.append(s)
        rows.append(row)
    return Matrix(rows)


def test_companion_products_equal_the_plain_products_bit_for_bit():
    # xi_matrix and q_matrix multiply by Phi one row at a time; pooled draws
    # carry zero and -0.0 coefficients and singular Xi
    rng = random.Random(24)
    pool = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0)
    refused = 0
    for trial in range(1500):
        n = 1 + trial % 5
        pooled = trial // 5 % 2
        a, row = ([rng.choice(pool) if pooled else rng.uniform(-3.0, 3.0) for _ in range(n)]
                  for _ in range(2))
        phi = companion_matrix(a)
        assert (repr(_times_companion(tuple(row), phi.data[-n:]))
                == repr(mat_mul(Matrix([row]), phi).data)), (a, row)
        m = [rng.choice(pool) if pooled else rng.uniform(0.1, 3.0) for _ in range(2 * n)]
        assert repr(xi_matrix(a, m).data) == repr(_plain_xi(a, m).data), (a, m)
        try:
            want = repr(_plain_q(a, m).data)
        except SingularMatrixError as exc:
            with pytest.raises(SingularMatrixError, match=re.escape(str(exc))):
                q_matrix(a, m)
            refused += 1
            continue
        assert repr(q_matrix(a, m).data) == want, (a, m)
    assert 0 < refused < 300


def test_sylvester_residual_duffing():
    q1 = q_matrix(A1, M1)
    assert sylvester_residual(M1, q1, A1) <= 1e-10

    q2 = q_matrix(A2, M2)
    assert sylvester_residual(M2, q2, A2) <= 1e-9


def test_sylvester_residual_zero_q():
    from outreg.linalg import zeros

    assert sylvester_residual(M1, zeros(4, 2), A1) == pytest.approx(1.0)


def test_sylvester_residual_n_gamma():
    # N is the last basis column and Gamma the first basis row: on random Q
    # the residual has the bits of M Q - Q Phi + N Gamma with N Gamma formed
    # by mat_mul
    rng = random.Random(29)
    for a, m in ((A1, M1), (A2, M2)):
        n = len(a)
        n_gamma = mat_mul(Matrix([[0.0]] * (2 * n - 1) + [[1.0]]),
                          Matrix([[1.0] + [0.0] * (n - 1)]))
        for _ in range(20):
            q = Matrix([[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(2 * n)])
            want = linalg.frobenius_norm(linalg.sub(
                mat_mul(companion_matrix(m), q),
                linalg.sub(mat_mul(q, companion_matrix(a)), n_gamma)))
            assert repr(sylvester_residual(m, q, a)) == repr(want)


def test_sylvester_residual_random_admissible():
    rng = random.Random(103)
    for _ in range(100):
        n = rng.choice([2, 4])
        m = M1 if n == 2 else M2
        a = random_admissible(rng, n)
        q = q_matrix(a, m)
        assert sylvester_residual(m, q, a) <= 1e-9


def test_sylvester_residual_dimension_errors():
    q2 = q_matrix(A2, M2)
    with pytest.raises(ShapeError):
        sylvester_residual(M1, q2, A2)
    with pytest.raises(ShapeError):
        sylvester_residual(M1, q2, A1)


def test_the_filter_math_needs_no_hurwitz_filter():
    # s^2 - 1 and s^4 - 1 have the root +1: the Sylvester identity and the
    # filter ODE hold for any m; only a scenario's m1 and m2 are gated
    assert sylvester_residual((-1.0, 0.0), q_matrix((0.25,), (-1.0, 0.0)), (0.25,)) == 0.0
    cfg = ScenarioConfig(m1=(-1.0, 0.0, 0.0, 0.0))
    assert filter_derivative((1.0, 0.0, 0.0, 0.0), 0.5, cfg, 1) == [0.0, 0.0, 0.0, 1.5]


def test_coeff_tuple_rejects_bad_input():
    with pytest.raises(ValueError):
        coeff_tuple(())
    with pytest.raises(ValueError):
        coeff_tuple((math.nan, 1.0))
