import math
import random

import numpy as np
import pytest

from outreg.linalg import Matrix, ShapeError, frobenius_norm, mat_mul, sub, identity
from outreg.mapping import (
    bump_kappa,
    bump_psi,
    chi,
    estimate_coeffs,
    hankel,
    regularized_inverse,
)
from outreg.closed_forms import closed_form_ahat1, closed_form_ahat2, closed_form_chi1, closed_form_chi2
from outreg.scenario import ScenarioConfig

CFG = ScenarioConfig()  # epsilon = 0.1, mask1 = (0, 1), mask2 = (0, 1, 0, 1)


def test_hankel_examples():
    assert hankel((1.0, 2.0, 3.0, 99.0)).to_lists() == [[1.0, 2.0], [2.0, 3.0]]
    assert hankel((0.0, 0.0, 0.0, 0.0)).to_lists() == [[0.0, 0.0], [0.0, 0.0]]
    h4 = hankel(tuple(range(1, 9)))
    assert h4.to_lists() == [
        [1.0, 2.0, 3.0, 4.0],
        [2.0, 3.0, 4.0, 5.0],
        [3.0, 4.0, 5.0, 6.0],
        [4.0, 5.0, 6.0, 7.0],
    ]
    # symmetric by construction
    for r in range(4):
        for c in range(4):
            assert h4.at(r, c) == h4.at(c, r)


def test_hankel_rejects_odd_length():
    with pytest.raises(ShapeError):
        hankel((1.0, 2.0, 3.0))


def test_bump_kappa():
    assert bump_kappa(0.5) == pytest.approx(math.exp(-2.0))
    assert bump_kappa(0.0) == 0.0
    assert bump_kappa(-1.0) == 0.0
    # underflow region is exactly zero, not an exception
    assert bump_kappa(1e-4) == 0.0


def test_bump_psi_endpoints_and_symmetry():
    assert bump_psi(0.0) == 1.0
    assert bump_psi(1.0) == 0.0
    assert bump_psi(0.5) == pytest.approx(0.5)
    assert bump_psi(-3.0) == 1.0
    assert bump_psi(7.0) == 0.0
    for s in np.linspace(0.0, 1.0, 101):
        p = bump_psi(float(s))
        assert 0.0 <= p <= 1.0
        assert p + bump_psi(1.0 - float(s)) == pytest.approx(1.0, abs=1e-12)


def test_bump_psi_monotone_on_unit_interval():
    xs = np.linspace(0.05, 0.95, 50)
    vals = [bump_psi(float(s)) for s in xs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_regularized_inverse_examples():
    o = regularized_inverse(Matrix([[2.0, 0.0], [0.0, 2.0]]), 0.1)
    assert list(o.data) == pytest.approx([0.5, 0.0, 0.0, 0.5])
    z = regularized_inverse(Matrix([[0.0, 0.0], [0.0, 0.0]]), 0.1)
    assert z.to_lists() == [[0.0, 0.0], [0.0, 0.0]]
    # at the threshold det^2 == eps^2 the Psi argument is exactly 1
    t = math.sqrt(0.1)
    o = regularized_inverse(Matrix([[t, 0.0], [0.0, t]]), 0.1)
    prod = mat_mul(o, Matrix([[t, 0.0], [0.0, t]]))
    assert frobenius_norm(sub(prod, identity(2))) <= 1e-12


def test_regularized_inverse_exact_above_threshold():
    rng = random.Random(31)
    eps = 0.1
    checked = 0
    while checked < 300:
        n = rng.choice([2, 3, 4])
        t = Matrix([[rng.uniform(-5, 5) for _ in range(n)] for _ in range(n)])
        from outreg.linalg import determinant

        if determinant(t) ** 2 < eps * eps:
            continue
        o = regularized_inverse(t, eps)
        err = frobenius_norm(sub(mat_mul(o, t), identity(n)))
        assert err <= 1e-9
        checked += 1


def test_regularized_inverse_total_on_singular_input():
    rng = random.Random(37)
    for _ in range(500):
        n = rng.choice([2, 4])
        row = [rng.uniform(-5, 5) for _ in range(n)]
        # rank-1 matrix: exactly singular for n >= 2
        t = Matrix([[rng.uniform(-2, 2) * x for x in row] for _ in range(n)])
        o = regularized_inverse(t, 0.1)
        assert all(math.isfinite(x) for x in o.data)


def test_regularized_inverse_zero_det_is_zero_matrix():
    t = Matrix([[1.0, 2.0], [2.0, 4.0]])
    o = regularized_inverse(t, 0.1)
    assert o.to_lists() == [[0.0, 0.0], [0.0, 0.0]]


def test_regularized_inverse_epsilon_validation():
    with pytest.raises(ValueError):
        regularized_inverse(identity(2), 0.0)
    with pytest.raises(ValueError):
        regularized_inverse(identity(2), -1.0)


def test_estimate_coeffs_worked_example():
    # eta=(1,2,3,4): det Theta = -1, |det| >= eps, so the surrogate is the
    # true inverse and the unmasked estimate is (1, -2)
    cfg_nomask = ScenarioConfig(mask1=(False, False))
    a = estimate_coeffs((1.0, 2.0, 3.0, 4.0), cfg_nomask, 1)
    assert a == pytest.approx((1.0, -2.0))
    a = estimate_coeffs((1.0, 2.0, 3.0, 4.0), CFG, 1)
    assert a[0] == pytest.approx(1.0)
    assert a[1] == 0.0


def test_estimate_coeffs_zero_state():
    assert estimate_coeffs((0.0,) * 4, CFG, 1) == (0.0, 0.0)
    assert estimate_coeffs((0.0,) * 8, CFG, 2) == (0.0, 0.0, 0.0, 0.0)


def test_estimate_coeffs_mask_contract():
    rng = random.Random(41)
    for _ in range(100):
        eta = [rng.uniform(-5, 5) for _ in range(8)]
        a = estimate_coeffs(eta, CFG, 2)
        assert a[1] == 0.0
        assert a[3] == 0.0


def test_chi_zero_state():
    assert chi((0.0,) * 4, CFG, 1) == 0.0
    assert chi((0.0,) * 8, CFG, 2) == 0.0


def test_closed_form_chi1_basis_example():
    # first basis state with zero estimate picks out m1
    val = closed_form_chi1((1.0, 0.0, 0.0, 0.0), (0.0, 0.0), CFG.m1)
    assert val == 10.0


def test_closed_form_ahat1_worked_example():
    a = closed_form_ahat1((1.0, 2.0, 3.0, 4.0), 0.1)
    assert a == pytest.approx((1.0, 0.0))
    assert a[1] == 0.0


def test_closed_form_dimension_errors():
    with pytest.raises(ShapeError):
        closed_form_ahat1((1.0,) * 8, 0.1)
    with pytest.raises(ShapeError):
        closed_form_ahat2((1.0,) * 4, 0.1)
    with pytest.raises(ShapeError):
        closed_form_chi1((1.0,) * 8, (0.0, 0.0), CFG.m1)
    with pytest.raises(ValueError):
        closed_form_chi1((1.0,) * 4, (0.0, 0.0, 0.0), CFG.m1)
    with pytest.raises(ValueError):
        closed_form_chi2((1.0,) * 8, (0.0,) * 4, CFG.m1)


def test_generic_matches_closed_forms():
    # the generic matrix path and the hand-expanded polynomials must agree
    # to relative 1e-10 on random states, for both component dimensions
    rng = random.Random(43)
    for _ in range(300):
        eta1 = [rng.uniform(-5, 5) for _ in range(4)]
        eta2 = [rng.uniform(-5, 5) for _ in range(8)]

        g1 = estimate_coeffs(eta1, CFG, 1)
        t1 = closed_form_ahat1(eta1, 0.1)
        ref = 1.0 + max(abs(x) for x in t1)
        assert max(abs(x - y) for x, y in zip(g1, t1)) <= 1e-10 * ref

        g2 = estimate_coeffs(eta2, CFG, 2)
        t2 = closed_form_ahat2(eta2, 0.1)
        ref = 1.0 + max(abs(x) for x in t2)
        assert max(abs(x - y) for x, y in zip(g2, t2)) <= 1e-10 * ref

        c1 = chi(eta1, CFG, 1)
        c1t = closed_form_chi1(eta1, t1, CFG.m1)
        assert abs(c1 - c1t) <= 1e-10 * (1.0 + abs(c1t))

        c2 = chi(eta2, CFG, 2)
        c2t = closed_form_chi2(eta2, t2, CFG.m2)
        assert abs(c2 - c2t) <= 1e-10 * (1.0 + abs(c2t))


def test_filter_state_length_must_match_the_component():
    with pytest.raises(ShapeError, match="filter state has 8 entries, expected 4"):
        estimate_coeffs((1.0,) * 8, CFG, 1)
    with pytest.raises(ShapeError, match="filter state has 4 entries, expected 8"):
        chi((1.0,) * 4, CFG, 2)
