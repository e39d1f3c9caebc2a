import random

import pytest

from outreg.controller import control_adaptive, control_nonadaptive, filter_derivative, zeta
from outreg.linalg import ShapeError
from outreg.scenario import GainSyntaxError, Polynomial, ScenarioConfig

CFG = ScenarioConfig()  # rho = 10 + 4 s^4, k = 1 + s^2, k0 = 1


def test_polynomial_parse_benchmark_gains():
    rho = Polynomial.parse("10 + 4*s^4")
    assert rho.coeffs == (10.0, 0.0, 0.0, 0.0, 4.0)
    k = Polynomial.parse("s^2 + 1")
    assert k.coeffs == (1.0, 0.0, 1.0)
    assert rho(1.0) == 14.0
    assert rho(0.0) == 10.0
    assert k(2.0) == 5.0


def test_polynomial_parse_variants():
    assert Polynomial.parse("3/2*s").coeffs == (0.0, 1.5)
    assert Polynomial.parse("-s + 2").coeffs == (2.0, -1.0)
    assert Polynomial.parse("0").coeffs == (0.0,)
    assert Polynomial.parse("s").coeffs == (0.0, 1.0)
    assert Polynomial.parse(".5 + s^3").coeffs == (0.5, 0.0, 0.0, 1.0)
    assert Polynomial.parse("1 + 2*s + s^2 - s").coeffs == (1.0, 1.0, 1.0)


def test_polynomial_parse_rejects_bad_syntax():
    for bad in ("", "1e-3", "x^2", "s**2", "1 + ", "2*", "s^", "*s", "1//2", "sin(s)"):
        with pytest.raises(GainSyntaxError):
            Polynomial.parse(bad)


def test_polynomial_parse_rejects_zero_denominator_and_non_finite():
    for bad in ("1/0", "s + 3/0.0*s^2", "1/0." + "0" * 400 + "1", "9" * 400,
                "9" * 308 + " - " + "9" * 309):
        with pytest.raises(GainSyntaxError, match="zero denominator or a coefficient"):
            Polynomial.parse(bad)


def test_polynomial_format_round_trip():
    rng = random.Random(57)
    cases = [
        "10 + 4*s^4",
        "1 + s^2",
        "0",
        "-2 + 3*s - s^4",
        "1/4",
    ]
    for text in cases:
        p = Polynomial.parse(text)
        assert Polynomial.parse(p.format()) == p
    for _ in range(100):
        coeffs = [rng.choice([0.0, 1.0, -1.0, rng.uniform(-9, 9)]) for _ in range(rng.randint(1, 6))]
        p = Polynomial(coeffs)
        assert Polynomial.parse(p.format()) == p


@pytest.mark.parametrize("c, text", [(1e-5, "0.00001"), (1.5e-300, "0." + "0" * 299 + "15"),
                                     (5e-324, "0." + "0" * 323 + "5")])
def test_polynomial_format_writes_no_exponent(c, text):
    # repr writes these as 1e-05, 1.5e-300 and 5e-324, which the gain
    # grammar cannot read; format writes the same shortest digits positionally
    p = Polynomial((10.0, -c, 0.0, c))
    assert p.format() == "10 - %s*s + %s*s^3" % (text, text)
    assert Polynomial.parse(p.format()) == p


def test_polynomial_horner_matches_direct_sum():
    rng = random.Random(59)
    for _ in range(100):
        coeffs = [rng.uniform(-3, 3) for _ in range(rng.randint(1, 6))]
        p = Polynomial(coeffs)
        s = rng.uniform(-4, 4)
        direct = sum(c * s ** j for j, c in enumerate(p.coeffs))
        assert p(s) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_zeta_examples():
    assert zeta(0.0, (0.0,) * 4, 1.0, CFG) == 14.0
    assert zeta(0.0, (0.0,) * 4, 0.0, CFG) == 0.0
    assert zeta(1.0, (0.0,) * 4, 0.0, CFG) == 1.0


def test_control_nonadaptive_examples():
    assert control_nonadaptive(0.0, (0.0,) * 8, CFG) == 0.0
    assert control_nonadaptive(1.0, (0.0,) * 8, CFG) == -2.0
    assert control_nonadaptive(-1.0, (0.0,) * 8, CFG) == 2.0


def test_control_adaptive_examples():
    u, kdot = control_adaptive(0.0, (0.0,) * 8, 5.0, CFG)
    assert u == 0.0 and kdot == 0.0
    u, kdot = control_adaptive(1.0, (0.0,) * 8, 0.0, CFG)
    assert kdot == 2.0
    u, kdot = control_adaptive(2.0, (0.0,) * 8, 1.0, CFG)
    assert u == -10.0 and kdot == 20.0


def test_control_adaptive_rate_nonnegative():
    rng = random.Random(61)
    for _ in range(200):
        z = rng.uniform(-10, 10)
        _, kdot = control_adaptive(z, (0.0,) * 8, rng.uniform(0, 5), CFG)
        assert kdot >= 0.0


def test_filter_derivative_structure():
    d1 = filter_derivative((0.0,) * 4, 1.0, CFG, 1)
    d2 = filter_derivative((0.0,) * 8, 0.0, CFG, 2)
    assert d1 == [0.0, 0.0, 0.0, 1.0]
    assert d2 == [0.0] * 8
    # the input enters the last entry alone
    assert filter_derivative((0.0,) * 8, 1.0, CFG, 2) == [0.0] * 7 + [1.0]
    # first basis vector exposes the first column of M1
    d1 = filter_derivative((1.0, 0.0, 0.0, 0.0), 0.0, CFG, 1)
    assert d1 == [0.0, 0.0, 0.0, -10.0]
    # shift structure: interior states just pass along
    d1 = filter_derivative((0.0, 1.0, 0.0, 0.0), 0.0, CFG, 1)
    assert d1 == [1.0, 0.0, 0.0, -18.0]


def test_filter_derivative_dimension_errors():
    with pytest.raises(ShapeError):
        filter_derivative((0.0,) * 8, 0.0, CFG, 1)
    with pytest.raises(ShapeError):
        filter_derivative((0.0,) * 4, 0.0, CFG, 2)
    with pytest.raises(ValueError, match="component index must be 1 or 2, got 3"):
        filter_derivative((0.0,) * 4, 0.0, CFG, 3)


def test_stabilization_only_smoke():
    # with both mapping outputs stubbed to zero and a double-integrator
    # plant, u = -k0 k(zeta) zeta must drive (e, zeta) into a small
    # neighborhood of the origin
    rho, k = CFG.rho, CFG.k
    x1, x2 = 1.0, -1.0
    h = 1e-3

    def deriv(x1, x2):
        e = x1
        z = x2 + rho(e) * e
        u = -k(z) * z
        return x2, u

    for _ in range(20000):
        k1 = deriv(x1, x2)
        k2 = deriv(x1 + 0.5 * h * k1[0], x2 + 0.5 * h * k1[1])
        k3 = deriv(x1 + 0.5 * h * k2[0], x2 + 0.5 * h * k2[1])
        k4 = deriv(x1 + h * k3[0], x2 + h * k3[1])
        x1 += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        x2 += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    e = x1
    z = x2 + rho(e) * e
    assert abs(e) < 1e-5
    assert abs(z) < 1e-4
