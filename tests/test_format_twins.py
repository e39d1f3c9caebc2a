"""Both kernel twins' number formatters print the bytes CPython's "%" prints.

format_rows writes log.csv's body: every double exactly as "%.17g" % x
prints it, whatever its sign, payload or exponent, so a row formatted in C
reads back to the same bits.  format_vertices writes an SVG polyline's
points, and must equal the list comprehension svgplot.line_chart used before
the twins held it (kept here as the reference), coordinate expressions and
"%.6g" alike.  Each test runs through the kern fixture on both twins and on
the C twin built without __int128, whose formatters skip the exact-digit
path and print every value through CPython's own routine.
"""

import decimal
import math
import random
import struct
import sys
from array import array
from fractions import Fraction

import pytest

from outreg import _kernel_py, svgplot
from outreg.scenario import with_overrides
from outreg.simulate import CSV_HEADER, integrate


@pytest.fixture(params=["python", "compiled", "compiled-no-int128"])
def kern(request):
    """Each twin in turn, then the C twin without __int128."""
    if request.param == "python":
        return _kernel_py
    if request.param == "compiled":
        return request.getfixturevalue("ckernel")
    return request.getfixturevalue("ckernel_no_int128")


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


DBL_MAX = sys.float_info.max
SPECIAL = [
    0.0, -0.0, math.inf, -math.inf,
    _from_bits(0x7FF8000000000000),  # nan, sign bit clear
    _from_bits(0xFFF8000000000000),  # nan, sign bit set
    _from_bits(0x7FF0000000000123),  # nan with a payload (signalling)
    _from_bits(0xFFF800000000BEEF),  # negative quiet nan with a payload
    5e-324, -5e-324, sys.float_info.min, -sys.float_info.min, DBL_MAX, -DBL_MAX,
    # "%g" switches to an exponent below 1e-4 and from 1e17 digits up
    1e-4, 9.9999999999999991e-05, 1e-5, -1e-4,
    1e16, 9.9999999999999998e16, 1e17, -1e17,
    1.0, -1.0, 0.1, 1 / 3, 2.0 ** 53, 2.0 ** 53 + 2,
]


def _whole_rows(vals):
    """vals, padded with its own first values to whole 12-column rows, the
    only width format_rows prints."""
    return vals + vals[:-len(vals) % 12]


def _csv_body(vals):
    """The CSV body "%.17g" gives: 12 comma-joined values per line."""
    return "".join(",".join("%.17g" % v for v in vals[i:i + 12]) + "\n"
                   for i in range(0, len(vals), 12))


def _ties(count, seed):
    """Doubles whose exact decimal expansion has 18 significant digits, the
    last a 5: each is an exact tie at the 17th digit, which must round half
    to even.  m / 2**e has e fractional digits and the digits of m * 5**e,
    so m is drawn where m * 5**e has 18 digits."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        e = rng.randrange(2, 26)
        lo = -(-10 ** 17 // 5 ** e)
        hi = min(10 ** 18 // 5 ** e, 2 ** 53)
        x = math.ldexp(rng.randrange(lo, hi) | 1, -e)
        digits = decimal.Decimal(x).as_tuple().digits
        if len(digits) == 18 and digits[-1] == 5:
            out.append(x if rng.getrandbits(1) else -x)
    return out


def test_rows_print_special_values(kern):
    vals = _whole_rows(SPECIAL)
    assert kern.format_rows(array("d", vals)) == _csv_body(vals)
    # every nan prints as "nan", however its sign and payload are set
    nans = [v for v in SPECIAL if v != v] * 3
    assert kern.format_rows(array("d", nans)) == ",".join(["nan"] * 12) + "\n"


def test_rows_round_exact_ties_half_to_even(kern):
    ties = _ties(3000, seed=11)
    assert kern.format_rows(array("d", ties)) == _csv_body(ties)


def test_rows_print_random_bit_patterns(kern):
    rng = random.Random(20261019)
    vals = _whole_rows(list(struct.unpack("<100000d", rng.randbytes(800000))))
    assert kern.format_rows(array("d", vals)) == _csv_body(vals)


def _powers_of_ten():
    """Every power of ten from 1e-323 to 1e308 and one ulp on each side,
    both signs.  The C twin finds "%.Pg"'s digits by integer arithmetic where
    P - 1 - floor(log10|x|) is in [0, 55], 1e-39 <= |x| < 1e17 for rows and
    1e-50 <= |x| < 1e6 for vertices, and prints every other value with
    CPython's routine, so this holds each range edge one ulp inside and one
    ulp outside.  It also holds the largest double below each power of ten,
    which may round up to one digit more."""
    vals = [v for k in range(-323, 309) for x in [float("1e%d" % k)]
            for v in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
    return vals + [-v for v in vals]


def test_rows_print_log_uniform_values(kern):
    # |x| from 1e-45 to 1e20: the exact path's range and beyond both ends
    rng = random.Random(4817)
    vals = _whole_rows([math.copysign(10.0 ** rng.uniform(-45.0, 20.0), rng.random() - 0.5)
                        for _ in range(400_000)])
    assert kern.format_rows(array("d", vals)) == _csv_body(vals)


def test_rows_print_powers_of_ten_and_their_neighbours(kern):
    vals = _whole_rows(_powers_of_ten())
    # the double nearest 1e-14 lies below it, and its 17 digits round up
    assert Fraction(1e-14) < Fraction(1, 10 ** 14) and "%.17g" % 1e-14 == "1e-14"
    assert kern.format_rows(array("d", vals)) == _csv_body(vals)


@pytest.mark.parametrize("rows", [0, 1, 1024, 1025])
def test_rows_at_block_edges(kern, rows):
    rng = random.Random(rows)
    vals = [rng.uniform(-2.0, 2.0) * 10.0 ** rng.randrange(-30, 30) for _ in range(12 * rows)]
    body = kern.format_rows(array("d", vals))
    assert body == _csv_body(vals)
    assert body.count("\n") == rows


def test_rows_need_whole_rows(kern):
    for n in (5, 13):
        with pytest.raises(ValueError, match="whole rows of 12 columns"):
            kern.format_rows(array("d", [1.0] * n))
    # the width is the twins' own, not an argument
    with pytest.raises(TypeError):
        kern.format_rows(array("d", [1.0] * 12), 12)


def _comprehension(xs, ys, sx, xlo, xhi, sy, ylo, yhi, ml, mt, pw, ph):
    """svgplot.line_chart's vertex loop before the twins held it."""
    return " ".join(["%.6g,%.6g" % (ml + (x * sx - xlo) / (xhi - xlo) * pw,
                                    mt + ph - (y * sy - ylo) / (yhi - ylo) * ph)
                     for x, y in zip(xs, ys)])


PW = svgplot._W - svgplot._ML - svgplot._MR
PH = svgplot._H - svgplot._MT - svgplot._MB


def _chart_args(xs, ys):
    """format_vertices' arguments as line_chart passes them for one series."""
    xlo, xhi, sx = svgplot._bounds(min(xs), max(xs))
    ylo, yhi, sy = svgplot._bounds(min(ys), max(ys))
    return (xs, ys, sx, xlo, xhi, sy, ylo, yhi, svgplot._ML, svgplot._MT, PW, PH)


def _vertex_cases(cfg):
    log, _, _ = integrate(with_overrides(cfg, mode="adaptive", t_end=0.5, stride=1))
    t = log.t
    cases = {name: _chart_args(t, log.column(name)) for name in CSV_HEADER.split(",")[1:]}
    # a span that overflows a double: _bounds scales by 1/4
    big = [-DBL_MAX, -DBL_MAX / 3, 0.0, 1e300, DBL_MAX]
    cases["scaled"] = _chart_args(big, big[::-1])
    assert cases["scaled"][2] == cases["scaled"][5] == 0.25
    # spans of one subnormal
    tiny = 1e-310
    cases["subnormal"] = _chart_args([0.0, 5e-324], [tiny, math.nextafter(tiny, 1.0)])
    assert cases["subnormal"][4] - cases["subnormal"][3] == 5e-324
    # non-finite coordinates: inf, nan and the negative nan of inf - inf
    cases["nonfinite"] = ([0.0, math.inf, math.nan, -0.0, 1.0],
                          [math.inf, 0.0, -math.inf, math.nan, -0.0],
                          1.0, 0.0, 1.0, 1.0, -1.0, 1.0, svgplot._ML, svgplot._MT, PW, PH)
    cases["inf_minus_inf"] = ([math.inf], [math.inf], 1.0, math.inf, 2.0, 1.0, math.inf,
                              2.0, svgplot._ML, svgplot._MT, PW, PH)
    cases["empty"] = ([], [], 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, svgplot._ML, svgplot._MT, PW, PH)
    return cases


def test_vertices_match_the_comprehension(kern, steady_cfg):
    for name, args in _vertex_cases(steady_cfg).items():
        assert kern.format_vertices(*args) == _comprehension(*args), name


def test_vertices_divide_by_zero_as_python_does(kern):
    with pytest.raises(ZeroDivisionError):
        kern.format_vertices([1.0], [1.0], 1.0, 2.0, 2.0, 1.0, 0.0, 1.0, 64, 34, PW, PH)
    with pytest.raises(ZeroDivisionError):
        kern.format_vertices([1.0], [1.0], 1.0, 0.0, 1.0, 1.0, 3.0, 3.0, 64, 34, PW, PH)
    assert kern.format_vertices([], [], 1.0, 2.0, 2.0, 1.0, 3.0, 3.0, 64, 34, PW, PH) == ""


def test_formatters_take_no_keywords(kern):
    # positional only on every twin, so a call behaves the same on each
    with pytest.raises(TypeError):
        kern.format_rows(array("d", [1.0] * 12), ncol=12)
    with pytest.raises(TypeError):
        kern.format_vertices([1.0], [1.0], 1.0, 0.0, 2.0, 1.0, 0.0, 2.0, 64, 34, PW, ph=PH)


# ml = mt = 0, xlo = ylo = 0, xhi = yhi = 1, pw = ph = 1 and sx = sy = 1:
# the x coordinate is x itself, so "%.6g" sees exactly the values given
IDENTITY = (1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0)


def _vertex_ties(count, seed):
    """Doubles whose exact decimal expansion has 7 significant digits, the
    last a 5: each an exact tie at "%.6g"'s 6th digit.  m / 2**e for odd m
    has the digits of m * 5**e, which ends in 5, so m is drawn where that
    product has 7 digits."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        e = rng.randrange(1, 10)
        x = math.ldexp(rng.randrange(-(-10 ** 6 // 5 ** e), 10 ** 7 // 5 ** e) | 1, -e)
        digits = decimal.Decimal(x).as_tuple().digits
        if len(digits) == 7 and digits[-1] == 5:
            out.append(x if rng.getrandbits(1) else -x)
    return out


def test_vertices_round_exact_ties_half_to_even(kern):
    # 999999.5 rounds up to 10**6 and prints with an exponent
    assert ("%.6g %.6g %.6g" % (100.0625, 999998.5, 999999.5)) == "100.062 999998 1e+06"
    ties = [100.0625, 999998.5, 999999.5] + _vertex_ties(3000, seed=6)
    args = (ties, ties, *IDENTITY)
    assert kern.format_vertices(*args) == _comprehension(*args)


def test_vertices_print_log_uniform_values_and_powers_of_ten(kern):
    rng = random.Random(6109)
    vals = [math.copysign(10.0 ** rng.uniform(-60.0, 10.0), rng.random() - 0.5)
            for _ in range(50_000)] + _powers_of_ten()
    args = (vals, vals, *IDENTITY)
    assert kern.format_vertices(*args) == _comprehension(*args)
