"""Both kernel twins' number formatters print the bytes CPython's "%" prints.

format_rows writes log.csv's body: every double exactly as "%.17g" % x
prints it, whatever its sign, payload or exponent, so a row formatted in C
reads back to the same bits.  format_vertices writes an SVG polyline's
points, and must equal the list comprehension svgplot.line_chart used before
the twins held it (kept here as the reference), coordinate expressions and
"%.6g" alike.  Each test runs on both twins through the kern fixture.
"""

import decimal
import math
import random
import struct
import sys
from array import array

import pytest

from outreg import svgplot
from outreg.scenario import with_overrides
from outreg.simulate import CSV_HEADER, integrate


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


def _csv_body(vals, ncol):
    """The CSV body "%.17g" gives: ncol comma-joined values per line."""
    return "".join(",".join("%.17g" % v for v in vals[i:i + ncol]) + "\n"
                   for i in range(0, len(vals), ncol))


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
    assert kern.format_rows(array("d", SPECIAL), 1) == _csv_body(SPECIAL, 1)
    assert kern.format_rows(array("d", SPECIAL), 4) == _csv_body(SPECIAL, 4)
    # every nan prints as "nan", however its sign and payload are set
    nans = [v for v in SPECIAL if v != v]
    assert kern.format_rows(array("d", nans), len(nans)) == ",".join(["nan"] * len(nans)) + "\n"


def test_rows_round_exact_ties_half_to_even(kern):
    ties = _ties(3000, seed=11)
    assert kern.format_rows(array("d", ties), 6) == _csv_body(ties, 6)


def test_rows_print_random_bit_patterns(kern):
    rng = random.Random(20261019)
    vals = list(struct.unpack("<100000d", rng.randbytes(800000)))
    assert kern.format_rows(array("d", vals), 10) == _csv_body(vals, 10)


@pytest.mark.parametrize("rows", [0, 1, 1024, 1025])
def test_rows_at_block_edges(kern, rows):
    rng = random.Random(rows)
    vals = [rng.uniform(-2.0, 2.0) * 10.0 ** rng.randrange(-30, 30) for _ in range(12 * rows)]
    body = kern.format_rows(array("d", vals), 12)
    assert body == _csv_body(vals, 12)
    assert body.count("\n") == rows


def test_rows_need_whole_rows(kern):
    with pytest.raises(ValueError, match="whole rows"):
        kern.format_rows(array("d", [1.0] * 5), 2)
    with pytest.raises(ValueError, match="whole rows"):
        kern.format_rows(array("d", [1.0] * 4), 0)


def _comprehension(xs, ys, sx, xlo, xhi, sy, ylo, yhi, ml, mt, pw, ph):
    """svgplot.line_chart's vertex loop before the twins held it."""
    return " ".join(["%.6g,%.6g" % (ml + (x * sx - xlo) / (xhi - xlo) * pw,
                                    mt + ph - (y * sy - ylo) / (yhi - ylo) * ph)
                     for x, y in zip(xs, ys)])


PW = svgplot._W - svgplot._ML - svgplot._MR
PH = svgplot._H - svgplot._MT - svgplot._MB


def _chart_args(xs, ys):
    """format_vertices' arguments as line_chart passes them for one series."""
    xlo, xhi, sx = svgplot._bounds(xs)
    ylo, yhi, sy = svgplot._bounds(ys)
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
