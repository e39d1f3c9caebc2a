"""Self-contained SVG line charts for run logs.

No plotting dependency: the chart is assembled as text.  A chart draws some
columns of one SimLog against its time column.  Output is a pure function
of the log (no timestamps, no randomness, fixed float formatting), so
regenerating a plot from the same log.csv gives the same bytes.  A log
longer than _MAX_POINTS rows is thinned once per chart, by even index
striding, before drawing; that only drops drawn vertices, never rescales
axes.  A value that is not finite draws no vertex and leaves the y axis to
the finite values ([0, 1] when a chart has none).
"""

from __future__ import annotations

import math
import sys
from itertools import chain

from .backend import format_vertices

_MAX_POINTS = 2000
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_W, _H = 760, 440
_ML, _MR, _MT, _MB = 64, 16, 34, 46


def _fmt(x: float) -> str:
    return "%.6g" % x


def _nice_ticks(lo: float, hi: float):
    """About six round tick positions covering finite [lo, hi]."""
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0
        lo, hi = lo - pad, hi + pad
    raw = (hi - lo) / 5
    # a span that overflows, or a raw step below the normal range (where
    # 10 ** floor(log10(raw)) can underflow to 0), has no round ticks
    if not sys.float_info.min <= raw < math.inf:
        return [lo, hi]
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(mult * mag for mult in (1.0, 2.0, 5.0, 10.0) if raw <= mult * mag)
    ticks, v = [], math.ceil(lo / step) * step
    while v <= hi + step * 1e-9:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        # on a span of a few ulps the step can be below half an ulp of v,
        # so v + step == v: stop instead of appending v forever
        if v + step == v:
            break
        v += step
    return ticks or [lo, hi]


def _bounds(lo, hi):
    """(lo, hi, scale): the range [lo, hi] times scale, padded by 5% of the
    span (10% of the value, or 1, for a constant).  scale is 1, or 1/4 when
    the padded span would overflow a double, so every coordinate computed
    from scaled values stays finite."""
    for scale in (1.0, 0.25):
        slo, shi = lo * scale, hi * scale
        pad = (shi - slo) * 0.05 if slo != shi else abs(slo) * 0.1 or 1.0
        if not math.isinf((shi + pad) - (slo - pad)):
            break
    return slo - pad, shi + pad, scale


def line_chart(log, names, title: str, ylabel: str) -> str:
    """The columns names of log against its time column, as a complete
    standalone SVG document."""
    if not names or not len(log):
        raise ValueError("need at least one column and one row")
    t = log.t
    cols = [log.column(name) for name in names]
    # t increases strictly, so its ends are its extremes; y spans the finite
    # values, and min and max skip every nan but one they meet first
    xlo, xhi, sx = _bounds(t[0], t[-1])
    lo, hi = min(chain(*cols)), max(chain(*cols))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        finite = [v for v in chain(*cols) if math.isfinite(v)] or [0.0, 1.0]
        lo, hi = min(finite), max(finite)
    ylo, yhi, sy = _bounds(lo, hi)
    n = len(t)
    if n > _MAX_POINTS:  # one set of rows for every column; the last row stays
        idx = list(range(0, n, (n + _MAX_POINTS - 1) // _MAX_POINTS))
        if idx[-1] != n - 1:
            idx.append(n - 1)
        t = [t[i] for i in idx]
        cols = [[col[i] for i in idx] for col in cols]
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x):
        return _ML + (x * sx - xlo) / (xhi - xlo) * pw

    def py(y):
        return _MT + ph - (y * sy - ylo) / (yhi - ylo) * ph

    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
           'viewBox="0 0 %d %d" font-family="Helvetica, Arial, sans-serif">'
           % (_W, _H, _W, _H)]
    out.append('<rect width="%d" height="%d" fill="#ffffff"/>' % (_W, _H))
    out.append('<text x="%d" y="20" font-size="15" fill="#222">%s</text>' % (_ML, title))
    # gridlines and ticks
    for tx in _nice_ticks(xlo / sx, xhi / sx):
        if not xlo <= tx * sx <= xhi:
            continue
        X = _fmt(px(tx))
        out.append('<line x1="%s" y1="%d" x2="%s" y2="%d" stroke="#dddddd"/>'
                   % (X, _MT, X, _MT + ph))
        out.append('<text x="%s" y="%d" font-size="11" fill="#444" '
                   'text-anchor="middle">%s</text>' % (X, _MT + ph + 16, _fmt(tx)))
    for ty in _nice_ticks(ylo / sy, yhi / sy):
        if not ylo <= ty * sy <= yhi:
            continue
        Y = _fmt(py(ty))
        out.append('<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="#dddddd"/>'
                   % (_ML, Y, _ML + pw, Y))
        out.append('<text x="%d" y="%s" font-size="11" fill="#444" '
                   'text-anchor="end" dominant-baseline="middle">%s</text>'
                   % (_ML - 6, Y, _fmt(ty)))
    # frame
    out.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
               'stroke="#333333"/>' % (_ML, _MT, pw, ph))
    # series; the backend computes px(x) and py(y) and formats each vertex.
    # Within finite bounds only a nan or inf value prints an 'n' (one fast
    # character search): such a column is drawn again without those rows
    for idx, col in enumerate(cols):
        pts = format_vertices(t, col, sx, xlo, xhi, sy, ylo, yhi, _ML, _MT, pw, ph)
        if "n" in pts:
            rows = [i for i, y in enumerate(col) if math.isfinite(y)]
            pts = format_vertices([t[i] for i in rows], [col[i] for i in rows],
                                  sx, xlo, xhi, sy, ylo, yhi, _ML, _MT, pw, ph)
        out.append('<polyline points="%s" fill="none" stroke="%s" '
                   'stroke-width="1.4"/>' % (pts, _COLORS[idx % len(_COLORS)]))
    # legend
    lx = _ML + 10
    for idx, name in enumerate(names):
        ly = _MT + 14 + 16 * idx
        out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" '
                   'stroke-width="2"/>' % (lx, ly, lx + 18, ly,
                                           _COLORS[idx % len(_COLORS)]))
        out.append('<text x="%d" y="%d" font-size="12" fill="#222" '
                   'dominant-baseline="middle">%s</text>' % (lx + 24, ly + 1, name))
    # axis labels
    out.append('<text x="%d" y="%d" font-size="12" fill="#222" '
               'text-anchor="middle">t [s]</text>' % (_ML + pw // 2, _H - 10))
    out.append('<text x="14" y="%d" font-size="12" fill="#222" text-anchor="middle" '
               'transform="rotate(-90 14 %d)">%s</text>'
               % (_MT + ph // 2, _MT + ph // 2, ylabel))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def trajectory_svg(log) -> str:
    return line_chart(log, ("x1", "x2"), "State trajectory", "state")


def error_svg(log) -> str:
    return line_chart(log, ("e",), "Tracking error", "e = x1 - v1")


def estimates_svg(log) -> str:
    return line_chart(log, ("a11", "a21", "a23"), "Coefficient estimates", "estimate")


def khat_svg(log) -> str:
    return line_chart(log, ("khat",), "Adaptive gain", "khat")
