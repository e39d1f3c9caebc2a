"""Self-contained SVG line charts for run logs.

No plotting dependency: the chart is assembled as text.  Output is a pure
function of the input series (no timestamps, no randomness, fixed float
formatting), so regenerating a plot from the same log.csv gives the same
bytes.  Series longer than _MAX_POINTS are thinned by even index striding
before drawing; that only drops drawn vertices, never rescales axes.
"""

from __future__ import annotations

import math
import sys

from .backend import format_vertices

_MAX_POINTS = 2000
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_W, _H = 760, 440
_ML, _MR, _MT, _MB = 64, 16, 34, 46


def _fmt(x: float) -> str:
    return "%.6g" % x


def _nice_ticks(lo: float, hi: float, target: int = 6):
    """Round tick positions covering [lo, hi]; deterministic."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0
        lo, hi = lo - pad, hi + pad
    raw = (hi - lo) / max(target - 1, 1)
    # a span that overflows, or a raw step below the normal range (where
    # 10 ** floor(log10(raw)) can underflow to 0), has no round ticks
    if not sys.float_info.min <= raw < math.inf:
        return [lo, hi]
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + step * 1e-9:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        # on a span of a few ulps the step can be below half an ulp of v,
        # so v + step == v: stop instead of appending v forever
        if v + step == v:
            break
        v += step
    return ticks or [lo, hi]


def _bounds(vals):
    """(lo, hi, scale): the range of vals times scale, padded by 5% of the
    span (10% of the value, or 1, for a constant).  scale is 1, or 1/4 when
    the padded span would overflow a double, so every coordinate computed
    from scaled values stays finite."""
    for scale in (1.0, 0.25):
        lo = min(vals) * scale
        hi = max(vals) * scale
        pad = (hi - lo) * 0.05 if lo != hi else abs(lo) * 0.1 or 1.0
        if not math.isinf((hi + pad) - (lo - pad)):
            break
    return lo - pad, hi + pad, scale


def _thin(xs, ys):
    n = len(xs)
    if n <= _MAX_POINTS:
        return xs, ys
    stride = (n + _MAX_POINTS - 1) // _MAX_POINTS
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return [xs[i] for i in idx], [ys[i] for i in idx]


def line_chart(series, title: str, xlabel: str, ylabel: str) -> str:
    """series: list of (label, xs, ys) with equal-length xs/ys.

    Returns a complete standalone SVG document as a string.
    """
    if not series:
        raise ValueError("need at least one series")
    for label, xs, ys in series:
        if len(xs) != len(ys):
            raise ValueError("series %r: x/y length mismatch" % label)
        if not xs:
            raise ValueError("series %r is empty" % label)
    xlo, xhi, sx = _bounds([x for _, xs, _ in series for x in xs])
    ylo, yhi, sy = _bounds([y for _, _, ys in series for y in ys])
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x):
        return _ML + (x * sx - xlo) / (xhi - xlo) * pw

    def py(y):
        return _MT + ph - (y * sy - ylo) / (yhi - ylo) * ph

    out = []
    out.append('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
               'viewBox="0 0 %d %d" font-family="Helvetica, Arial, sans-serif">'
               % (_W, _H, _W, _H))
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
    # series; the backend computes px(x) and py(y) and formats each vertex
    for idx, (label, xs, ys) in enumerate(series):
        xs, ys = _thin(xs, ys)
        pts = format_vertices(xs, ys, sx, xlo, xhi, sy, ylo, yhi, _ML, _MT, pw, ph)
        out.append('<polyline points="%s" fill="none" stroke="%s" '
                   'stroke-width="1.4"/>' % (pts, _COLORS[idx % len(_COLORS)]))
    # legend
    lx = _ML + 10
    for idx, (label, _, _) in enumerate(series):
        ly = _MT + 14 + 16 * idx
        out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" '
                   'stroke-width="2"/>' % (lx, ly, lx + 18, ly,
                                           _COLORS[idx % len(_COLORS)]))
        out.append('<text x="%d" y="%d" font-size="12" fill="#222" '
                   'dominant-baseline="middle">%s</text>' % (lx + 24, ly + 1, label))
    # axis labels
    out.append('<text x="%d" y="%d" font-size="12" fill="#222" '
               'text-anchor="middle">%s</text>' % (_ML + pw // 2, _H - 10, xlabel))
    out.append('<text x="14" y="%d" font-size="12" fill="#222" text-anchor="middle" '
               'transform="rotate(-90 14 %d)">%s</text>'
               % (_MT + ph // 2, _MT + ph // 2, ylabel))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def trajectory_svg(log) -> str:
    t = log.t
    return line_chart([("x1", t, log.column("x1")), ("x2", t, log.column("x2"))],
                      "State trajectory", "t [s]", "state")


def error_svg(log) -> str:
    return line_chart([("e", log.t, log.column("e"))],
                      "Tracking error", "t [s]", "e = x1 - v1")


def estimates_svg(log) -> str:
    t = log.t
    return line_chart([("a11", t, log.column("a11")),
                       ("a21", t, log.column("a21")),
                       ("a23", t, log.column("a23"))],
                      "Coefficient estimates", "t [s]", "estimate")


def khat_svg(log) -> str:
    return line_chart([("khat", log.t, log.column("khat"))],
                      "Adaptive gain", "t [s]", "khat")
