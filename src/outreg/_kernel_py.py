"""Pure-Python twin of the compiled kernel: the closed-loop integrator and
the output path's two number formatters.

This file and the hand-written C twin _kernel.c compute every value with
the same expression in the same operation order, so a run produces
bit-identical records on either backend (the parity tests compare floats for
exact equality), and both format those records into the same bytes.  When
editing one, edit the other to match, expression by expression.  Both are
straight-line and mask-aware: each Hankel cofactor is written out over
named 2x2 minors, each minor computed once, and a cofactor that only masked
coefficient estimates read is never computed.

Only the plumbing differs.  Here run_closed_loop binds every parameter once
per run into one vector field (see _field) that takes the state as 17 scalars,
hands them to the two estimators (closures bound the same way, _hankel2 and
_hankel4) and returns one flat tuple; the state lives in 17 locals for the
whole run, and each RK4 stage unpacks its result by name, with no list per
step.  In C a parameter struct, indexed loops and ahat out-parameters do the
same work.  _chi_est and _deriv are thin entry points over those closures,
for timing or testing one part on its own.

Conventions shared by both twins:
  - no ** operator anywhere; powers are explicit products, so both
    backends emit the same multiply sequence
  - polynomial evaluation is Horner from the highest coefficient, seeded
    with 0.0 (matching scenario.Polynomial.__call__)
  - determinants and adjugates of the Hankel blocks use division-free
    cofactor expansion, never pivoted elimination
  - the state vector is y = (x1, x2, v1, v2, eta1[0..3], eta2[0..7], khat),
    17 entries; khat rides along unused in nonadaptive runs

Record layout (12 columns per row):
  t, x1, x2, e, zeta, u, a11, a21, a23, detT1, detT2, khat
where a11 is the first entry of the component-1 coefficient estimate and
a21/a23 the first/third of component 2, all taken from the vector-field
evaluation at the recorded state.  Each twin appends each row to the buffer
it returns (an array("d") here, a bytearray in C), never sized from n_steps,
and returns a C-contiguous (rows, 12) memoryview of format 'd' over it, so
len(records) is the row count; simulate.SimLog keeps that view, uncopied.

Modes: 0 nonadaptive, 1 adaptive, 2 open loop (u forced to 0; the filters
and estimators keep running so the log stays comparable).

Formatters: format_rows prints each value as "%.17g" % x does and
format_vertices as "%.6g" % x does.  Here that is the "%" operator itself;
the C twin finds the digits of +-0 and of normal doubles from 1e-39 up to
1e17 (rows) or from 1e-50 up to 1e6 (vertices) by exact integer arithmetic,
and prints every other value with PyOS_double_to_string, the routine behind
CPython's "%".
"""

from array import array
from math import exp, isfinite, isnan, sin
from struct import Struct

_LIMIT = 1e9
# one record row as native float64 bytes, the layout of array("d")
_ROW = Struct("12d").pack


def _psi(s):
    # kappa(1-s) / (kappa(s) + kappa(1-s)); kappa(t) = exp(-1/t) for t > 0
    t = 1.0 - s
    if t > 0.0:
        up = exp(-1.0 / t)
    else:
        up = 0.0
    if s > 0.0:
        dn = exp(-1.0 / s) + up
    else:
        dn = up
    if dn == 0.0:
        # reachable only through nan arguments (overflowed states mid-stage);
        # mirror C division so the twins agree: 0/0 -> nan, x/0 -> +inf
        return float("nan") if up == 0.0 else float("inf")
    return up / dn


def _hankel2(m, mask, eps2):
    """The n = 2 estimator with m, mask and eps * eps bound: a function of
    the filter state (h0, h1, h2, h3) returning (chi, det, a0, a1)."""
    m = tuple(m)
    skip0, skip1 = mask

    def est(h0, h1, h2, h3):
        det = h0 * h2 - h1 * h1
        if det == 0.0:
            sc = 0.0
        else:
            sc = det / (det * det + _psi(1.0 + det * det - eps2))
        # adjugate rows (h2, -h1) and (-h1, h0) against b = (h2, h3)
        if skip0:
            a0 = 0.0
        else:
            a0 = -(sc * h2 * h2 + sc * -h1 * h3)
        if skip1:
            a1 = 0.0
        else:
            a1 = -(sc * -h1 * h2 + sc * h0 * h3)
        # first row of Xi(ahat) by the row recurrence row_{j+1} = row_j . Phi
        r0 = 1.0
        r1 = 0.0
        p0 = 0.0
        p1 = 0.0
        for mj in m:
            p0 = p0 + mj * r0
            p1 = p1 + mj * r1
            last = r1
            r1 = r0 - a1 * last
            r0 = -a0 * last
        return 0.0 + (p0 + r0) * h0 + (p1 + r1) * h1, det, a0, a1

    return est


def _hankel4(m, mask, eps2):
    """The n = 4 estimator with m, mask and eps * eps bound: a function of
    the filter state (h0, ..., h7) returning (chi, det, a0, a1, a2, a3)."""
    m = tuple(m)
    skip0, skip1, skip2, skip3 = mask

    def est(h0, h1, h2, h3, h4, h5, h6, h7):
        # Hankel rows (h0..h3), (h1..h4), (h2..h5), (h3..h6) with b = (h4..h7).
        # c<r><c> is the (r, c) cofactor: the det3 of its minor (entries
        # row-major, expanded along the minor's first row), negated when
        # r + c is odd.  d<ab>_<cd> is the 2x2 minor ha * hb - hc * hd; each
        # is computed once and shared by every cofactor that expands into it
        # (the products commute bit for bit, so the sharing changes no value).
        # Row 0 always feeds det; a column's other three cofactors are
        # computed only if the mask keeps its estimate.  The (3, 0) and
        # (0, 3) minors are the same Hankel block of h1..h5, so c30 is c03.
        d46_55 = h4 * h6 - h5 * h5
        d36_45 = h3 * h6 - h4 * h5
        d35_44 = h3 * h5 - h4 * h4
        d26_35 = h2 * h6 - h3 * h5
        d25_34 = h2 * h5 - h3 * h4
        d24_33 = h2 * h4 - h3 * h3
        d26_44 = h2 * h6 - h4 * h4
        d16_34 = h1 * h6 - h3 * h4
        d15_24 = h1 * h5 - h2 * h4
        d15_33 = h1 * h5 - h3 * h3
        d14_23 = h1 * h4 - h2 * h3
        d13_22 = h1 * h3 - h2 * h2
        c00 = h2 * d46_55 - h3 * d36_45 + h4 * d35_44
        c01 = -(h1 * d46_55 - h3 * d26_35 + h4 * d25_34)
        c02 = h1 * d36_45 - h2 * d26_35 + h4 * d24_33
        c03 = -(h1 * d35_44 - h2 * d25_34 + h3 * d24_33)
        det = h0 * c00 + h1 * c01 + h2 * c02 + h3 * c03
        if det == 0.0:
            sc = 0.0
        else:
            sc = det / (det * det + _psi(1.0 + det * det - eps2))
        # ahat[j] = -(adjugate row j . b); adjugate[j][r] is the (r, j) cofactor
        if skip0:
            a0 = 0.0
        else:
            c10 = -(h1 * d46_55 - h2 * d36_45 + h3 * d35_44)
            c20 = h1 * d36_45 - h2 * d26_44 + h3 * d25_34
            a0 = -(0.0 + sc * c00 * h4 + sc * c10 * h5 + sc * c20 * h6 + sc * c03 * h7)
        if skip1:
            a1 = 0.0
        else:
            c11 = h0 * d46_55 - h2 * d26_35 + h3 * d25_34
            c21 = -(h0 * d36_45 - h2 * d16_34 + h3 * d15_33)
            c31 = h0 * d35_44 - h2 * d15_24 + h3 * d14_23
            a1 = -(0.0 + sc * c01 * h4 + sc * c11 * h5 + sc * c21 * h6 + sc * c31 * h7)
        if skip2:
            a2 = 0.0
        else:
            c12 = -(h0 * d36_45 - h1 * d26_35 + h3 * d24_33)
            c22 = h0 * d26_44 - h1 * d16_34 + h3 * d14_23
            c32 = -(h0 * d25_34 - h1 * d15_24 + h3 * d13_22)
            a2 = -(0.0 + sc * c02 * h4 + sc * c12 * h5 + sc * c22 * h6 + sc * c32 * h7)
        if skip3:
            a3 = 0.0
        else:
            c13 = h0 * d35_44 - h1 * d25_34 + h2 * d24_33
            c23 = -(h0 * d25_34 - h1 * d15_33 + h2 * d14_23)
            c33 = h0 * d24_33 - h1 * d14_23 + h2 * d13_22
            a3 = -(0.0 + sc * c03 * h4 + sc * c13 * h5 + sc * c23 * h6 + sc * c33 * h7)
        r0 = 1.0
        r1 = 0.0
        r2 = 0.0
        r3 = 0.0
        p0 = 0.0
        p1 = 0.0
        p2 = 0.0
        p3 = 0.0
        for mj in m:
            p0 = p0 + mj * r0
            p1 = p1 + mj * r1
            p2 = p2 + mj * r2
            p3 = p3 + mj * r3
            last = r3
            r3 = r2 - a3 * last
            r2 = r1 - a2 * last
            r1 = r0 - a1 * last
            r0 = -a0 * last
        chi = 0.0 + (p0 + r0) * h0 + (p1 + r1) * h1 + (p2 + r2) * h2 + (p3 + r3) * h3
        return chi, det, a0, a1, a2, a3

    return est


def _field(c1, c2, c3, sigma, m1, m2, eps, mask1, mask2, rho, kc, k0, mode,
           dist_amp, dist_freq):
    """The closed-loop vector field with every parameter bound, built once
    per run: f(t, *y) takes the 17 state entries and returns one flat tuple,
    the 17 derivatives, then aux = (e, zeta, u, a11, a21, a23, det1, det2)."""
    chi_est1 = _hankel2(m1, mask1, eps * eps)
    chi_est2 = _hankel4(m2, mask2, eps * eps)
    m10, m11, m12, m13 = m1
    m20, m21, m22, m23, m24, m25, m26, m27 = m2
    # Horner from the highest coefficient
    rho_r = tuple(reversed(rho))
    kc_r = tuple(reversed(kc))

    # g: the eta1 filter state, h: the eta2 filter state
    def f(t, x1, x2, v1, v2, g0, g1, g2, g3, h0, h1, h2, h3, h4, h5, h6, h7, khat):
        e = x1 - v1
        chi1, det1, a10, _ = chi_est1(g0, g1, g2, g3)
        chi2, det2, a20, _, a22, _ = chi_est2(h0, h1, h2, h3, h4, h5, h6, h7)
        rho_e = 0.0
        for c in rho_r:
            rho_e = rho_e * e + c
        zeta = x2 - chi1 + rho_e * e
        kz = 0.0
        for c in kc_r:
            kz = kz * zeta + c
        if mode == 1:
            u = -(khat * kz * zeta) + chi2
            dk = kz * zeta * zeta
        elif mode == 2:
            u = 0.0
            dk = 0.0
        else:
            u = -(k0 * kz * zeta) + chi2
            dk = 0.0
        d = v2 + dist_amp * sin(dist_freq * t)
        return (x2, -c3 * x2 - c1 * x1 - c2 * (x1 * x1 * x1) + u + d,
                sigma * v2, -sigma * v1,
                g1, g2, g3, 0.0 - m10 * g0 - m11 * g1 - m12 * g2 - m13 * g3 + x2,
                h1, h2, h3, h4, h5, h6, h7,
                (0.0 - m20 * h0 - m21 * h1 - m22 * h2 - m23 * h3
                 - m24 * h4 - m25 * h5 - m26 * h6 - m27 * h7 + u),
                dk, e, zeta, u, a10, a20, a22, det1, det2)

    return f


def _chi_est(y, base, n, m, eps, mask, ahat):
    """Coefficient estimate, reconstruction, and Hankel determinant.

    Entry point for timing and testing one estimator on its own: binds a
    per-run estimator, reads the filter state from y[base : base + 2n],
    writes the masked estimate into ahat[0:n], and returns (chi, det).
    """
    est = (_hankel2 if n == 2 else _hankel4)(m, mask, eps * eps)
    chi, det, *a = est(*y[base:base + 2 * n])
    ahat[:n] = a
    return chi, det


def _deriv(t, y, dy, aux, c1, c2, c3, sigma, m1, m2, eps, mask1, mask2,
           rho, kc, k0, mode, dist_amp, dist_freq, ahat1, ahat2):
    """Entry point for timing and testing one vector-field evaluation: binds
    a per-run field, writes dy[0:17], aux[0:8] and both estimates."""
    f = _field(c1, c2, c3, sigma, m1, m2, eps, mask1, mask2, rho, kc, k0, mode,
               dist_amp, dist_freq)
    out = f(t, *y)
    dy[:], aux[:] = out[:17], out[17:]
    _chi_est(y, 4, 2, m1, eps, mask1, ahat1)
    _chi_est(y, 8, 4, m2, eps, mask2, ahat2)


def run_closed_loop(y0, h, n_steps, stride, c1, c2, c3, sigma, m1, m2, eps,
                    mask1, mask2, rho, kc, k0, mode, dist_amp, dist_freq):
    """Integrate the closed loop with classical RK4 at fixed step h.

    Records a 12-column row at every stride-th step (state before the
    step, auxiliaries from the vector field at that state) and once more
    after the final step: (n_steps - 1) // stride + 2 rows on a completed
    run, one for n_steps = 0.  Returns (records, diverged_at, y_final);
    records is a (rows, 12) float64 memoryview.  diverged_at is -1.0 on a
    completed run, otherwise (step + 1) * h for the first step whose
    result left the |y| <= 1e9 box or stopped being finite, in which case
    the records simply end early and y_final is the offending state.  The
    clock starts at 0.  A finite h > 0 keeps -1.0 unambiguous; n_steps
    must be >= 0, and mode is 0 (nonadaptive), 1 (adaptive) or 2 (open
    loop).  Raises ValueError otherwise, with the compiled twin's messages.
    """
    y = [float(v) for v in y0]
    if len(y) != 17:
        raise ValueError("state vector must have 17 entries, got %d" % len(y))
    h = float(h)
    if not (h > 0.0 and isfinite(h)):
        raise ValueError("h must be finite and > 0, got %r" % (h,))
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0, got %d" % n_steps)
    if stride < 1:
        raise ValueError("stride must be >= 1, got %d" % stride)
    if mode not in (0, 1, 2):
        raise ValueError("mode must be 0, 1 or 2, got %d" % mode)
    m1 = [float(v) for v in m1]
    m2 = [float(v) for v in m2]
    mask1 = [1 if v else 0 for v in mask1]
    mask2 = [1 if v else 0 for v in mask2]
    if len(m1) != 4 or len(m2) != 8 or len(mask1) != 2 or len(mask2) != 4:
        raise ValueError("need m1[4], m2[8], mask1[2], mask2[4]")
    f = _field(c1, c2, c3, sigma, m1, m2, eps, mask1, mask2,
               [float(v) for v in rho], [float(v) for v in kc], k0, mode,
               dist_amp, dist_freq)
    x1, x2, v1, v2, g0, g1, g2, g3, h0, h1, h2, h3, h4, h5, h6, h7, khat = y
    half = 0.5 * h
    sixth = h / 6.0
    records = array("d")
    record = records.frombytes
    diverged_at = -1.0
    for step in range(n_steps):
        t = step * h
        (k1_0, k1_1, k1_2, k1_3, k1_4, k1_5, k1_6, k1_7, k1_8, k1_9, k1_10, k1_11, k1_12,
         k1_13, k1_14, k1_15, k1_16, e, zeta, u, a11, a21, a23, det1, det2) = f(
            t, x1, x2, v1, v2, g0, g1, g2, g3, h0, h1, h2, h3, h4, h5, h6, h7, khat)
        if step % stride == 0:
            record(_ROW(t, x1, x2, e, zeta, u, a11, a21, a23, det1, det2, khat))
        (k2_0, k2_1, k2_2, k2_3, k2_4, k2_5, k2_6, k2_7, k2_8, k2_9, k2_10, k2_11, k2_12,
         k2_13, k2_14, k2_15, k2_16, _, _, _, _, _, _, _, _) = f(
            t + half, x1 + half * k1_0, x2 + half * k1_1, v1 + half * k1_2,
            v2 + half * k1_3, g0 + half * k1_4, g1 + half * k1_5, g2 + half * k1_6,
            g3 + half * k1_7, h0 + half * k1_8, h1 + half * k1_9, h2 + half * k1_10,
            h3 + half * k1_11, h4 + half * k1_12, h5 + half * k1_13, h6 + half * k1_14,
            h7 + half * k1_15, khat + half * k1_16)
        (k3_0, k3_1, k3_2, k3_3, k3_4, k3_5, k3_6, k3_7, k3_8, k3_9, k3_10, k3_11, k3_12,
         k3_13, k3_14, k3_15, k3_16, _, _, _, _, _, _, _, _) = f(
            t + half, x1 + half * k2_0, x2 + half * k2_1, v1 + half * k2_2,
            v2 + half * k2_3, g0 + half * k2_4, g1 + half * k2_5, g2 + half * k2_6,
            g3 + half * k2_7, h0 + half * k2_8, h1 + half * k2_9, h2 + half * k2_10,
            h3 + half * k2_11, h4 + half * k2_12, h5 + half * k2_13, h6 + half * k2_14,
            h7 + half * k2_15, khat + half * k2_16)
        (k4_0, k4_1, k4_2, k4_3, k4_4, k4_5, k4_6, k4_7, k4_8, k4_9, k4_10, k4_11, k4_12,
         k4_13, k4_14, k4_15, k4_16, _, _, _, _, _, _, _, _) = f(
            t + h, x1 + h * k3_0, x2 + h * k3_1, v1 + h * k3_2, v2 + h * k3_3,
            g0 + h * k3_4, g1 + h * k3_5, g2 + h * k3_6, g3 + h * k3_7, h0 + h * k3_8,
            h1 + h * k3_9, h2 + h * k3_10, h3 + h * k3_11, h4 + h * k3_12, h5 + h * k3_13,
            h6 + h * k3_14, h7 + h * k3_15, khat + h * k3_16)
        x1 = x1 + sixth * (k1_0 + 2.0 * k2_0 + 2.0 * k3_0 + k4_0)
        x2 = x2 + sixth * (k1_1 + 2.0 * k2_1 + 2.0 * k3_1 + k4_1)
        v1 = v1 + sixth * (k1_2 + 2.0 * k2_2 + 2.0 * k3_2 + k4_2)
        v2 = v2 + sixth * (k1_3 + 2.0 * k2_3 + 2.0 * k3_3 + k4_3)
        g0 = g0 + sixth * (k1_4 + 2.0 * k2_4 + 2.0 * k3_4 + k4_4)
        g1 = g1 + sixth * (k1_5 + 2.0 * k2_5 + 2.0 * k3_5 + k4_5)
        g2 = g2 + sixth * (k1_6 + 2.0 * k2_6 + 2.0 * k3_6 + k4_6)
        g3 = g3 + sixth * (k1_7 + 2.0 * k2_7 + 2.0 * k3_7 + k4_7)
        h0 = h0 + sixth * (k1_8 + 2.0 * k2_8 + 2.0 * k3_8 + k4_8)
        h1 = h1 + sixth * (k1_9 + 2.0 * k2_9 + 2.0 * k3_9 + k4_9)
        h2 = h2 + sixth * (k1_10 + 2.0 * k2_10 + 2.0 * k3_10 + k4_10)
        h3 = h3 + sixth * (k1_11 + 2.0 * k2_11 + 2.0 * k3_11 + k4_11)
        h4 = h4 + sixth * (k1_12 + 2.0 * k2_12 + 2.0 * k3_12 + k4_12)
        h5 = h5 + sixth * (k1_13 + 2.0 * k2_13 + 2.0 * k3_13 + k4_13)
        h6 = h6 + sixth * (k1_14 + 2.0 * k2_14 + 2.0 * k3_14 + k4_14)
        h7 = h7 + sixth * (k1_15 + 2.0 * k2_15 + 2.0 * k3_15 + k4_15)
        khat = khat + sixth * (k1_16 + 2.0 * k2_16 + 2.0 * k3_16 + k4_16)
        y = (x1, x2, v1, v2, g0, g1, g2, g3, h0, h1, h2, h3, h4, h5, h6, h7, khat)
        # min and max may pass over a nan, but it makes the sum nan
        if not (-_LIMIT <= min(y) and max(y) <= _LIMIT) or isnan(sum(y)):
            diverged_at = (step + 1) * h
            break
    if diverged_at < 0.0:
        t = n_steps * h
        record(_ROW(t, x1, x2, *f(t, *y)[17:], khat))
    rows = memoryview(records).cast("B").cast("d", (len(records) // 12, 12))
    return rows, diverged_at, list(y)


_CSV_BLOCK = 1024


def format_rows(data, ncol):
    """The CSV body of a flat float64 buffer (an array("d")) of ncol-column
    rows: each value as "%.17g" prints it, enough to round-trip any double,
    joined by commas, each row ended by a newline; "" for no rows."""
    if ncol < 1 or len(data) % ncol:
        raise ValueError("data must hold whole rows of ncol >= 1 columns")
    # a block of ncol-field template lines filled by one format op per
    # _CSV_BLOCK rows, so only one block's floats exist as objects at once
    row = ",".join(["%.17g"] * ncol)
    n = _CSV_BLOCK * ncol
    out = []
    for i in range(0, len(data), n):
        block = data[i:i + n]
        out.append("\n".join([row] * (len(block) // ncol)) % tuple(block))
    out.append("")  # the final newline, without copying the text once more
    return "\n".join(out)


def format_vertices(xs, ys, sx, xlo, xhi, sy, ylo, yhi, ml, mt, pw, ph):
    """The points of an SVG polyline: each vertex (x, y) of zip(xs, ys) as
    "%.6g,%.6g" of its plot coordinates, ml + (x * sx - xlo) / (xhi - xlo)
    * pw and mt + ph - (y * sy - ylo) / (yhi - ylo) * ph, the vertices
    joined by spaces."""
    return " ".join(["%.6g,%.6g" % (ml + (x * sx - xlo) / (xhi - xlo) * pw,
                                    mt + ph - (y * sy - ylo) / (yhi - ylo) * ph)
                     for x, y in zip(xs, ys)])
