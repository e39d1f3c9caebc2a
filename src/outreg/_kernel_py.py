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

The RK4 loop has one shape in both: the state is one 17-entry list (an
array in C), and each stage is one pass over it, y[i] + half * k1[i] through
y[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]), then one _deriv
call (deriv in C) that writes the stage's derivatives into k1..k4, the
record's auxiliaries into aux and both estimates into ahat buffers, all
allocated once per run.  _deriv calls _chi_est (chi_est) once per estimator.
Only the plumbing differs: C hands the parameters over in a struct, and here
run_closed_loop packs them into one tuple per run and passes it by position.
perfbench's microbenchmark times _chi_est and _deriv by position too, so
their signatures are fixed.  run_closed_loop, format_rows and
format_vertices take positional arguments only ("/" here, METH_VARARGS in
C), so a keyword call raises TypeError on either backend.

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

_LIMIT = 1e9


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


def _chi_est(y, base, n, m, eps, mask, ahat):
    """Coefficient estimate, reconstruction, and Hankel determinant.  Reads
    the filter state y[base : base + 2n] and the 2n filter coefficients m,
    writes the masked estimate into ahat[0:n], and returns (chi, det)."""
    if n == 2:
        h0, h1, h2, h3 = y[base:base + 4]
        det = h0 * h2 - h1 * h1
        if det == 0.0:
            sc = 0.0
        else:
            sc = det / (det * det + _psi(1.0 + det * det - eps * eps))
        # adjugate rows (h2, -h1) and (-h1, h0) against b = (h2, h3)
        if mask[0]:
            a0 = 0.0
        else:
            a0 = -(sc * h2 * h2 + sc * -h1 * h3)
        if mask[1]:
            a1 = 0.0
        else:
            a1 = -(sc * -h1 * h2 + sc * h0 * h3)
        ahat[0] = a0
        ahat[1] = a1
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
        return 0.0 + (p0 + r0) * h0 + (p1 + r1) * h1, det
    # n == 4: Hankel rows (h0..h3), (h1..h4), (h2..h5), (h3..h6) with
    # b = (h4..h7).  c<r><c> is the (r, c) cofactor: the det3 of its minor
    # (entries row-major, expanded along the minor's first row), negated
    # when r + c is odd.  d<ab>_<cd> is the 2x2 minor ha * hb - hc * hd;
    # each is computed once and shared by every cofactor that expands into
    # it (the products commute bit for bit, so the sharing changes no
    # value).  Row 0 always feeds det; a column's other three cofactors are
    # computed only if the mask keeps its estimate.  The (3, 0) and (0, 3)
    # minors are the same Hankel block of h1..h5, so c30 is c03.
    h0, h1, h2, h3, h4, h5, h6, h7 = y[base:base + 8]
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
        sc = det / (det * det + _psi(1.0 + det * det - eps * eps))
    # ahat[j] = -(adjugate row j . b); adjugate[j][r] is the (r, j) cofactor
    if mask[0]:
        a0 = 0.0
    else:
        c10 = -(h1 * d46_55 - h2 * d36_45 + h3 * d35_44)
        c20 = h1 * d36_45 - h2 * d26_44 + h3 * d25_34
        a0 = -(0.0 + sc * c00 * h4 + sc * c10 * h5 + sc * c20 * h6 + sc * c03 * h7)
    if mask[1]:
        a1 = 0.0
    else:
        c11 = h0 * d46_55 - h2 * d26_35 + h3 * d25_34
        c21 = -(h0 * d36_45 - h2 * d16_34 + h3 * d15_33)
        c31 = h0 * d35_44 - h2 * d15_24 + h3 * d14_23
        a1 = -(0.0 + sc * c01 * h4 + sc * c11 * h5 + sc * c21 * h6 + sc * c31 * h7)
    if mask[2]:
        a2 = 0.0
    else:
        c12 = -(h0 * d36_45 - h1 * d26_35 + h3 * d24_33)
        c22 = h0 * d26_44 - h1 * d16_34 + h3 * d14_23
        c32 = -(h0 * d25_34 - h1 * d15_24 + h3 * d13_22)
        a2 = -(0.0 + sc * c02 * h4 + sc * c12 * h5 + sc * c22 * h6 + sc * c32 * h7)
    if mask[3]:
        a3 = 0.0
    else:
        c13 = h0 * d35_44 - h1 * d25_34 + h2 * d24_33
        c23 = -(h0 * d25_34 - h1 * d15_33 + h2 * d14_23)
        c33 = h0 * d24_33 - h1 * d14_23 + h2 * d13_22
        a3 = -(0.0 + sc * c03 * h4 + sc * c13 * h5 + sc * c23 * h6 + sc * c33 * h7)
    ahat[0] = a0
    ahat[1] = a1
    ahat[2] = a2
    ahat[3] = a3
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
    return 0.0 + (p0 + r0) * h0 + (p1 + r1) * h1 + (p2 + r2) * h2 + (p3 + r3) * h3, det


def _deriv(t, y, dy, aux, c1, c2, c3, sigma, m1, m2, eps, mask1, mask2,
           rho, kc, k0, mode, dist_amp, dist_freq, ahat1, ahat2):
    """The closed-loop vector field at (t, y): writes the 17 derivatives
    into dy, the record's auxiliaries (e, zeta, u, a11, a21, a23, det1,
    det2) into aux, and both masked estimates into ahat1 and ahat2."""
    x1, x2, v1, v2 = y[:4]
    e = x1 - v1
    chi1, det1 = _chi_est(y, 4, 2, m1, eps, mask1, ahat1)
    chi2, det2 = _chi_est(y, 8, 4, m2, eps, mask2, ahat2)
    # Horner from the highest coefficient
    rho_e = 0.0
    for c in reversed(rho):
        rho_e = rho_e * e + c
    zeta = x2 - chi1 + rho_e * e
    kz = 0.0
    for c in reversed(kc):
        kz = kz * zeta + c
    if mode == 1:
        u = -(y[16] * kz * zeta) + chi2
        dk = kz * zeta * zeta
    elif mode == 2:
        u = 0.0
        dk = 0.0
    else:
        u = -(k0 * kz * zeta) + chi2
        dk = 0.0
    d = v2 + dist_amp * sin(dist_freq * t)
    dy[0] = x2
    dy[1] = -c3 * x2 - c1 * x1 - c2 * (x1 * x1 * x1) + u + d
    dy[2] = sigma * v2
    dy[3] = -sigma * v1
    dy[4:7] = y[5:8]
    dy[7] = 0.0 - m1[0] * y[4] - m1[1] * y[5] - m1[2] * y[6] - m1[3] * y[7] + x2
    dy[8:15] = y[9:16]
    dy[15] = (0.0 - m2[0] * y[8] - m2[1] * y[9] - m2[2] * y[10] - m2[3] * y[11]
              - m2[4] * y[12] - m2[5] * y[13] - m2[6] * y[14] - m2[7] * y[15] + u)
    dy[16] = dk
    aux[:] = e, zeta, u, ahat1[0], ahat2[0], ahat2[2], det1, det2


def run_closed_loop(y0, h, n_steps, stride, c1, c2, c3, sigma, m1, m2, eps,
                    mask1, mask2, rho, kc, k0, mode, dist_amp, dist_freq, /):
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
    p = (c1, c2, c3, sigma, m1, m2, eps, mask1, mask2, [float(v) for v in rho],
         [float(v) for v in kc], k0, mode, dist_amp, dist_freq)
    k1, k2, k3, k4, aux = [0.0] * 17, [0.0] * 17, [0.0] * 17, [0.0] * 17, [0.0] * 8
    a1b, a2b = [0.0] * 4, [0.0] * 4
    half = 0.5 * h
    sixth = h / 6.0
    records = array("d")
    diverged_at = -1.0
    for step in range(n_steps):
        t = step * h
        _deriv(t, y, k1, aux, *p, a1b, a2b)
        if step % stride == 0:
            records.extend((t, y[0], y[1], *aux, y[16]))
        _deriv(t + half, [yi + half * ki for yi, ki in zip(y, k1)], k2, aux, *p, a1b, a2b)
        _deriv(t + half, [yi + half * ki for yi, ki in zip(y, k2)], k3, aux, *p, a1b, a2b)
        _deriv(t + h, [yi + h * ki for yi, ki in zip(y, k3)], k4, aux, *p, a1b, a2b)
        y = [yi + sixth * (a + 2.0 * b + 2.0 * c + d)
             for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
        # min and max may pass over a nan, but it makes the sum nan
        if not (-_LIMIT <= min(y) and max(y) <= _LIMIT) or isnan(sum(y)):
            diverged_at = (step + 1) * h
            break
    if diverged_at < 0.0:
        t = n_steps * h
        _deriv(t, y, k1, aux, *p, a1b, a2b)
        records.extend((t, y[0], y[1], *aux, y[16]))
    rows = memoryview(records).cast("B").cast("d", (len(records) // 12, 12))
    return rows, diverged_at, y


def format_rows(data, ncol, /):
    """The CSV body of a flat float64 buffer (an array("d")) of ncol-column
    rows: each value as "%.17g" prints it, enough to round-trip any double,
    joined by commas, each row ended by a newline; "" for no rows."""
    if ncol < 1 or len(data) % ncol:
        raise ValueError("data must hold whole rows of ncol >= 1 columns")
    row = ",".join(["%.17g"] * ncol) + "\n"
    return "".join([row % tuple(data[i:i + ncol]) for i in range(0, len(data), ncol)])


def format_vertices(xs, ys, sx, xlo, xhi, sy, ylo, yhi, ml, mt, pw, ph, /):
    """The points of an SVG polyline: each vertex (x, y) of zip(xs, ys) as
    "%.6g,%.6g" of its plot coordinates, ml + (x * sx - xlo) / (xhi - xlo)
    * pw and mt + ph - (y * sy - ylo) / (yhi - ylo) * ph, the vertices
    joined by spaces."""
    return " ".join(["%.6g,%.6g" % (ml + (x * sx - xlo) / (xhi - xlo) * pw,
                                    mt + ph - (y * sy - ylo) / (yhi - ylo) * ph)
                     for x, y in zip(xs, ys)])
