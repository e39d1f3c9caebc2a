"""Pure-Python twin of the compiled closed-loop integration kernel.

This file and the hand-written C twin _kernel.c compute every value with
the same expression in the same operation order, so a run produces
bit-identical records on either backend (the parity tests compare floats for
exact equality).  When editing one, edit the other to match, expression by
expression.  Both are straight-line and mask-aware: each Hankel cofactor is
written out, and a cofactor behind a masked coefficient estimate is never
computed.  Only the plumbing differs (slices and comprehensions here, indexed
loops in C).

Conventions shared by both twins:
  - no ** operator anywhere; powers are explicit products, so both
    backends emit the same multiply sequence
  - polynomial evaluation is Horner from the highest coefficient, seeded
    with 0.0 (matching controller.Polynomial.__call__)
  - determinants and adjugates of the Hankel blocks use division-free
    cofactor expansion, never pivoted elimination
  - the state vector is y = (x1, x2, v1, v2, eta1[0..3], eta2[0..7], khat),
    17 entries; khat rides along unused in nonadaptive runs

Record layout (12 columns per row):
  t, x1, x2, e, zeta, u, a11, a21, a23, detT1, detT2, khat
where a11 is the first entry of the component-1 coefficient estimate and
a21/a23 the first/third of component 2, all taken from the vector-field
evaluation at the recorded state.  Both twins append each row to one
row-major float64 buffer and return it as a C-contiguous (rows, 12)
memoryview of format 'd', so len(records) is the row count.

Modes: 0 nonadaptive, 1 adaptive, 2 open loop (u forced to 0; the filters
and estimators keep running so the log stays comparable).
"""

from array import array
from math import exp, sin
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


def _chi_est(y, base, n, m, eps, mask, ahat):
    """Coefficient estimate, reconstruction, and Hankel determinant.

    Reads the filter state from y[base : base + 2n] and the 2n filter
    coefficients from m, writes the masked estimate into ahat[0:n], and
    returns (chi, det).
    """
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
    # when r + c is odd.  Row 0 always feeds det; a column's other three
    # cofactors are computed only if the mask keeps its estimate.  The (3, 0)
    # and (0, 3) minors are the same Hankel block of h1..h5, so c30 is c03.
    h0, h1, h2, h3, h4, h5, h6, h7 = y[base:base + 8]
    c00 = h2 * (h4 * h6 - h5 * h5) - h3 * (h3 * h6 - h5 * h4) + h4 * (h3 * h5 - h4 * h4)
    c01 = -(h1 * (h4 * h6 - h5 * h5) - h3 * (h2 * h6 - h5 * h3) + h4 * (h2 * h5 - h4 * h3))
    c02 = h1 * (h3 * h6 - h5 * h4) - h2 * (h2 * h6 - h5 * h3) + h4 * (h2 * h4 - h3 * h3)
    c03 = -(h1 * (h3 * h5 - h4 * h4) - h2 * (h2 * h5 - h4 * h3) + h3 * (h2 * h4 - h3 * h3))
    det = h0 * c00 + h1 * c01 + h2 * c02 + h3 * c03
    if det == 0.0:
        sc = 0.0
    else:
        sc = det / (det * det + _psi(1.0 + det * det - eps * eps))
    # ahat[j] = -(adjugate row j . b); adjugate[j][r] is the (r, j) cofactor
    if mask[0]:
        a0 = 0.0
    else:
        c10 = -(h1 * (h4 * h6 - h5 * h5) - h2 * (h3 * h6 - h5 * h4) + h3 * (h3 * h5 - h4 * h4))
        c20 = h1 * (h3 * h6 - h4 * h5) - h2 * (h2 * h6 - h4 * h4) + h3 * (h2 * h5 - h3 * h4)
        a0 = -(0.0 + sc * c00 * h4 + sc * c10 * h5 + sc * c20 * h6 + sc * c03 * h7)
    if mask[1]:
        a1 = 0.0
    else:
        c11 = h0 * (h4 * h6 - h5 * h5) - h2 * (h2 * h6 - h5 * h3) + h3 * (h2 * h5 - h4 * h3)
        c21 = -(h0 * (h3 * h6 - h4 * h5) - h2 * (h1 * h6 - h4 * h3) + h3 * (h1 * h5 - h3 * h3))
        c31 = h0 * (h3 * h5 - h4 * h4) - h2 * (h1 * h5 - h4 * h2) + h3 * (h1 * h4 - h3 * h2)
        a1 = -(0.0 + sc * c01 * h4 + sc * c11 * h5 + sc * c21 * h6 + sc * c31 * h7)
    if mask[2]:
        a2 = 0.0
    else:
        c12 = -(h0 * (h3 * h6 - h5 * h4) - h1 * (h2 * h6 - h5 * h3) + h3 * (h2 * h4 - h3 * h3))
        c22 = h0 * (h2 * h6 - h4 * h4) - h1 * (h1 * h6 - h4 * h3) + h3 * (h1 * h4 - h2 * h3)
        c32 = -(h0 * (h2 * h5 - h4 * h3) - h1 * (h1 * h5 - h4 * h2) + h3 * (h1 * h3 - h2 * h2))
        a2 = -(0.0 + sc * c02 * h4 + sc * c12 * h5 + sc * c22 * h6 + sc * c32 * h7)
    if mask[3]:
        a3 = 0.0
    else:
        c13 = h0 * (h3 * h5 - h4 * h4) - h1 * (h2 * h5 - h4 * h3) + h2 * (h2 * h4 - h3 * h3)
        c23 = -(h0 * (h2 * h5 - h3 * h4) - h1 * (h1 * h5 - h3 * h3) + h2 * (h1 * h4 - h2 * h3))
        c33 = h0 * (h2 * h4 - h3 * h3) - h1 * (h1 * h4 - h3 * h2) + h2 * (h1 * h3 - h2 * h2)
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
    chi = 0.0 + (p0 + r0) * h0 + (p1 + r1) * h1 + (p2 + r2) * h2 + (p3 + r3) * h3
    return chi, det


def _horner(coeffs, s):
    acc = 0.0
    i = len(coeffs) - 1
    while i >= 0:
        acc = acc * s + coeffs[i]
        i -= 1
    return acc


def _deriv(t, y, dy, aux, c1, c2, c3, sigma, m1, m2, eps, mask1, mask2,
           rho, kc, k0, mode, dist_amp, dist_freq, ahat1, ahat2):
    x1 = y[0]
    x2 = y[1]
    v1 = y[2]
    v2 = y[3]
    e = x1 - v1
    chi1, det1 = _chi_est(y, 4, 2, m1, eps, mask1, ahat1)
    chi2, det2 = _chi_est(y, 8, 4, m2, eps, mask2, ahat2)
    rho_e = _horner(rho, e)
    zeta = x2 - chi1 + rho_e * e
    kz = _horner(kc, zeta)
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
                    mask1, mask2, rho, kc, k0, mode, dist_amp, dist_freq,
                    t0=0.0):
    """Integrate the closed loop with classical RK4 at fixed step h.

    Records a 12-column row at every stride-th step (state before the
    step, auxiliaries from the vector field at that state) and once more
    after the final step: (n_steps - 1) // stride + 2 rows on a completed
    run, one for n_steps = 0.  Returns (records, diverged_at, y_final);
    records is a (rows, 12) float64 memoryview.  diverged_at is -1.0 on a
    completed run, otherwise t0 + (step + 1) * h for the first step whose
    result left the |y| <= 1e9 box or stopped being finite, in which case
    the records simply end early and y_final is the offending state.  t0
    only shifts the clock (records, the disturbance phase); it must be >= 0
    so -1.0 stays unambiguous.
    """
    y = [float(v) for v in y0]
    if len(y) != 17:
        raise ValueError("state vector must have 17 entries, got %d" % len(y))
    if stride < 1:
        raise ValueError("stride must be >= 1, got %d" % stride)
    if not t0 >= 0.0:
        raise ValueError("t0 must be >= 0, got %r" % (t0,))
    m1 = [float(v) for v in m1]
    m2 = [float(v) for v in m2]
    mask1 = [1 if v else 0 for v in mask1]
    mask2 = [1 if v else 0 for v in mask2]
    if len(m1) != 4 or len(m2) != 8 or len(mask1) != 2 or len(mask2) != 4:
        raise ValueError("need m1[4], m2[8], mask1[2], mask2[4]")
    rho = [float(v) for v in rho]
    kc = [float(v) for v in kc]
    k1 = [0.0] * 17
    k2 = [0.0] * 17
    k3 = [0.0] * 17
    k4 = [0.0] * 17
    aux = [0.0] * 8
    auxw = [0.0] * 8
    a1b = [0.0] * 4
    a2b = [0.0] * 4
    half = 0.5 * h
    h6 = h / 6.0
    records = array("d")
    record = records.frombytes
    diverged_at = -1.0
    for step in range(n_steps):
        t = t0 + step * h
        _deriv(t, y, k1, aux, c1, c2, c3, sigma, m1, m2, eps, mask1, mask2,
               rho, kc, k0, mode, dist_amp, dist_freq, a1b, a2b)
        if step % stride == 0:
            record(_ROW(t, y[0], y[1], aux[0], aux[1], aux[2], aux[3], aux[4],
                        aux[5], aux[6], aux[7], y[16]))
        yw = [yi + half * ki for yi, ki in zip(y, k1)]
        _deriv(t + half, yw, k2, auxw, c1, c2, c3, sigma, m1, m2, eps, mask1,
               mask2, rho, kc, k0, mode, dist_amp, dist_freq, a1b, a2b)
        yw = [yi + half * ki for yi, ki in zip(y, k2)]
        _deriv(t + half, yw, k3, auxw, c1, c2, c3, sigma, m1, m2, eps, mask1,
               mask2, rho, kc, k0, mode, dist_amp, dist_freq, a1b, a2b)
        yw = [yi + h * ki for yi, ki in zip(y, k3)]
        _deriv(t + h, yw, k4, auxw, c1, c2, c3, sigma, m1, m2, eps, mask1,
               mask2, rho, kc, k0, mode, dist_amp, dist_freq, a1b, a2b)
        y = [yi + h6 * (a + 2.0 * b + 2.0 * c + d)
             for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
        # a nan fails both comparisons
        if not all(-_LIMIT <= yi <= _LIMIT for yi in y):
            diverged_at = t0 + (step + 1) * h
            break
    if diverged_at < 0.0:
        t = t0 + n_steps * h
        _deriv(t, y, k1, aux, c1, c2, c3, sigma, m1, m2, eps, mask1, mask2,
               rho, kc, k0, mode, dist_amp, dist_freq, a1b, a2b)
        record(_ROW(t, y[0], y[1], aux[0], aux[1], aux[2], aux[3], aux[4],
                    aux[5], aux[6], aux[7], y[16]))
    rows = memoryview(records).cast("B").cast("d", (len(records) // 12, 12))
    return rows, diverged_at, y
