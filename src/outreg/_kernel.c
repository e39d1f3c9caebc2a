/* Compiled twin of _kernel_py; see that module for the shared contract.
 *
 * Every value here is computed with the same expression, in the same
 * operation order, as in _kernel_py.py, and the build uses -ffp-contract=off
 * so no multiply-add fusion can change the rounding.  Edit both files
 * together, expression by expression; the RK4 loops match line for line,
 * each appends rows in one place, its final pass recording the last state,
 * and every entry point is METH_VARARGS, positional only, as in the python
 * twin.  format_rows(data) prints rows of NCOL = 12 columns and
 * format_vertices SVG points, what CPython's "%.17g" and "%.6g" print,
 * byte for byte: write_g finds the digits of a log's values by exact
 * integer arithmetic, and hands every other value to CPython's own
 * PyOS_double_to_string.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define LIMIT 1e9
#define NCOL 12 /* columns per record row */

typedef struct {
    double c1, c2, c3, sigma, eps, k0, dist_amp, dist_freq;
    double *m1, *m2, *rho, *kc; /* PyMem buffers owned by run_closed_loop */
    Py_ssize_t n_rho, n_kc;
    int mask1[4], mask2[4]; /* as_mask keeps up to four entries */
    int mode;
} params;

static double psi(double s)
{
    /* kappa(1-s) / (kappa(s) + kappa(1-s)); kappa(t) = exp(-1/t) for t > 0.
     * dn == 0.0 is reachable only through nan arguments; C division then
     * yields nan (0/0) or +inf (x/0), which the python twin reproduces */
    double t = 1.0 - s;
    double up = t > 0.0 ? exp(-1.0 / t) : 0.0;
    double dn = s > 0.0 ? exp(-1.0 / s) + up : up;
    return up / dn;
}

/* Coefficient estimate, reconstruction, and Hankel determinant.  Reads the
 * filter state h[0 : 2n] and the 2n filter coefficients m, writes the masked
 * estimate into ahat[0:n] and the determinant into *det_out, returns chi. */
static double chi_est(const double *h, int n, const double *m, double eps,
                      const int *mask, double *ahat, double *det_out)
{
    double det, sc, a0, a1, a2, a3, last;
    double r0 = 1.0, r1 = 0.0, r2 = 0.0, r3 = 0.0;
    double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
    int j;
    if (n == 2) {
        double h0 = h[0], h1 = h[1], h2 = h[2], h3 = h[3];
        det = h0 * h2 - h1 * h1;
        sc = det == 0.0 ? 0.0 : det / (det * det + psi(1.0 + det * det - eps * eps));
        /* adjugate rows (h2, -h1) and (-h1, h0) against b = (h2, h3) */
        a0 = mask[0] ? 0.0 : -(sc * h2 * h2 + sc * -h1 * h3);
        a1 = mask[1] ? 0.0 : -(sc * -h1 * h2 + sc * h0 * h3);
        ahat[0] = a0;
        ahat[1] = a1;
        /* first row of Xi(ahat) by the row recurrence row_{j+1} = row_j . Phi */
        for (j = 0; j < 4; j++) {
            p0 = p0 + m[j] * r0;
            p1 = p1 + m[j] * r1;
            last = r1;
            r1 = r0 - a1 * last;
            r0 = -a0 * last;
        }
        *det_out = det;
        return 0.0 + (p0 + r0) * h0 + (p1 + r1) * h1;
    }
    /* n == 4: Hankel rows (h0..h3), (h1..h4), (h2..h5), (h3..h6) with
     * b = (h4..h7).  c<r><c> is the (r, c) cofactor: the det3 of its minor
     * (entries row-major, expanded along the minor's first row), negated
     * when r + c is odd.  d<ab>_<cd> is the 2x2 minor ha * hb - hc * hd;
     * each is computed once and shared by every cofactor that expands into
     * it (the products commute bit for bit, so the sharing changes no
     * value).  Row 0 always feeds det; a column's other three cofactors
     * are computed only if the mask keeps its estimate.  The (3, 0) and
     * (0, 3) minors are the same Hankel block of h1..h5, so c30 is c03. */
    double h0 = h[0], h1 = h[1], h2 = h[2], h3 = h[3];
    double h4 = h[4], h5 = h[5], h6 = h[6], h7 = h[7];
    double d46_55 = h4 * h6 - h5 * h5;
    double d36_45 = h3 * h6 - h4 * h5;
    double d35_44 = h3 * h5 - h4 * h4;
    double d26_35 = h2 * h6 - h3 * h5;
    double d25_34 = h2 * h5 - h3 * h4;
    double d24_33 = h2 * h4 - h3 * h3;
    double d26_44 = h2 * h6 - h4 * h4;
    double d16_34 = h1 * h6 - h3 * h4;
    double d15_24 = h1 * h5 - h2 * h4;
    double d15_33 = h1 * h5 - h3 * h3;
    double d14_23 = h1 * h4 - h2 * h3;
    double d13_22 = h1 * h3 - h2 * h2;
    double c00 = h2 * d46_55 - h3 * d36_45 + h4 * d35_44;
    double c01 = -(h1 * d46_55 - h3 * d26_35 + h4 * d25_34);
    double c02 = h1 * d36_45 - h2 * d26_35 + h4 * d24_33;
    double c03 = -(h1 * d35_44 - h2 * d25_34 + h3 * d24_33);
    det = h0 * c00 + h1 * c01 + h2 * c02 + h3 * c03;
    sc = det == 0.0 ? 0.0 : det / (det * det + psi(1.0 + det * det - eps * eps));
    /* ahat[j] = -(adjugate row j . b); adjugate[j][r] is the (r, j) cofactor */
    if (mask[0]) {
        a0 = 0.0;
    } else {
        double c10 = -(h1 * d46_55 - h2 * d36_45 + h3 * d35_44);
        double c20 = h1 * d36_45 - h2 * d26_44 + h3 * d25_34;
        a0 = -(0.0 + sc * c00 * h4 + sc * c10 * h5 + sc * c20 * h6 + sc * c03 * h7);
    }
    if (mask[1]) {
        a1 = 0.0;
    } else {
        double c11 = h0 * d46_55 - h2 * d26_35 + h3 * d25_34;
        double c21 = -(h0 * d36_45 - h2 * d16_34 + h3 * d15_33);
        double c31 = h0 * d35_44 - h2 * d15_24 + h3 * d14_23;
        a1 = -(0.0 + sc * c01 * h4 + sc * c11 * h5 + sc * c21 * h6 + sc * c31 * h7);
    }
    if (mask[2]) {
        a2 = 0.0;
    } else {
        double c12 = -(h0 * d36_45 - h1 * d26_35 + h3 * d24_33);
        double c22 = h0 * d26_44 - h1 * d16_34 + h3 * d14_23;
        double c32 = -(h0 * d25_34 - h1 * d15_24 + h3 * d13_22);
        a2 = -(0.0 + sc * c02 * h4 + sc * c12 * h5 + sc * c22 * h6 + sc * c32 * h7);
    }
    if (mask[3]) {
        a3 = 0.0;
    } else {
        double c13 = h0 * d35_44 - h1 * d25_34 + h2 * d24_33;
        double c23 = -(h0 * d25_34 - h1 * d15_33 + h2 * d14_23);
        double c33 = h0 * d24_33 - h1 * d14_23 + h2 * d13_22;
        a3 = -(0.0 + sc * c03 * h4 + sc * c13 * h5 + sc * c23 * h6 + sc * c33 * h7);
    }
    ahat[0] = a0;
    ahat[1] = a1;
    ahat[2] = a2;
    ahat[3] = a3;
    for (j = 0; j < 8; j++) {
        p0 = p0 + m[j] * r0;
        p1 = p1 + m[j] * r1;
        p2 = p2 + m[j] * r2;
        p3 = p3 + m[j] * r3;
        last = r3;
        r3 = r2 - a3 * last;
        r2 = r1 - a2 * last;
        r1 = r0 - a1 * last;
        r0 = -a0 * last;
    }
    *det_out = det;
    return 0.0 + (p0 + r0) * h0 + (p1 + r1) * h1 + (p2 + r2) * h2 + (p3 + r3) * h3;
}

static double horner(const double *coeffs, Py_ssize_t nc, double s)
{
    double acc = 0.0;
    Py_ssize_t i;
    for (i = nc - 1; i >= 0; i--)
        acc = acc * s + coeffs[i];
    return acc;
}

static void deriv(double t, const double *y, double *dy, double *aux,
                  const params *p, double *ahat1, double *ahat2)
{
    const double *m1 = p->m1, *m2 = p->m2;
    double x1 = y[0];
    double x2 = y[1];
    double v1 = y[2];
    double v2 = y[3];
    double e = x1 - v1;
    double det1, det2, chi1, chi2, rho_e, zeta, kz, u, dk, d;
    int i;
    chi1 = chi_est(y + 4, 2, m1, p->eps, p->mask1, ahat1, &det1);
    chi2 = chi_est(y + 8, 4, m2, p->eps, p->mask2, ahat2, &det2);
    rho_e = horner(p->rho, p->n_rho, e);
    zeta = x2 - chi1 + rho_e * e;
    kz = horner(p->kc, p->n_kc, zeta);
    if (p->mode == 1) {
        u = -(y[16] * kz * zeta) + chi2;
        dk = kz * zeta * zeta;
    } else if (p->mode == 2) {
        u = 0.0;
        dk = 0.0;
    } else {
        u = -(p->k0 * kz * zeta) + chi2;
        dk = 0.0;
    }
    d = v2 + p->dist_amp * sin(p->dist_freq * t);
    dy[0] = x2;
    dy[1] = -p->c3 * x2 - p->c1 * x1 - p->c2 * (x1 * x1 * x1) + u + d;
    dy[2] = p->sigma * v2;
    dy[3] = -p->sigma * v1;
    for (i = 4; i < 7; i++)
        dy[i] = y[i + 1];
    dy[7] = 0.0 - m1[0] * y[4] - m1[1] * y[5] - m1[2] * y[6] - m1[3] * y[7] + x2;
    for (i = 8; i < 15; i++)
        dy[i] = y[i + 1];
    dy[15] = (0.0 - m2[0] * y[8] - m2[1] * y[9] - m2[2] * y[10] - m2[3] * y[11]
              - m2[4] * y[12] - m2[5] * y[13] - m2[6] * y[14] - m2[7] * y[15] + u);
    dy[16] = dk;
    aux[0] = e;
    aux[1] = zeta;
    aux[2] = u;
    aux[3] = ahat1[0];
    aux[4] = ahat2[0];
    aux[5] = ahat2[2];
    aux[6] = det1;
    aux[7] = det2;
}

/* A list of n floats, or NULL with an exception set. */
static PyObject *float_list(const double *v, Py_ssize_t n)
{
    PyObject *out = PyList_New(n);
    Py_ssize_t i;
    if (out == NULL)
        return NULL;
    for (i = 0; i < n; i++) {
        PyObject *f = PyFloat_FromDouble(v[i]);
        if (f == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, f);
    }
    return out;
}

/* Append the NCOL-column row (t, x1, x2, aux[0..7], khat) to the bytearray
 * rows as float64 bytes; -1 with an exception set if it cannot grow.
 * PyByteArray_Resize over-allocates, so nothing is sized from n_steps. */
static int append_record(PyObject *rows, double t, const double *y, const double *aux)
{
    Py_ssize_t end = PyByteArray_GET_SIZE(rows);
    double row[NCOL] = {t, y[0], y[1], aux[0], aux[1], aux[2], aux[3],
                        aux[4], aux[5], aux[6], aux[7], y[16]};
    if (PyByteArray_Resize(rows, end + (Py_ssize_t)sizeof row) < 0)
        return -1;
    memcpy(PyByteArray_AS_STRING(rows) + end, row, sizeof row);
    return 0;
}

/* [float(v) for v in obj] as a PyMem buffer of *n doubles, or NULL with an
 * exception set. */
static double *as_doubles(PyObject *obj, Py_ssize_t *n)
{
    PyObject *seq = PySequence_Fast(obj, "expected an iterable of numbers");
    double *out;
    Py_ssize_t i;
    if (seq == NULL)
        return NULL;
    *n = PySequence_Fast_GET_SIZE(seq);
    out = PyMem_New(double, *n > 0 ? *n : 1);
    if (out == NULL) {
        Py_DECREF(seq);
        PyErr_NoMemory();
        return NULL;
    }
    for (i = 0; i < *n; i++) {
        PyObject *f = PyNumber_Float(PySequence_Fast_GET_ITEM(seq, i));
        if (f == NULL) {
            Py_DECREF(seq);
            PyMem_Free(out);
            return NULL;
        }
        out[i] = PyFloat_AS_DOUBLE(f);
        Py_DECREF(f);
    }
    Py_DECREF(seq);
    return out;
}

/* [1 if v else 0 for v in obj] into out[0:4]; returns the length, or -1
 * with an exception set.  Entries past the fourth are evaluated, not kept. */
static Py_ssize_t as_mask(PyObject *obj, int *out)
{
    PyObject *seq = PySequence_Fast(obj, "expected an iterable mask");
    Py_ssize_t i, n;
    if (seq == NULL)
        return -1;
    n = PySequence_Fast_GET_SIZE(seq);
    for (i = 0; i < n; i++) {
        int v = PyObject_IsTrue(PySequence_Fast_GET_ITEM(seq, i));
        if (v < 0) {
            Py_DECREF(seq);
            return -1;
        }
        if (i < 4)
            out[i] = v;
    }
    Py_DECREF(seq);
    return n;
}

static PyObject *run_closed_loop(PyObject *self, PyObject *args)
{
    PyObject *y0, *m1o, *m2o, *mask1o, *mask2o, *rhoo, *kco;
    PyObject *rows = NULL, *flat = NULL, *records = NULL, *yfinal = NULL, *result = NULL;
    double *y = NULL;
    double yw[17], k1[17], k2[17], k3[17], k4[17];
    double aux[8], a1b[4], a2b[4];
    double h, t, half, h6, diverged_at;
    long n_steps, stride, step;
    Py_ssize_t ny, nm1, nm2, nk1, nk2;
    params p = {0};
    int i, bad;

    (void)self;
    if (!PyArg_ParseTuple(args, "OdllddddOOdOOOOdidd:run_closed_loop", &y0, &h, &n_steps,
                          &stride, &p.c1, &p.c2, &p.c3, &p.sigma, &m1o, &m2o, &p.eps,
                          &mask1o, &mask2o, &rhoo, &kco, &p.k0, &p.mode, &p.dist_amp,
                          &p.dist_freq))
        return NULL;
    y = as_doubles(y0, &ny);
    if (y == NULL)
        goto done;
    if (ny != 17) {
        PyErr_Format(PyExc_ValueError, "state vector must have 17 entries, got %zd", ny);
        goto done;
    }
    if (!(h > 0.0 && isfinite(h))) {
        PyObject *f = PyFloat_FromDouble(h);
        if (f != NULL) {
            PyErr_Format(PyExc_ValueError, "h must be finite and > 0, got %R", f);
            Py_DECREF(f);
        }
        goto done;
    }
    if (n_steps < 0) {
        PyErr_Format(PyExc_ValueError, "n_steps must be >= 0, got %ld", n_steps);
        goto done;
    }
    if (stride < 1) {
        PyErr_Format(PyExc_ValueError, "stride must be >= 1, got %ld", stride);
        goto done;
    }
    if (p.mode < 0 || p.mode > 2) {
        PyErr_Format(PyExc_ValueError, "mode must be 0, 1 or 2, got %d", p.mode);
        goto done;
    }
    p.m1 = as_doubles(m1o, &nm1);
    if (p.m1 == NULL)
        goto done;
    p.m2 = as_doubles(m2o, &nm2);
    if (p.m2 == NULL)
        goto done;
    nk1 = as_mask(mask1o, p.mask1);
    if (nk1 < 0)
        goto done;
    nk2 = as_mask(mask2o, p.mask2);
    if (nk2 < 0)
        goto done;
    if (nm1 != 4 || nm2 != 8 || nk1 != 2 || nk2 != 4) {
        PyErr_SetString(PyExc_ValueError, "need m1[4], m2[8], mask1[2], mask2[4]");
        goto done;
    }
    p.rho = as_doubles(rhoo, &p.n_rho);
    if (p.rho == NULL)
        goto done;
    p.kc = as_doubles(kco, &p.n_kc);
    if (p.kc == NULL)
        goto done;
    rows = PyByteArray_FromStringAndSize(NULL, 0);
    if (rows == NULL)
        goto done;

    half = 0.5 * h;
    h6 = h / 6.0;
    diverged_at = -1.0;
    for (step = 0; step <= n_steps; step++) {
        t = step * h;
        deriv(t, y, k1, aux, &p, a1b, a2b);
        if ((step % stride == 0 || step == n_steps) && append_record(rows, t, y, aux) < 0)
            goto done;
        if (step == n_steps)
            break;
        for (i = 0; i < 17; i++)
            yw[i] = y[i] + half * k1[i];
        deriv(t + half, yw, k2, aux, &p, a1b, a2b);
        for (i = 0; i < 17; i++)
            yw[i] = y[i] + half * k2[i];
        deriv(t + half, yw, k3, aux, &p, a1b, a2b);
        for (i = 0; i < 17; i++)
            yw[i] = y[i] + h * k3[i];
        deriv(t + h, yw, k4, aux, &p, a1b, a2b);
        bad = 0;
        for (i = 0; i < 17; i++) {
            y[i] = y[i] + h6 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            /* a nan fails both comparisons */
            if (!(-LIMIT <= y[i] && y[i] <= LIMIT))
                bad = 1;
        }
        if (bad) {
            diverged_at = (step + 1) * h;
            break;
        }
    }
    /* a (rows, NCOL) 'd' view of rows itself; step 0 and a completed run
     * record, so the shape, which cannot hold a zero, has a row */
    flat = PyMemoryView_FromObject(rows);
    if (flat == NULL)
        goto done;
    records = PyObject_CallMethod(
        flat, "cast", "s(nn)", "d",
        PyByteArray_GET_SIZE(rows) / (Py_ssize_t)(NCOL * sizeof(double)), (Py_ssize_t)NCOL);
    if (records == NULL)
        goto done;
    yfinal = float_list(y, 17);
    if (yfinal != NULL)
        result = Py_BuildValue("(OdO)", records, diverged_at, yfinal);

done:
    Py_XDECREF(rows);
    Py_XDECREF(flat);
    Py_XDECREF(records);
    Py_XDECREF(yfinal);
    PyMem_Free(y);
    PyMem_Free(p.m1);
    PyMem_Free(p.m2);
    PyMem_Free(p.rho);
    PyMem_Free(p.kc);
    return result;
}

/* The most characters one float takes: "%.17g" of a double is at most 24
 * ("-1.2345678901234567e-308"), "%.6g" at most 13, each plus a separator. */
#define ROW_FLOAT_MAX 25
#define VERTEX_MAX 28

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* 5**j for j = 0..55, filled by PyInit__kernel; 5**56 > 2**128. */
static u128 pow5[56];

/* "%.<prec>g" of x (1 <= prec <= 17) at p, for +-0 and for the normal
 * doubles whose scale s = prec - 1 - floor(log10|x|) lies in [0, 55];
 * returns the end of the text, or NULL for every other x.
 *
 * x = m * 2**e with m < 2**53, so |x| * 10**s is m * 5**s (at most 181
 * bits) times 2**(e + s).  Its integer part q has prec digits exactly when
 * s is the right scale, and the bits shifted out of q round it half to
 * even, as CPython's dtoa rounds.  Then the digits are laid out as "%g"
 * lays them out: fixed from 1e-4 up to 10**prec, else with an exponent,
 * trailing zeros dropped. */
static char *exact_g(char *p, double x, int prec)
{
    const uint64_t lo_q = (uint64_t)pow5[prec - 1] << (prec - 1); /* 10**(prec-1) */
    const uint64_t hi_q = (uint64_t)pow5[prec] << prec;           /* 10**prec */
    const uint64_t half = (uint64_t)1 << 63;
    uint64_t bits, m, lo, q, frac;
    u128 hi, r;
    int biased, e2, s, k, sticky, exp10, nd, i;
    char d[17];

    memcpy(&bits, &x, sizeof bits);
    if (bits >> 63)
        *p++ = '-';
    biased = (int)(bits >> 52 & 0x7ff);
    m = bits & (((uint64_t)1 << 52) - 1);
    if (biased == 0 && m == 0) {
        *p++ = '0';
        return p;
    }
    if (biased == 0 || biased == 0x7ff) /* subnormal, inf or nan */
        return NULL;
    m |= (uint64_t)1 << 52;
    /* floor(log10(2**e2)) by (e2 * 78913) >> 18, exact for |e2| <= 1650; it
     * is floor(log10|x|) or one less, which the loop below corrects */
    e2 = biased - 1023;
    s = prec - 1 - (e2 >= 0 ? e2 * 78913 >> 18 : -((-e2 * 78913 + 262143) >> 18));
    /* s is the scale or one more; from 56, only the scale 55 can be in range */
    if (s > 56)
        return NULL;
    if (s == 56)
        s = 55;
    for (;;) {
        if (s < 0)
            return NULL;
        /* m * 5**s = hi * 2**64 + lo, of which q keeps all but the low
         * k = -(e + s) bits */
        r = (u128)m * (uint64_t)pow5[s];
        hi = (u128)m * (uint64_t)(pow5[s] >> 64) + (r >> 64);
        lo = (uint64_t)r;
        k = 1075 - biased - s; /* e = biased - 1075 */
        sticky = 0;
        if (k <= 0) { /* |x| * 10**s is an integer below 2**60: hi is 0 */
            q = lo << -k;
            frac = 0;
        } else if (k < 64) {
            q = (uint64_t)(hi << (64 - k)) | lo >> k;
            frac = lo << (64 - k);
        } else if (k == 64) {
            q = (uint64_t)hi;
            frac = lo;
        } else {
            r = hi << (192 - k);
            q = (uint64_t)(hi >> (k - 64));
            frac = (uint64_t)(r >> 64);
            sticky = (uint64_t)r != 0 || lo != 0;
        }
        if (q < hi_q)
            break;
        s--;
    }
    if (q < lo_q) /* floor(log10|x|) is prec - 57: outside the range */
        return NULL;
    /* frac holds the cut bits' top 64, sticky whether any lower one is set */
    if (frac > half || (frac == half && (sticky || (q & 1))))
        q++;
    exp10 = prec - 1 - s;
    if (q == hi_q) { /* rounded up to 10**prec: one digit more in front */
        q = lo_q;
        exp10++;
    }
    for (i = prec - 1; i >= 0; i--) {
        d[i] = (char)('0' + q % 10);
        q /= 10;
    }
    for (nd = prec; nd > 1 && d[nd - 1] == '0'; nd--)
        ;
    if (exp10 < -4 || exp10 >= prec) {
        *p++ = d[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, d + 1, (size_t)(nd - 1));
            p += nd - 1;
        }
        *p++ = 'e';
        *p++ = exp10 < 0 ? '-' : '+';
        if (exp10 < 0)
            exp10 = -exp10;
        /* |exp10| <= 55 here: two digits, as "%g" writes at least two */
        *p++ = (char)('0' + exp10 / 10);
        *p++ = (char)('0' + exp10 % 10);
    } else if (exp10 < 0) {
        *p++ = '0';
        *p++ = '.';
        for (i = exp10; i < -1; i++)
            *p++ = '0';
        memcpy(p, d, (size_t)nd);
        p += nd;
    } else if (nd <= exp10 + 1) {
        memcpy(p, d, (size_t)nd);
        p += nd;
        for (i = nd; i <= exp10; i++)
            *p++ = '0';
    } else {
        memcpy(p, d, (size_t)(exp10 + 1));
        p += exp10 + 1;
        *p++ = '.';
        memcpy(p, d + exp10 + 1, (size_t)(nd - exp10 - 1));
        p += nd - exp10 - 1;
    }
    return p;
}
#endif

/* "%.<prec>g" of x at p, as CPython's "%" prints it; returns the end of the
 * text, or NULL with an exception set.  Needs 24 bytes at p. */
static char *write_g(char *p, double x, int prec)
{
    char *s;
    size_t len;
#ifdef __SIZEOF_INT128__
    char *end = exact_g(p, x, prec);
    if (end != NULL)
        return end;
#endif
    s = PyOS_double_to_string(x, 'g', prec, 0, NULL);
    if (s == NULL)
        return NULL;
    len = strlen(s);
    memcpy(p, s, len);
    PyMem_Free(s);
    return p + len;
}

static PyObject *format_rows(PyObject *self, PyObject *args)
{
    PyObject *data, *out = NULL;
    Py_buffer view;
    Py_ssize_t n, i;
    char *p, *start;

    (void)self;
    if (!PyArg_ParseTuple(args, "O:format_rows", &data))
        return NULL;
    if (PyObject_GetBuffer(data, &view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return NULL;
    if (view.format == NULL || strcmp(view.format, "d") != 0) {
        PyErr_SetString(PyExc_ValueError, "data must be a C-contiguous float64 buffer");
        goto done;
    }
    n = view.len / (Py_ssize_t)sizeof(double);
    if (n % NCOL != 0) {
        PyErr_Format(PyExc_ValueError, "data must hold whole rows of %d columns", NCOL);
        goto done;
    }
    if (n > (PY_SSIZE_T_MAX - 1) / ROW_FLOAT_MAX) {
        PyErr_NoMemory();
        goto done;
    }
    out = PyUnicode_New(n * ROW_FLOAT_MAX, 127);
    if (out == NULL || n == 0)
        goto done;
    start = p = (char *)PyUnicode_1BYTE_DATA(out);
    for (i = 0; i < n; i++) {
        p = write_g(p, ((const double *)view.buf)[i], 17);
        if (p == NULL) {
            Py_CLEAR(out);
            goto done;
        }
        *p++ = (i + 1) % NCOL ? ',' : '\n';
    }
    if (PyUnicode_Resize(&out, p - start) < 0)
        Py_CLEAR(out);

done:
    PyBuffer_Release(&view);
    return out;
}

static PyObject *format_vertices(PyObject *self, PyObject *args)
{
    PyObject *xso, *yso, *xs = NULL, *ys = NULL, *out = NULL;
    double sx, xlo, xhi, sy, ylo, yhi, ml, mt, pw, ph;
    Py_ssize_t n, i;
    char *p, *start;

    (void)self;
    if (!PyArg_ParseTuple(args, "OOdddddddddd:format_vertices", &xso, &yso, &sx, &xlo,
                          &xhi, &sy, &ylo, &yhi, &ml, &mt, &pw, &ph))
        return NULL;
    xs = PySequence_Fast(xso, "xs must be a sequence");
    if (xs == NULL)
        goto done;
    ys = PySequence_Fast(yso, "ys must be a sequence");
    if (ys == NULL)
        goto done;
    /* zip's length */
    n = PySequence_Fast_GET_SIZE(xs);
    if (PySequence_Fast_GET_SIZE(ys) < n)
        n = PySequence_Fast_GET_SIZE(ys);
    if (n > 0 && (xhi - xlo == 0.0 || yhi - ylo == 0.0)) {
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        goto done;
    }
    if (n > PY_SSIZE_T_MAX / VERTEX_MAX) {
        PyErr_NoMemory();
        goto done;
    }
    out = PyUnicode_New(n * VERTEX_MAX, 127);
    if (out == NULL || n == 0)
        goto done;
    start = p = (char *)PyUnicode_1BYTE_DATA(out);
    for (i = 0; i < n; i++) {
        double x = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(xs, i));
        double y, c[2];
        int k;
        if (x == -1.0 && PyErr_Occurred())
            goto fail;
        y = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(ys, i));
        if (y == -1.0 && PyErr_Occurred())
            goto fail;
        c[0] = ml + (x * sx - xlo) / (xhi - xlo) * pw;
        c[1] = mt + ph - (y * sy - ylo) / (yhi - ylo) * ph;
        if (i > 0)
            *p++ = ' ';
        for (k = 0; k < 2; k++) {
            p = write_g(p, c[k], 6);
            if (p == NULL)
                goto fail;
            if (k == 0)
                *p++ = ',';
        }
    }
    if (PyUnicode_Resize(&out, p - start) < 0)
        Py_CLEAR(out);
    goto done;

fail:
    Py_CLEAR(out);
done:
    Py_XDECREF(xs);
    Py_XDECREF(ys);
    return out;
}

static PyMethodDef methods[] = {
    {"run_closed_loop", run_closed_loop, METH_VARARGS,
     "Same contract as _kernel_py.run_closed_loop; see there."},
    {"format_rows", format_rows, METH_VARARGS,
     "Same contract as _kernel_py.format_rows; see there."},
    {"format_vertices", format_vertices, METH_VARARGS,
     "Same contract as _kernel_py.format_vertices; see there."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "outreg._kernel",
    .m_doc = "Compiled twin of outreg._kernel_py (bit-identical closed-loop RK4).",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
#ifdef __SIZEOF_INT128__
    int j;
    pow5[0] = 1;
    for (j = 1; j < 56; j++)
        pow5[j] = pow5[j - 1] * 5;
#endif
    return PyModule_Create(&module);
}
