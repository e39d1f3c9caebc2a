"""Small dense real-matrix arithmetic.

Everything downstream (companion matrices, Hankel estimators, reference math)
works with matrices no larger than 8x8: determinants come from partial-pivot
LU, adjugates from explicit cofactors, and there is no BLAS behind it.  All
entries are plain Python floats.  The sizes the estimators use are written
out: determinants of 2 and 3 rows, adjugates of 2x2 to 4x4, products of
inner size 2 and 4, and the solves of n = 2, 3 and 4 (_solve2 to _solve4).
Each does the plain loop's floating-point operations in the loop's order,
so its results (and a solve's errors) are the same bits; the loops
(_det_rows, _adjugate_loop, _solve_loop) stay as the path for other sizes
and as the reference the tests compare against.

Every Matrix holds finite entries.  The public constructor checks its
input; results built here skip that check only where every entry is copied
from an already validated matrix (identity, zeros, transpose, row slices).
Results of arithmetic (products, scalings, differences, adjugates) are
still checked, since they can overflow.

The summation order lives in _dot: products added left to right from a
0.0 seed.  mat_vec, mat_mul's general case, frobenius_norm and the
package's other sums of products call it; the written-out products of
inner size 2 and 4 (and internal_model._times_companion) spell out the
same order, so results are the same bits on every interpreter.
"""

from __future__ import annotations

import math

from .record import Record


class ShapeError(ValueError):
    """Operand dimensions do not match the operation."""


class SingularMatrixError(ValueError):
    """Linear solve hit a (numerically) singular matrix.

    Carries the pivot-ratio condition estimate in ``condition``.
    """

    def __init__(self, message, condition=math.inf):
        super().__init__(message)
        self.condition = condition


# pivot ratio max|p|/min|p| above which solve_linear refuses to answer
_COND_LIMIT = 1e12

_EMPTY = "matrix needs at least one row and one column"


class Matrix(Record):
    """Immutable real matrix, row-major storage.

    Construct from nested rows: ``Matrix([[1, 2], [3, 4]])``.  Entries must
    be finite.
    """

    _fields = ("rows", "cols", "data")

    def __init__(self, rows_of_entries):
        rows = [list(map(float, r)) for r in rows_of_entries]
        if not rows or not rows[0]:
            raise ShapeError(_EMPTY)
        ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ShapeError("ragged rows: expected %d columns, got %d" % (ncols, len(r)))
        flat = _require_finite(tuple(x for r in rows for x in r))
        self.__dict__.update(rows=len(rows), cols=ncols, data=flat)

    @classmethod
    def _of(cls, rows, cols, flat):
        """Wrap a flat row-major tuple of floats already known to be finite."""
        m = object.__new__(cls)
        d = m.__dict__
        d["rows"], d["cols"], d["data"] = rows, cols, flat
        return m

    def at(self, i, j):
        """Entry in row i, column j (0-based)."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("index (%d, %d) outside %dx%d" % (i, j, self.rows, self.cols))
        return self.data[i * self.cols + j]

    def row(self, i):
        return list(self.data[i * self.cols:(i + 1) * self.cols])

    def to_lists(self):
        return [self.row(i) for i in range(self.rows)]

    @property
    def is_square(self):
        return self.rows == self.cols

    def __repr__(self):
        return "Matrix(%r)" % (self.to_lists(),)


def _require_finite(flat: tuple) -> tuple:
    if not all(map(math.isfinite, flat)):
        bad = next(x for x in flat if not math.isfinite(x))
        raise ValueError("non-finite matrix entry %r" % bad)
    return flat


def _checked(rows: int, cols: int, flat: tuple) -> Matrix:
    """Matrix over arithmetic results, which must still be finite."""
    return Matrix._of(rows, cols, _require_finite(flat))


def _row_slices(a: Matrix) -> list:
    n = a.cols
    d = a.data
    return [d[i:i + n] for i in range(0, a.rows * n, n)]


def identity(n: int) -> Matrix:
    if n < 1:
        raise ShapeError(_EMPTY)
    flat = [0.0] * (n * n)
    flat[::n + 1] = [1.0] * n
    return Matrix._of(n, n, tuple(flat))


def zeros(rows: int, cols: int) -> Matrix:
    if rows < 1 or cols < 1:
        raise ShapeError(_EMPTY)
    return Matrix._of(rows, cols, (0.0,) * (rows * cols))


def _dot(row, vec) -> float:
    """Sum of the products x * y over row and vec, added left to right from
    0.0: the one summation order every sum of products here follows.  A
    plain loop, because builtin sum() over floats is compensated on CPython
    3.12 and later, so its bits would depend on the interpreter."""
    s = 0.0
    for x, y in zip(row, vec):
        s += x * y
    return s


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ShapeError("cannot multiply %dx%d by %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    bcols = [b.data[j::b.cols] for j in range(b.cols)]
    out = []
    # inner sizes 2 and 4 written out: Python adds left to right from the
    # 0.0 seed, which is _dot's order, so the bits are _dot's
    if a.cols == 2:
        for x0, x1 in _row_slices(a):
            for y0, y1 in bcols:
                out.append(0.0 + x0 * y0 + x1 * y1)
    elif a.cols == 4:
        for x0, x1, x2, x3 in _row_slices(a):
            for y0, y1, y2, y3 in bcols:
                out.append(0.0 + x0 * y0 + x1 * y1 + x2 * y2 + x3 * y3)
    else:
        out = [_dot(arow, bcol) for arow in _row_slices(a) for bcol in bcols]
    return _checked(a.rows, b.cols, tuple(out))


def mat_vec(a: Matrix, v) -> list:
    if a.cols != len(v):
        raise ShapeError("cannot apply %dx%d to vector of length %d" % (a.rows, a.cols, len(v)))
    return [_dot(arow, v) for arow in _row_slices(a)]


def scale(a: Matrix, c: float) -> Matrix:
    c = float(c)
    return _checked(a.rows, a.cols, tuple([c * x for x in a.data]))


def sub(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != b.rows or a.cols != b.cols:
        raise ShapeError("cannot subtract %dx%d and %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    return _checked(a.rows, a.cols, tuple([x - y for x, y in zip(a.data, b.data)]))


def mat_pow(a: Matrix, k: int) -> Matrix:
    """A**k by repeated squaring; A**0 is the identity."""
    if not a.is_square:
        raise ShapeError("matrix power needs a square matrix, got %dx%d" % (a.rows, a.cols))
    if k < 0 or k != int(k):
        raise ValueError("exponent must be a nonnegative integer, got %r" % (k,))
    k = int(k)
    if not k:
        return identity(a.rows)
    base = a
    while not k & 1:
        base = mat_mul(base, base)
        k >>= 1
    # the first power needed, as mat_mul(identity, base) gives it: every
    # other term of an entry's sum is a signed zero, so the entry is 0.0 + x
    result = Matrix._of(a.rows, a.cols, tuple([0.0 + x for x in base.data]))
    k >>= 1
    while k:
        base = mat_mul(base, base)
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
    return result


def _det_rows(m: list) -> float:
    """Determinant of the square matrix whose rows are the sequences in m,
    by LU with partial pivoting.

    Each elimination step keeps only the columns right of the pivot, so
    rows are sliced, never written; m itself is reordered.
    """
    det = 1.0
    while len(m) > 2:
        piv = 0
        best = abs(m[0][0])
        for r in range(1, len(m)):
            v = abs(m[r][0])
            if v > best:
                best = v
                piv = r
        if best == 0.0:
            return 0.0
        if piv:
            m[0], m[piv] = m[piv], m[0]
            det = -det
        prow = m[0]
        pivval = prow[0]
        det *= pivval
        ptail = prow[1:]
        rest = []
        for row in m[1:]:
            f = row[0] / pivval
            if f != 0.0:
                rest.append([x - f * y for x, y in zip(row[1:], ptail)])
            else:
                rest.append(row[1:])
        m = rest
    if len(m) == 1:
        last = m[0][0]
        return 0.0 if last == 0.0 else det * last
    (a, b), (c, d) = m
    return _det2(a, b, c, d, det)


def _det2(a, b, c, d, det=1.0):
    """The last two columns of _det_rows's elimination, over rows (a, b) and
    (c, d), written out; with det = 1.0 it is _det_rows of those two rows."""
    if abs(c) > abs(a):
        a, b, c, d = c, d, a, b
        det = -det
    if a == 0.0:
        return 0.0
    det *= a
    f = c / a
    if f != 0.0:
        d -= f * b
    return 0.0 if d == 0.0 else det * d


def _det3(r0, r1, r2):
    """_det_rows of three rows, written out: the same pivot (the first row of
    largest |entry|), the same skipped zero factors and the same products."""
    v0 = abs(r0[0])
    v1 = abs(r1[0])
    # a swap puts the pivot row first and the displaced row where it was
    if v1 > v0:
        p, q, s, det = (r2, r1, r0, -1.0) if abs(r2[0]) > v1 else (r1, r0, r2, -1.0)
    elif abs(r2[0]) > v0:
        p, q, s, det = r2, r1, r0, -1.0
    elif v0 == 0.0:
        return 0.0
    else:
        p, q, s, det = r0, r1, r2, 1.0
    pivval, p1, p2 = p
    det *= pivval
    q0, q1, q2 = q
    s0, s1, s2 = s
    f = q0 / pivval
    if f != 0.0:
        q1 -= f * p1
        q2 -= f * p2
    f = s0 / pivval
    if f != 0.0:
        s1 -= f * p1
        s2 -= f * p2
    return _det2(q1, q2, s1, s2, det)


def determinant(a: Matrix) -> float:
    """Determinant via LU with partial pivoting."""
    if not a.is_square:
        raise ShapeError("determinant needs a square matrix, got %dx%d" % (a.rows, a.cols))
    if a.rows == 2:
        return _det2(*a.data)
    if a.rows == 3:
        return _det3(*_row_slices(a))
    return _det_rows(_row_slices(a))


def adjugate(a: Matrix) -> Matrix:
    """Adjugate (transposed cofactor matrix): A . adj(A) = det(A) . I.

    For n = 2, 3 and 4 the cofactors are written out; they are the same
    bits as the plain loop, _adjugate_loop.
    """
    if not a.is_square:
        raise ShapeError("adjugate needs a square matrix, got %dx%d" % (a.rows, a.cols))
    n = a.rows
    if n == 1:
        return Matrix._of(1, 1, (1.0,))
    # out is row-major, entry (j, i) the cofactor (i, j), as in the loop
    if n == 2:
        # each cofactor is _det_rows of one entry x: 0.0 if x == 0.0 else x
        p, q, r, s = a.data
        out = (0.0 if s == 0.0 else s, -(0.0 if q == 0.0 else q),
               -(0.0 if r == 0.0 else r), 0.0 if p == 0.0 else p)
    elif n == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = _row_slices(a)
        out = (_det2(b1, b2, c1, c2), -_det2(a1, a2, c1, c2), _det2(a1, a2, b1, b2),
               -_det2(b0, b2, c0, c2), _det2(a0, a2, c0, c2), -_det2(a0, a2, b0, b2),
               _det2(b0, b1, c0, c1), -_det2(a0, a1, c0, c1), _det2(a0, a1, b0, b1))
    elif n == 4:
        # row k without column j is cut once, as the j-th entry of row k's cuts
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = [
            (r[1:], r[:1] + r[2:], r[:2] + r[3:], r[:3]) for r in _row_slices(a)]
        out = (_det3(b0, c0, d0), -_det3(a0, c0, d0), _det3(a0, b0, d0), -_det3(a0, b0, c0),
               -_det3(b1, c1, d1), _det3(a1, c1, d1), -_det3(a1, b1, d1), _det3(a1, b1, c1),
               _det3(b2, c2, d2), -_det3(a2, c2, d2), _det3(a2, b2, d2), -_det3(a2, b2, c2),
               -_det3(b3, c3, d3), _det3(a3, c3, d3), -_det3(a3, b3, d3), _det3(a3, b3, c3))
    else:
        out = _adjugate_loop(_row_slices(a))
    return _checked(n, n, out)


def _adjugate_loop(rows: list) -> tuple:
    """The plain cofactor loop over the rows of a square matrix, n >= 2: the
    path for n >= 5 and the reference the written-out cofactors are tested
    against."""
    n = len(rows)
    out = [0.0] * (n * n)
    for i in range(n):
        others = rows[:i] + rows[i + 1:]
        for j in range(n):
            c = _det_rows([r[:j] + r[j + 1:] for r in others])
            if (i + j) & 1:
                c = -c
            # transpose: cofactor (i, j) lands at (j, i)
            out[j * n + i] = c
    return tuple(out)


def solve_linear(a: Matrix, b) -> list:
    """Solve A x = b by Gaussian elimination with partial pivoting.

    Refuses matrices whose pivot-ratio condition estimate exceeds 1e12.
    """
    return solve_columns(a, [b])[0]


def solve_columns(a: Matrix, bs) -> list:
    """Solve A x = b for every right-hand side b in bs, from one elimination.

    Returns the solutions in the order of bs.  Each column goes through the
    same operations, in the same order, as it would alone, so every solution
    is the same bits as solve_linear's; errors are solve_linear's too.
    """
    if not a.is_square:
        raise ShapeError("solve needs a square matrix, got %dx%d" % (a.rows, a.cols))
    n = a.rows
    for b in bs:
        if len(b) != n:
            raise ShapeError("rhs length %d does not match %dx%d" % (len(b), n, n))
    if 2 <= n <= 4:
        return _SOLVES[n](_row_slices(a), [tuple(map(float, b)) for b in bs])
    return _solve_loop(_row_slices(a), bs)


def _refuse_ill_conditioned(max_piv, min_piv):
    cond = max_piv / min_piv
    if cond > _COND_LIMIT:
        raise SingularMatrixError(
            "numerically singular: pivot ratio %.3g exceeds %.0e" % (cond, _COND_LIMIT),
            condition=cond,
        )


def _solve_loop(rows: list, bs) -> list:
    """Gaussian elimination with partial pivoting over the rows of a square
    matrix, for right-hand sides of matching length: the path for n = 1 and
    n >= 5 and the reference the written-out solves are tested against."""
    n = len(rows)
    m = [list(r) for r in rows]
    # x[r] holds row r of every right-hand side
    x = [[float(b[r]) for b in bs] for r in range(n)]
    max_piv = 0.0
    min_piv = math.inf
    for col in range(n):
        piv = col
        best = abs(m[col][col])
        for r in range(col + 1, n):
            v = abs(m[r][col])
            if v > best:
                best = v
                piv = r
        if best == 0.0:
            raise SingularMatrixError("exactly singular at column %d" % col)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            x[col], x[piv] = x[piv], x[col]
        pivval = m[col][col]
        if best > max_piv:
            max_piv = best
        if best < min_piv:
            min_piv = best
        ptail = m[col][col + 1:]
        xcol = x[col]
        for r in range(col + 1, n):
            f = m[r][col] / pivval
            if f != 0.0:
                row = m[r]
                row[col + 1:] = [y - f * p for y, p in zip(row[col + 1:], ptail)]
                x[r] = [y - f * p for y, p in zip(x[r], xcol)]
    _refuse_ill_conditioned(max_piv, min_piv)
    for i in range(n - 1, -1, -1):
        s = x[i]
        row = m[i]
        for r, y in zip(row[i + 1:], x[i + 1:]):
            s = [sj - r * yj for sj, yj in zip(s, y)]
        pivval = row[i]
        x[i] = [sj / pivval for sj in s]
    return [list(col) for col in zip(*x)]


# The written-out solves below are _solve_loop for n = 2, 3 and 4.  Rows
# sit at positions a, b, c, d; a pivot swap trades a row's entries, its
# multipliers and its input index i with the pivot row's.  A pivot is the
# first row of largest |entry|, a zero multiplier skips its row, and the
# pivot ratio is max/min over |pivot| as the loop's running max and min
# take it.  Each right-hand side x is then read in pivot order and takes the
# loop's updates in the loop's order, so every result is the same bits.

def _solve2(rows, xs):
    (a0, a1), (b0, b1) = rows
    i0, i1 = 0, 1
    if abs(b0) > abs(a0):
        a0, a1, i0, b0, b1, i1 = b0, b1, i1, a0, a1, i0
    if a0 == 0.0:
        raise SingularMatrixError("exactly singular at column 0")
    fb = b0 / a0
    if fb != 0.0:
        b1 -= fb * a1
    if b1 == 0.0:
        raise SingularMatrixError("exactly singular at column 1")
    _refuse_ill_conditioned(max(abs(a0), abs(b1)), min(abs(a0), abs(b1)))
    out = []
    for x in xs:
        y0, y1 = x[i0], x[i1]
        if fb != 0.0:
            y1 -= fb * y0
        y1 /= b1
        out.append([(y0 - a1 * y1) / a0, y1])
    return out


def _solve3(rows, xs):
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    i0, i1, i2 = 0, 1, 2
    if abs(b0) > abs(a0):
        if abs(c0) > abs(b0):
            a0, a1, a2, i0, c0, c1, c2, i2 = c0, c1, c2, i2, a0, a1, a2, i0
        else:
            a0, a1, a2, i0, b0, b1, b2, i1 = b0, b1, b2, i1, a0, a1, a2, i0
    elif abs(c0) > abs(a0):
        a0, a1, a2, i0, c0, c1, c2, i2 = c0, c1, c2, i2, a0, a1, a2, i0
    if a0 == 0.0:
        raise SingularMatrixError("exactly singular at column 0")
    fb = b0 / a0
    if fb != 0.0:
        b1 -= fb * a1
        b2 -= fb * a2
    fc = c0 / a0
    if fc != 0.0:
        c1 -= fc * a1
        c2 -= fc * a2
    if abs(c1) > abs(b1):
        b1, b2, fb, i1, c1, c2, fc, i2 = c1, c2, fc, i2, b1, b2, fb, i1
    if b1 == 0.0:
        raise SingularMatrixError("exactly singular at column 1")
    gc = c1 / b1
    if gc != 0.0:
        c2 -= gc * b2
    if c2 == 0.0:
        raise SingularMatrixError("exactly singular at column 2")
    piv = (abs(a0), abs(b1), abs(c2))
    _refuse_ill_conditioned(max(piv), min(piv))
    out = []
    for x in xs:
        y0, y1, y2 = x[i0], x[i1], x[i2]
        if fb != 0.0:
            y1 -= fb * y0
        if fc != 0.0:
            y2 -= fc * y0
        if gc != 0.0:
            y2 -= gc * y1
        y2 /= c2
        y1 = (y1 - b2 * y2) / b1
        out.append([((y0 - a1 * y1) - a2 * y2) / a0, y1, y2])
    return out


def _solve4(rows, xs):
    ra, rb, rc, rd = rows
    i0, i1, i2, i3 = 0, 1, 2, 3
    k, best = 0, abs(ra[0])
    if abs(rb[0]) > best:
        k, best = 1, abs(rb[0])
    if abs(rc[0]) > best:
        k, best = 2, abs(rc[0])
    if abs(rd[0]) > best:
        k = 3
    if k == 1:
        ra, i0, rb, i1 = rb, i1, ra, i0
    elif k == 2:
        ra, i0, rc, i2 = rc, i2, ra, i0
    elif k == 3:
        ra, i0, rd, i3 = rd, i3, ra, i0
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = ra, rb, rc, rd
    if a0 == 0.0:
        raise SingularMatrixError("exactly singular at column 0")
    fb = b0 / a0
    if fb != 0.0:
        b1 -= fb * a1
        b2 -= fb * a2
        b3 -= fb * a3
    fc = c0 / a0
    if fc != 0.0:
        c1 -= fc * a1
        c2 -= fc * a2
        c3 -= fc * a3
    fd = d0 / a0
    if fd != 0.0:
        d1 -= fd * a1
        d2 -= fd * a2
        d3 -= fd * a3
    k, best = 1, abs(b1)
    if abs(c1) > best:
        k, best = 2, abs(c1)
    if abs(d1) > best:
        k = 3
    if k == 2:
        b1, b2, b3, fb, i1, c1, c2, c3, fc, i2 = c1, c2, c3, fc, i2, b1, b2, b3, fb, i1
    elif k == 3:
        b1, b2, b3, fb, i1, d1, d2, d3, fd, i3 = d1, d2, d3, fd, i3, b1, b2, b3, fb, i1
    if b1 == 0.0:
        raise SingularMatrixError("exactly singular at column 1")
    gc = c1 / b1
    if gc != 0.0:
        c2 -= gc * b2
        c3 -= gc * b3
    gd = d1 / b1
    if gd != 0.0:
        d2 -= gd * b2
        d3 -= gd * b3
    if abs(d2) > abs(c2):
        c2, c3, fc, gc, i2, d2, d3, fd, gd, i3 = d2, d3, fd, gd, i3, c2, c3, fc, gc, i2
    if c2 == 0.0:
        raise SingularMatrixError("exactly singular at column 2")
    hd = d2 / c2
    if hd != 0.0:
        d3 -= hd * c3
    if d3 == 0.0:
        raise SingularMatrixError("exactly singular at column 3")
    piv = (abs(a0), abs(b1), abs(c2), abs(d3))
    _refuse_ill_conditioned(max(piv), min(piv))
    out = []
    for x in xs:
        y0, y1, y2, y3 = x[i0], x[i1], x[i2], x[i3]
        if fb != 0.0:
            y1 -= fb * y0
        if fc != 0.0:
            y2 -= fc * y0
        if fd != 0.0:
            y3 -= fd * y0
        if gc != 0.0:
            y2 -= gc * y1
        if gd != 0.0:
            y3 -= gd * y1
        if hd != 0.0:
            y3 -= hd * y2
        y3 /= d3
        y2 = (y2 - c3 * y3) / c2
        y1 = ((y1 - b2 * y2) - b3 * y3) / b1
        out.append([(((y0 - a1 * y1) - a2 * y2) - a3 * y3) / a0, y1, y2, y3])
    return out


_SOLVES = {2: _solve2, 3: _solve3, 4: _solve4}


def transpose(a: Matrix) -> Matrix:
    c = a.cols
    return Matrix._of(c, a.rows, tuple(x for j in range(c) for x in a.data[j::c]))


def frobenius_norm(a: Matrix) -> float:
    return math.sqrt(_dot(a.data, a.data))
