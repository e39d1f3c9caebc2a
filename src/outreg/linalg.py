"""Small dense real-matrix arithmetic.

Everything downstream (companion matrices, Hankel estimators, the simulator)
works with matrices no larger than 8x8, so the kernel favours exactness and
auditability over speed: determinants come from partial-pivot LU, adjugates
from explicit cofactors, and there is no BLAS behind it.  All entries are
plain Python floats.

Every Matrix holds finite entries.  The public constructor checks its
input; results built here skip that check only where every entry is copied
from an already validated matrix (identity, zeros, transpose, row slices).
Results of arithmetic (products, scalings, differences, adjugates) are
still checked, since they can overflow.  Each sum keeps its 0.0 seed and
its summation order, so results are the same bits as the plain loops.
"""

from __future__ import annotations

import math


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


class Matrix:
    """Immutable real matrix, row-major storage.

    Construct from nested rows: ``Matrix([[1, 2], [3, 4]])``.  Entries must
    be finite.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_of_entries):
        rows = [list(map(float, r)) for r in rows_of_entries]
        if not rows or not rows[0]:
            raise ShapeError(_EMPTY)
        ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ShapeError("ragged rows: expected %d columns, got %d" % (ncols, len(r)))
        flat = _require_finite(tuple(x for r in rows for x in r))
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "data", flat)

    @classmethod
    def _of(cls, rows, cols, flat):
        """Wrap a flat row-major tuple of floats already known to be finite."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "data", flat)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        # unpickling would set the slots through __setattr__, which refuses
        return (Matrix._of, (self.rows, self.cols, self.data))

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

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ShapeError("cannot multiply %dx%d by %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    bcols = [b.data[j::b.cols] for j in range(b.cols)]
    out = []
    for arow in _row_slices(a):
        for bcol in bcols:
            s = 0.0
            for x, y in zip(arow, bcol):
                s += x * y
            out.append(s)
    return _checked(a.rows, b.cols, tuple(out))


def mat_vec(a: Matrix, v) -> list:
    if a.cols != len(v):
        raise ShapeError("cannot apply %dx%d to vector of length %d" % (a.rows, a.cols, len(v)))
    out = []
    for arow in _row_slices(a):
        s = 0.0
        for x, y in zip(arow, v):
            s += x * y
        out.append(s)
    return out


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
    result = identity(a.rows)
    base = a
    k = int(k)
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
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
    # the last two columns of the same elimination, written out
    (a, b), (c, d) = m
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


def determinant(a: Matrix) -> float:
    """Determinant via LU with partial pivoting."""
    if not a.is_square:
        raise ShapeError("determinant needs a square matrix, got %dx%d" % (a.rows, a.cols))
    return _det_rows(_row_slices(a))


def adjugate(a: Matrix) -> Matrix:
    """Adjugate (transposed cofactor matrix): A . adj(A) = det(A) . I."""
    if not a.is_square:
        raise ShapeError("adjugate needs a square matrix, got %dx%d" % (a.rows, a.cols))
    n = a.rows
    if n == 1:
        return Matrix._of(1, 1, (1.0,))
    rows = _row_slices(a)
    out = [0.0] * (n * n)
    for i in range(n):
        others = rows[:i] + rows[i + 1:]
        for j in range(n):
            c = _det_rows([r[:j] + r[j + 1:] for r in others])
            if (i + j) & 1:
                c = -c
            # transpose: cofactor (i, j) lands at (j, i)
            out[j * n + i] = c
    return _checked(n, n, tuple(out))


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
    m = [list(r) for r in _row_slices(a)]
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
    cond = max_piv / min_piv
    if cond > _COND_LIMIT:
        raise SingularMatrixError(
            "numerically singular: pivot ratio %.3g exceeds %.0e" % (cond, _COND_LIMIT),
            condition=cond,
        )
    for i in range(n - 1, -1, -1):
        s = x[i]
        row = m[i]
        for r, y in zip(row[i + 1:], x[i + 1:]):
            s = [sj - r * yj for sj, yj in zip(s, y)]
        pivval = row[i]
        x[i] = [sj / pivval for sj in s]
    return [list(col) for col in zip(*x)]


def transpose(a: Matrix) -> Matrix:
    c = a.cols
    return Matrix._of(c, a.rows, tuple(x for j in range(c) for x in a.data[j::c]))


def frobenius_norm(a: Matrix) -> float:
    return math.sqrt(sum(x * x for x in a.data))
