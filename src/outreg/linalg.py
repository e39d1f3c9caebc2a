"""Small dense real-matrix arithmetic.

Everything downstream (companion matrices, Hankel estimators, the simulator)
works with matrices no larger than 8x8, so the kernel favours exactness and
auditability over speed: determinants come from partial-pivot LU, adjugates
from explicit cofactors, and there is no BLAS behind it.  All entries are
plain Python floats.
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


class Matrix:
    """Immutable real matrix, row-major storage.

    Construct from nested rows: ``Matrix([[1, 2], [3, 4]])``.  Entries must
    be finite.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_of_entries):
        rows = [list(map(float, r)) for r in rows_of_entries]
        if not rows or not rows[0]:
            raise ShapeError("matrix needs at least one row and one column")
        ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ShapeError("ragged rows: expected %d columns, got %d" % (ncols, len(r)))
        flat = tuple(x for r in rows for x in r)
        for x in flat:
            if not math.isfinite(x):
                raise ValueError("non-finite matrix entry %r" % x)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "data", flat)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

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


def identity(n: int) -> Matrix:
    return Matrix([[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)])


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix([[0.0] * cols for _ in range(rows)])


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ShapeError("cannot multiply %dx%d by %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    out = []
    for i in range(a.rows):
        arow = a.data[i * a.cols:(i + 1) * a.cols]
        orow = []
        for j in range(b.cols):
            s = 0.0
            for k in range(a.cols):
                s += arow[k] * b.data[k * b.cols + j]
            orow.append(s)
        out.append(orow)
    return Matrix(out)


def mat_vec(a: Matrix, v) -> list:
    if a.cols != len(v):
        raise ShapeError("cannot apply %dx%d to vector of length %d" % (a.rows, a.cols, len(v)))
    out = []
    for i in range(a.rows):
        s = 0.0
        for k in range(a.cols):
            s += a.data[i * a.cols + k] * v[k]
        out.append(s)
    return out


def scale(a: Matrix, c: float) -> Matrix:
    return Matrix([[c * x for x in a.row(i)] for i in range(a.rows)])


def sub(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != b.rows or a.cols != b.cols:
        raise ShapeError("cannot subtract %dx%d and %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    return Matrix([[x - y for x, y in zip(a.row(i), b.row(i))] for i in range(a.rows)])


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


def _lu_rows(a: Matrix):
    return [a.row(i) for i in range(a.rows)]


def determinant(a: Matrix) -> float:
    """Determinant via LU with partial pivoting."""
    if not a.is_square:
        raise ShapeError("determinant needs a square matrix, got %dx%d" % (a.rows, a.cols))
    n = a.rows
    m = _lu_rows(a)
    det = 1.0
    for col in range(n):
        piv = col
        best = abs(m[col][col])
        for r in range(col + 1, n):
            v = abs(m[r][col])
            if v > best:
                best = v
                piv = r
        if best == 0.0:
            return 0.0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        pivval = m[col][col]
        det *= pivval
        for r in range(col + 1, n):
            f = m[r][col] / pivval
            if f != 0.0:
                row = m[r]
                prow = m[col]
                for c in range(col + 1, n):
                    row[c] -= f * prow[c]
    return det


def _minor(a: Matrix, drop_row: int, drop_col: int) -> Matrix:
    return Matrix(
        [
            [a.at(i, j) for j in range(a.cols) if j != drop_col]
            for i in range(a.rows)
            if i != drop_row
        ]
    )


def adjugate(a: Matrix) -> Matrix:
    """Adjugate (transposed cofactor matrix): A . adj(A) = det(A) . I."""
    if not a.is_square:
        raise ShapeError("adjugate needs a square matrix, got %dx%d" % (a.rows, a.cols))
    n = a.rows
    if n == 1:
        return Matrix([[1.0]])
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = determinant(_minor(a, i, j))
            if (i + j) & 1:
                c = -c
            # transpose: cofactor (i, j) lands at (j, i)
            out[j][i] = c
    return Matrix(out)


def solve_linear(a: Matrix, b) -> list:
    """Solve A x = b by Gaussian elimination with partial pivoting.

    Refuses matrices whose pivot-ratio condition estimate exceeds 1e12.
    """
    if not a.is_square:
        raise ShapeError("solve needs a square matrix, got %dx%d" % (a.rows, a.cols))
    n = a.rows
    if len(b) != n:
        raise ShapeError("rhs length %d does not match %dx%d" % (len(b), n, n))
    m = _lu_rows(a)
    x = [float(v) for v in b]
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
        max_piv = max(max_piv, best)
        min_piv = min(min_piv, best)
        for r in range(col + 1, n):
            f = m[r][col] / pivval
            if f != 0.0:
                row = m[r]
                prow = m[col]
                for c in range(col + 1, n):
                    row[c] -= f * prow[c]
                x[r] -= f * x[col]
    cond = max_piv / min_piv
    if cond > _COND_LIMIT:
        raise SingularMatrixError(
            "numerically singular: pivot ratio %.3g exceeds %.0e" % (cond, _COND_LIMIT),
            condition=cond,
        )
    for i in range(n - 1, -1, -1):
        s = x[i]
        row = m[i]
        for j in range(i + 1, n):
            s -= row[j] * x[j]
        x[i] = s / row[i]
    return x


def transpose(a: Matrix) -> Matrix:
    return Matrix([[a.at(i, j) for i in range(a.rows)] for j in range(a.cols)])


def frobenius_norm(a: Matrix) -> float:
    return math.sqrt(sum(x * x for x in a.data))
