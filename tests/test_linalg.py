import hashlib
import math
import pickle
import random
import struct

import numpy as np
import pytest

from outreg import linalg
from outreg.linalg import (
    Matrix,
    ShapeError,
    SingularMatrixError,
    adjugate,
    determinant,
    frobenius_norm,
    identity,
    mat_mul,
    mat_pow,
    mat_vec,
    scale,
    solve_columns,
    solve_linear,
    sub,
    transpose,
    zeros,
)


def rand_matrix(rng, n, lo=-5.0, hi=5.0):
    return Matrix([[rng.uniform(lo, hi) for _ in range(n)] for _ in range(n)])


def test_construction_rejects_ragged_and_nonfinite():
    with pytest.raises(ShapeError):
        Matrix([[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError):
        Matrix([[1.0, float("nan")]])
    with pytest.raises(ValueError):
        Matrix([[float("inf")]])
    with pytest.raises(ShapeError):
        Matrix([])


def test_matrix_survives_pickling():
    a = Matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    back = pickle.loads(pickle.dumps(a))
    assert back == a and (back.rows, back.cols) == (2, 3)
    with pytest.raises(AttributeError):
        back.rows = 3


def test_mat_pow_examples():
    a = Matrix([[0.0, 1.0], [-0.25, 0.0]])
    a2 = mat_pow(a, 2)
    assert a2.to_lists() == [[-0.25, 0.0], [0.0, -0.25]]
    a4 = mat_pow(a, 4)
    assert a4.to_lists() == [[0.0625, 0.0], [0.0, 0.0625]]
    assert mat_pow(a, 0) == identity(2)


def test_mat_pow_rejects_nonsquare_and_negative():
    with pytest.raises(ShapeError):
        mat_pow(Matrix([[1.0, 2.0]]), 2)
    with pytest.raises(ValueError):
        mat_pow(identity(2), -1)


def test_mat_pow_additivity():
    # A^(j+k) = A^j A^k; entries up to 5 and powers to 8 reach ~5^8, so the
    # comparison has to be relative to the magnitude involved
    rng = random.Random(20240811)
    for _ in range(50):
        n = rng.randint(2, 5)
        a = rand_matrix(rng, n)
        j = rng.randint(0, 4)
        k = rng.randint(0, 4)
        lhs = mat_pow(a, j + k)
        rhs = mat_mul(mat_pow(a, j), mat_pow(a, k))
        scale_ref = max(1.0, frobenius_norm(lhs))
        err = frobenius_norm(sub(lhs, rhs))
        assert err <= 1e-9 * scale_ref


def test_determinant_examples():
    assert determinant(Matrix([[1.0, 2.0], [2.0, 3.0]])) == -1.0
    assert determinant(identity(5)) == 1.0
    assert determinant(Matrix([[2.0, 0.0], [0.0, 2.0]])) == 4.0


def test_determinant_matches_numpy():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        a = rand_matrix(rng, n)
        ref = float(np.linalg.det(np.array(a.to_lists())))
        assert determinant(a) == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_determinant_row_swap_flips_sign():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 6)
        a = rand_matrix(rng, n)
        i, j = rng.sample(range(n), 2)
        rows = a.to_lists()
        rows[i], rows[j] = rows[j], rows[i]
        swapped = Matrix(rows)
        assert determinant(swapped) == pytest.approx(-determinant(a), rel=1e-9, abs=1e-12)


def test_adjugate_examples():
    assert adjugate(Matrix([[1.0, 2.0], [2.0, 3.0]])).to_lists() == [[3.0, -2.0], [-2.0, 1.0]]
    assert adjugate(identity(3)) == identity(3)
    assert adjugate(Matrix([[2.0, 0.0], [0.0, 3.0]])).to_lists() == [[3.0, 0.0], [0.0, 2.0]]
    assert adjugate(Matrix([[7.0]])).to_lists() == [[1.0]]


def test_adjugate_identity_random():
    # A adj(A) = det(A) I, including singular A where both sides vanish
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 6)
        a = rand_matrix(rng, n)
        d = determinant(a)
        if abs(d) <= 1e-6:
            continue
        prod = mat_mul(a, adjugate(a))
        for i in range(n):
            for j in range(n):
                want = d if i == j else 0.0
                assert prod.at(i, j) == pytest.approx(want, rel=1e-9, abs=1e-9 * max(1.0, abs(d)))


def test_adjugate_of_singular_matrix_is_finite():
    a = Matrix([[1.0, 2.0], [2.0, 4.0]])
    adj = adjugate(a)
    assert all(math.isfinite(x) for x in adj.data)


def _plain_mat_mul(a, b):
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            s = 0.0
            for k in range(a.cols):
                s += a.at(i, k) * b.at(k, j)
            out.append(s)
    return tuple(out)


def test_written_out_paths_equal_the_plain_loops_bit_for_bit():
    # determinants of 2 and 3 rows, adjugates of n = 2, 3, 4 and products of
    # inner size 2 and 4 are written out; n = 1 and 5 take the loops
    rng = random.Random(23)
    pool = (0.0, -0.0, 1.0, -1.0, 0.5, -0.5)
    for trial in range(3000):
        n = 1 + trial % 5
        kind = trial // 5 % 4
        rows = [[rng.choice(pool) if kind else rng.uniform(-3.0, 3.0) for _ in range(n)]
                for _ in range(n)]
        if kind == 2 and n > 1:
            rows[rng.randrange(1, n)] = list(rows[0])
        if kind == 3:
            for r in rows:
                r[0] = rng.choice((0.0, -0.0))
        a = Matrix(rows)
        slices = linalg._row_slices(a)
        assert repr(determinant(a)) == repr(linalg._det_rows(list(slices))), a
        if n > 1:
            assert repr(adjugate(a).data) == repr(linalg._adjugate_loop(slices)), a
        cols = rng.randint(1, 5)
        b = Matrix([[rng.choice(pool) if kind else rng.uniform(-3.0, 3.0)
                     for _ in range(cols)] for _ in range(n)])
        assert repr(mat_mul(a, b).data) == repr(_plain_mat_mul(a, b)), (a, b)


def test_solve_examples():
    assert solve_linear(identity(2), [1.0, 2.0]) == [1.0, 2.0]
    assert solve_linear(Matrix([[2.0, 0.0], [0.0, 2.0]]), [2.0, 4.0]) == [1.0, 2.0]
    # inverse of [[0,1],[-0.25,0]] is [[0,-4],[1,0]]; applied to e1 that
    # picks out the first column (0, 1)
    x = solve_linear(Matrix([[0.0, 1.0], [-0.25, 0.0]]), [1.0, 0.0])
    assert x == pytest.approx([0.0, 1.0], abs=1e-14)


def test_solve_residual_random():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 6)
        a = rand_matrix(rng, n)
        if abs(determinant(a)) < 1e-3:
            continue
        b = [rng.uniform(-5, 5) for _ in range(n)]
        try:
            x = solve_linear(a, b)
        except SingularMatrixError:
            continue
        r = [sum(a.at(i, k) * x[k] for k in range(n)) - b[i] for i in range(n)]
        bn = math.sqrt(sum(v * v for v in b))
        assert math.sqrt(sum(v * v for v in r)) <= 1e-10 * (1.0 + bn)


def test_solve_rejects_singular():
    with pytest.raises(SingularMatrixError):
        solve_linear(Matrix([[1.0, 2.0], [2.0, 4.0]]), [1.0, 1.0])
    err = None
    try:
        solve_linear(Matrix([[1.0, 1.0], [1.0, 1.0 + 1e-14]]), [1.0, 1.0])
    except SingularMatrixError as e:
        err = e
    assert err is not None
    assert err.condition > 1e12


def _systems(rng):
    """Seeded random, duplicated-row, signed-zero and near-singular systems,
    each with one to four right-hand sides."""
    for trial in range(600):
        n = 1 + trial % 6
        kind = trial % 4
        if kind == 2:
            rows = [[rng.choice((0.0, -0.0, 1.0, -1.0, 2.5)) for _ in range(n)]
                    for _ in range(n)]
        else:
            rows = [[rng.uniform(-3.0, 3.0) for _ in range(n)] for _ in range(n)]
        if kind == 1 and n > 1:
            rows[-1] = list(rows[0])  # duplicated row: exactly singular
        elif kind == 3 and n > 1:
            rows[-1] = [x + rng.uniform(-1e-13, 1e-13) for x in rows[0]]
        bs = [[rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0))) for _ in range(n)]
              for _ in range(1 + trial % 4)]
        yield Matrix(rows), bs


def test_solve_columns_equals_solve_linear_bits():
    solved = refused = 0
    for a, bs in _systems(random.Random(31)):
        try:
            want = [solve_linear(a, b) for b in bs]
        except SingularMatrixError as exc:
            with pytest.raises(SingularMatrixError) as info:
                solve_columns(a, bs)
            assert str(info.value) == str(exc)
            assert repr(info.value.condition) == repr(exc.condition)
            refused += 1
            continue
        # repr tells -0.0 from 0.0
        assert repr(solve_columns(a, bs)) == repr(want)
        solved += 1
    assert solved > 200 and refused > 200


def _outcome(solve, a, bs):
    """repr of solve(a, bs), or its error's type, message and condition."""
    try:
        return repr(solve(a, bs))
    except SingularMatrixError as exc:
        return type(exc), str(exc), repr(exc.condition)


def test_written_out_solves_equal_the_loop_bit_for_bit():
    # solve_columns writes out n = 2, 3, 4; _solve_loop is the reference.
    # Pooled entries tie pivots and carry signed zeros; a duplicated row or
    # a zero column is exactly singular, a row scaled by 1e-13 pushes the
    # pivot ratio past 1e12
    rng = random.Random(24)
    pool = (0.0, -0.0, 1.0, -1.0, 0.5, -2.5)
    seen = set()
    for trial in range(6000):
        n = 2 + trial % 3
        kind = trial // 3 % 5
        rows = [[rng.choice(pool) if kind == 1 else rng.uniform(-3.0, 3.0) for _ in range(n)]
                for _ in range(n)]
        if kind == 2:
            i, j = rng.sample(range(n), 2)
            rows[i] = list(rows[j])
        elif kind == 3:
            col = rng.randrange(n)
            for r in rows:
                r[col] = rng.choice((0.0, -0.0))
        elif kind == 4:
            i = rng.randrange(n)
            rows[i] = [x * 1e-13 for x in rows[i]]
        bs = [[rng.choice(pool + (rng.uniform(-3.0, 3.0),)) for _ in range(n)]
              for _ in range(trial % 6)]
        a = Matrix(rows)
        got = _outcome(solve_columns, a, bs)
        assert got == _outcome(lambda a, bs: linalg._solve_loop(linalg._row_slices(a), bs),
                               a, bs), (rows, bs)
        seen.add(got[1].split(":")[0] if type(got) is tuple else "solved")
    assert seen == {"solved", "numerically singular", "exactly singular at column 0",
                    "exactly singular at column 1", "exactly singular at column 2",
                    "exactly singular at column 3"}


def test_solve_columns_shapes():
    assert solve_columns(identity(3), []) == []
    with pytest.raises(ShapeError):
        solve_columns(Matrix([[1.0, 2.0]]), [[1.0]])
    with pytest.raises(ShapeError):
        solve_columns(identity(2), [[1.0, 2.0], [1.0]])


def test_shape_errors():
    rect = Matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(ShapeError):
        determinant(rect)
    with pytest.raises(ShapeError):
        adjugate(rect)
    with pytest.raises(ShapeError):
        solve_linear(rect, [1.0, 2.0])
    with pytest.raises(ShapeError):
        solve_linear(identity(2), [1.0, 2.0, 3.0])
    with pytest.raises(ShapeError):
        mat_mul(identity(2), identity(3))
    with pytest.raises(ShapeError):
        mat_vec(identity(2), [1.0])


def test_helpers():
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert transpose(a).to_lists() == [[1.0, 3.0], [2.0, 4.0]]
    assert zeros(2, 3).to_lists() == [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    assert mat_vec(a, [1.0, 1.0]) == [3.0, 7.0]
    assert frobenius_norm(identity(4)) == 2.0


def test_internal_results_equal_public_builds():
    # identity, zeros, transpose and adjugate skip the constructor's checks;
    # what they build must be indistinguishable from a checked Matrix
    a = Matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    pairs = [
        (identity(3), Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])),
        (identity(1), Matrix([[1]])),
        (zeros(2, 3), Matrix([[0, 0, 0], [0, 0, 0]])),
        (transpose(a), Matrix([[1, 4], [2, 5], [3, 6]])),
        (adjugate(Matrix([[1, 2], [3, 4]])), Matrix([[4, -2], [-3, 1]])),
        (adjugate(Matrix([[7]])), Matrix([[1]])),
    ]
    for got, want in pairs:
        assert got == want and hash(got) == hash(want)
        assert type(got.data) is tuple
        assert all(type(x) is float for x in got.data)


def test_empty_shapes_rejected():
    for make in (lambda: identity(0), lambda: identity(-1), lambda: zeros(0, 3),
                 lambda: zeros(3, 0)):
        with pytest.raises(ShapeError, match="at least one row and one column"):
            make()


def test_arithmetic_results_reject_overflow():
    big = Matrix([[1e308]])
    cases = (
        lambda: scale(big, 10.0),
        lambda: mat_mul(big, Matrix([[10.0]])),
        lambda: sub(big, Matrix([[-1e308]])),
        # the (2, 2) cofactor is 1e200 * 1e200
        lambda: adjugate(Matrix([[1e200, 0.0, 0.0], [0.0, 1e200, 0.0], [0.0, 0.0, 1.0]])),
    )
    for make in cases:
        with pytest.raises(ValueError, match="non-finite matrix entry inf"):
            make()
    with pytest.raises(ValueError, match="non-finite matrix entry nan"):
        scale(identity(2), float("nan"))


# sha256 of every result below, taken from the plain index-loop forms of
# these functions: any change to a sum's seed or order, or to the LU's
# pivoting, that moves a single bit fails here
LINALG_DIGEST = "e711e9386624dff744aceaa91ac3c1b032aaa5a700572be846daa9e5cf9016c9"


def test_linalg_bits():
    rng = random.Random(2024)
    pool = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0)
    h = hashlib.sha256()

    def put(vals):
        h.update(struct.pack("<%dd" % len(vals), *vals))

    for trial in range(400):
        n = 1 + trial % 5
        kind = trial % 4
        rows = [[rng.choice(pool) if kind == 1 else rng.uniform(-3.0, 3.0)
                 for _ in range(n)] for _ in range(n)]
        if kind == 2 and n > 1:
            rows[-1] = list(rows[0])  # exactly singular
        a = Matrix(rows)
        b = Matrix([[rng.choice(pool) if kind == 1 else rng.uniform(-3.0, 3.0)
                     for _ in range(n)] for _ in range(n)])
        v = [rng.choice(pool) for _ in range(n)]
        put([determinant(a)])
        for m in (adjugate(a), mat_mul(a, b), mat_pow(a, 5), scale(a, -0.3),
                  sub(a, b), transpose(a)):
            put(m.data)
        put(mat_vec(a, v))
        try:
            put(solve_linear(a, v))
        except SingularMatrixError as exc:
            put([exc.condition])
    assert h.hexdigest() == LINALG_DIGEST
