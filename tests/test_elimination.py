"""The exact elimination kernel against Fraction elimination, and the value representation.

Exact matrices are eliminated fraction-free on integer numerators; every
result must be bit-equal to Gauss-Jordan elimination over Fractions
(``tests/oracles.py``): the same values, as reduced Fractions.  The
matrices cover every rank from 0 to 4, plain and conjugated by a random
rational matrix (tall denominators), plus the L, T and S matrices of
the algebra.  The kernel itself is also run on integer rows of every
shape up to 4 x 8, at both of its stopping points.
"""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitquat import elimination
from splitquat import (
    Mat4,
    SplitQuaternion,
    left_matrix,
    linear_system_consistent,
    mat_mp_inverse,
    nullspace_basis,
    right_matrix,
    s_matrix,
    t_matrix,
)
from splitquat.matrices import image_basis

from conftest import (
    rand_consim_pair_rank3b,
    rand_fraction,
    rand_lightlike,
    rand_quat,
    rand_rank3_pair,
    rand_similar_pair,
)
from oracles import (
    fraction_consistent,
    fraction_det,
    fraction_inverse,
    fraction_mp_inverse,
    fraction_nullspace,
    fraction_rref,
)


def _matrix_of_rank(rng: random.Random, r: int):
    """Rows of a rational 4x4 matrix of rank exactly r, as a product of 4 x r and r x 4 factors."""
    while True:
        left = [[rand_fraction(rng, -4, 4, 3) for _ in range(r)] for _ in range(4)]
        right = [[rand_fraction(rng, -4, 4, 3) for _ in range(4)] for _ in range(r)]
        rows = [
            [sum((left[i][t] * right[t][j] for t in range(r)), Fraction(0)) for j in range(4)]
            for i in range(4)
        ]
        if len(fraction_rref(rows)[1]) == r:
            return rows


def _conjugated(rng: random.Random, rows):
    """P rows P^-1 for a random invertible rational P: same rank, taller denominators."""
    while True:
        p = [[rand_fraction(rng) for _ in range(4)] for _ in range(4)]
        if fraction_det(p) != 0:
            break
    p_inv = fraction_inverse(p)
    prod = [[sum(x * y for x, y in zip(row, col)) for col in zip(*rows)] for row in p]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*p_inv)] for row in prod]


def _singular_with_independent_top_rows(rng: random.Random, r: int, size: int):
    """Integer rows of rank r in 2..3 whose rows 0-1 and rows 2-3 are independent pairs.

    The last 4 - r rows combine the first r.  Some 2 x 2 minor of rows 0-1
    and some of rows 2-3 are then nonzero, while the determinant, the
    signed sum of their products, is 0.
    """
    while True:
        rows = [[rng.randint(-size, size) for _ in range(4)] for _ in range(r)]
        weights = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(4 - r)]
        rows += [[sum(w * row[j] for w, row in zip(ws, rows)) for j in range(4)] for ws in weights]
        top, bottom = (fraction_rref(rows[i : i + 2])[1] for i in (0, 2))
        if len(fraction_rref(rows)[1]) == r and len(top) == len(bottom) == 2:
            return rows


def _tall(rng: random.Random, r: int, digits: int):
    """Rational rows of rank r with numerators of about 2 * digits digits over a digits-digit denominator."""
    size = 10**digits
    while True:
        left = [[rng.randint(-size, size) for _ in range(r)] for _ in range(4)]
        right = [[rng.randint(-size, size) for _ in range(4)] for _ in range(r)]
        den = rng.randint(size, 2 * size)
        rows = [[Fraction(sum(x * y[j] for x, y in zip(row, right)), den) for j in range(4)] for row in left]
        if len(fraction_rref(rows)[1]) == r:
            return rows


def _matrices():
    rng = random.Random(2024)
    out = []
    for r in range(5):
        for _ in range(12):
            rows = _matrix_of_rank(rng, r)
            out.append(Mat4(rows))
            out.append(Mat4(_conjugated(rng, rows)))
    for _ in range(12):
        a, b = rand_similar_pair(rng)
        out.append(t_matrix(a, b))  # rank 2
        a, b = rand_rank3_pair(rng)
        out.append(t_matrix(a, b))  # rank 3
        a, b = rand_consim_pair_rank3b(rng)
        out.append(s_matrix(a, b))  # rank 3
        out.append(left_matrix(rand_lightlike(rng)))  # rank 2
        out.append(left_matrix(rand_quat(rng)) @ right_matrix(rand_quat(rng)))
    # the exact inverse is an adjugate: det 0 decided on nonzero minors, and tall entries
    for r in (2, 3):
        for size in (9, 10**12, 10**300):
            out.append(Mat4(_singular_with_independent_top_rows(rng, r, size)))
    for digits in (6, 150):
        for r in range(1, 5):
            out.append(Mat4(_tall(rng, r, digits)))
    return out


MATRICES = _matrices()


def assert_bit_equal(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert type(x) is Fraction and x == y


def test_every_rank_is_covered():
    ranks = {m.rank() for m in MATRICES}
    assert ranks == {0, 1, 2, 3, 4}
    assert max(x.denominator for m in MATRICES for row in m.rows for x in row) > 10**6
    assert max(abs(x.numerator) for m in MATRICES for row in m.rows for x in row) > 10**299


def test_kernel_against_fraction_elimination():
    for m in MATRICES:
        rows = [list(row) for row in m.rows]
        _, pivots = fraction_rref(rows)
        assert m.rank() == len(pivots), m
        det = m.det()
        assert type(det) is Fraction and det == fraction_det(rows), m
        basis = nullspace_basis(m)
        want = fraction_nullspace(rows)
        assert len(basis) == len(want), m
        for v, w in zip(basis, want):
            assert_bit_equal(v, w)
        for row, want_row in zip(mat_mp_inverse(m).rows, fraction_mp_inverse(rows)):
            assert_bit_equal(row, want_row)
        cols = list(zip(*m.rows))
        family_basis = image_basis(m)
        assert len(family_basis) == len(pivots), m
        for q, p in zip(family_basis, pivots):
            assert_bit_equal(q.coeffs, cols[p])


def test_consistency_against_fraction_elimination():
    rng = random.Random(5)
    for m in MATRICES:
        rows = [list(row) for row in m.rows]
        assert linear_system_consistent(m, m.apply([rand_fraction(rng) for _ in range(4)]))
        for _ in range(3):
            rhs = [rand_fraction(rng, den=97) for _ in range(4)]
            assert linear_system_consistent(m, rhs) == fraction_consistent(rows, rhs)


# ----------------------------------------------------------------------
# the kernel on row lists of every shape, at both stopping points
# ----------------------------------------------------------------------


def _check_kernel(rows):
    """Both stopping points of the exact kernel on copies of integer rows, against Fraction elimination."""
    want, want_pivots = fraction_rref(rows)
    r = len(want_pivots)
    reduced, echelon = [list(row) for row in rows], [list(row) for row in rows]
    pivots, last, sign = elimination.eliminate(reduced, True)
    assert elimination.eliminate(echelon, False) == (pivots, last, sign), rows
    assert pivots == want_pivots, rows
    assert all(type(x) is int for row in reduced + echelon for x in row)
    # reduced: the oracle's reduced echelon rows times the last pivot
    assert reduced[:r] == [[x * last for x in row] for row in want[:r]], rows
    # echelon: r independent rows in the oracle's row space, zero rows below
    assert all(x == 0 for row in reduced[r:] + echelon[r:] for x in row), rows
    if r:
        assert len(fraction_rref(echelon[:r])[1]) == r, rows
        for row in echelon[:r]:
            assert [sum(row[p] * w[j] for p, w in zip(pivots, want)) for j in range(len(row))] == row, rows
    if len(rows) == len(rows[0]) == r:
        assert sign * last == fraction_det(rows), rows
    if len(rows) == len(rows[0]) == 4:
        _check_adjugate(rows)
    return r


def _check_adjugate(rows):
    """The adjugate of 4 x 4 integer rows, as a flat matrix, against Fractions.

    It is det times the inverse, and the transposed cofactors, which a
    singular matrix has too.
    """
    flat = [x for row in rows for x in row]
    adj, det = elimination.adjugate(flat)
    assert type(det) is int and det == fraction_det(rows), rows
    assert all(type(x) is int for x in adj), rows
    if det:
        assert list(adj) == [x * det for row in fraction_inverse(rows) for x in row], rows
    minor = lambda i, j: fraction_det([r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i])
    assert list(adj) == [(-1) ** (i + j) * minor(j, i) for i in range(4) for j in range(4)], rows


def _int_rows(left, right, n: int, zero_rows, zero_cols):
    """The m x n product of integer m x r and r x n factors, with the given rows and columns zeroed."""
    return [
        [0 if i in zero_rows or j in zero_cols else sum(x * y[j] for x, y in zip(row, right)) for j in range(n)]
        for i, row in enumerate(left)
    ]


def test_kernel_on_every_shape_and_rank():
    # m x n up to 4 x 8 covers the 4 x 4 matrices, the 4 x 5 rows of
    # linear_system_consistent and the r x 2r blocks of mat_mp_inverse
    rng = random.Random(2025)
    seen = set()
    for m in range(1, 5):
        for n in range(1, 9):
            for target in range(min(m, n) + 1):
                for draw in range(6):
                    size = (4, 10**12)[draw % 2]
                    while True:
                        left = [[rng.randint(-size, size) for _ in range(target)] for _ in range(m)]
                        right = [[rng.randint(-size, size) for _ in range(n)] for _ in range(target)]
                        zero_rows = {rng.randrange(m)} if draw >= 2 and target < m else set()
                        zero_cols = {rng.randrange(n)} if draw >= 4 and target < n else set()
                        rows = _int_rows(left, right, n, zero_rows, zero_cols)
                        if len(fraction_rref(rows)[1]) == target:
                            break
                    seen.add((m, n, _check_kernel(rows), bool(zero_rows), bool(zero_cols)))
    assert {(m, n, r) for m, n, r, _, _ in seen} == {
        (m, n, r) for m in range(1, 5) for n in range(1, 9) for r in range(min(m, n) + 1)
    }
    assert any(zr and zc for _, _, _, zr, zc in seen)


@st.composite
def _int_row_lists(draw):
    """Integer rows of up to 4 x 8, a product of factors of a drawn inner size, with some rows and columns zeroed."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    inner = draw(st.integers(0, min(m, n)))
    entries = st.integers(-6, 6) | st.integers(-(10**15), 10**15)
    left = [[draw(entries) for _ in range(inner)] for _ in range(m)]
    right = [[draw(entries) for _ in range(n)] for _ in range(inner)]
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=m))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return _int_rows(left, right, n, zero_rows, zero_cols)


@given(_int_row_lists())
@settings(max_examples=300, deadline=None)
def test_kernel_property(rows):
    _check_kernel(rows)


def test_float_kernel_at_both_stopping_points():
    # without reduce the float kernel leaves the rows above each pivot as
    # they are: the pivots, their product and the sign are those of the
    # reduced run, and so are the last pivot row and the rows below it
    rng = random.Random(2027)
    seen = set()
    for m in range(1, 5):
        for n in range(1, 9):
            for target in range(min(m, n) + 1):
                for draw in range(4):
                    left = [[rng.randint(-6, 6) for _ in range(target)] for _ in range(m)]
                    right = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(target)]
                    noise = (0.0, 1e-12, -3e-10)
                    rows = [[x / 3 + rng.choice(noise) for x in row] for row in _int_rows(left, right, n, (), ())]
                    reduced, echelon = [list(row) for row in rows], [list(row) for row in rows]
                    pivots, product, sign = elimination.rref(reduced, 1e-9, True)
                    assert repr(elimination.rref(echelon, 1e-9, False)) == repr((pivots, product, sign)), rows
                    r = len(pivots)
                    assert repr(echelon[max(r - 1, 0) :]) == repr(reduced[max(r - 1, 0) :]), rows
                    for i, p in enumerate(pivots):
                        assert echelon[i][p] == 1.0 == reduced[i][p], rows
                        assert all(row[p] == 0 for row in echelon[i + 1 :]), rows
                        assert all(row[p] == 0 for row in reduced[:i] + reduced[i + 1 :]), rows
                    seen.add((m, n, r))
    assert {(m, n, r) for m in range(1, 5) for n in range(1, 9) for r in range(min(m, n) + 1)} <= seen


# ----------------------------------------------------------------------
# the representation contract
# ----------------------------------------------------------------------


def _reduced_fraction(x) -> bool:
    return type(x) is Fraction and x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1


def test_exact_values_read_as_reduced_fractions():
    rng = random.Random(7)
    for _ in range(30):
        p, q = rand_quat(rng), rand_quat(rng)
        for value in (p, p * q, p + q, (p * q) / 3, p.conjugate()):
            assert all(_reduced_fraction(c) for c in value.coeffs)
            assert all(_reduced_fraction(c) for c in (value.q0, value.q1, value.q2, value.q3))
        for m in (left_matrix(p), left_matrix(p) @ right_matrix(q), t_matrix(p, q) / 7):
            assert all(_reduced_fraction(x) for row in m.rows for x in row)
    for m in MATRICES[::5]:
        assert all(_reduced_fraction(x) for row in mat_mp_inverse(m).rows for x in row)


def test_equality_and_hash_across_backends():
    exact = SplitQuaternion(Fraction(1, 2), 1, 0, 0)
    approx = SplitQuaternion(0.5, 1.0, 0.0, 0.0)
    assert exact == approx and hash(exact) == hash(approx)
    assert exact != SplitQuaternion(Fraction(1, 3), 1, 0, 0)
    assert SplitQuaternion(Fraction(1, 3), 0, 0, 0) != SplitQuaternion(1 / 3, 0.0, 0.0, 0.0)
    m = Mat4.diagonal((Fraction(1, 2), 1, Fraction(-3, 4), 0))
    mf = Mat4.diagonal((0.5, 1.0, -0.75, 0.0))
    assert m == mf and hash(m) == hash(mf)
    assert m != Mat4.diagonal((Fraction(1, 2), 1, Fraction(-3, 4), Fraction(1, 8)))
    assert left_matrix(exact) == left_matrix(approx)


@pytest.mark.parametrize(
    "value",
    [
        SplitQuaternion(Fraction(1, 2), -3, Fraction(5, 7), 0),
        SplitQuaternion(0.5, -3.0, 0.25, 0.0),
        Mat4.diagonal((Fraction(1, 2), 1, Fraction(-3, 4), 0)),
        Mat4.diagonal((0.5, 1.0, -0.75, 0.0)),
    ],
)
def test_pickle_and_deepcopy_roundtrip(value):
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert copied == value
        assert copied.is_exact == value.is_exact
        assert repr(copied) == repr(value)
