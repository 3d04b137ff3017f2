"""The exact elimination kernel against Fraction elimination, and the value representation.

Exact matrices are eliminated fraction-free on integer numerators; every
result must be bit-equal to Gauss-Jordan elimination over Fractions
(``tests/oracles.py``): the same values, as reduced Fractions.  The
matrices cover every rank from 0 to 4, plain and conjugated by a random
rational matrix (tall denominators), plus the L, T and S matrices of
the algebra.
"""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

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
