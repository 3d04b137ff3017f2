"""Exact products, Moore-Penrose inverses, T/S matrices and family matrices on integer numerators.

Each exact result must equal the Fraction formula of ``oracles`` with
the same reduced numerator and denominator; each float result must be
the oracle's float bit for bit, signed zeros included.
"""

import random
from fractions import Fraction

from splitquat import (
    F_MATRIX,
    Mat4,
    SplitQuaternion,
    ZERO,
    left_matrix,
    mp_inverse,
    right_matrix,
    s_matrix,
    t_matrix,
)
from splitquat.matrices import family_matrix, image_basis

from conftest import rand_conjugate, rand_fraction, rand_lightlike, rand_quat
from oracles import _matmul, coeff_product, family_rows, fraction_rref, quat_mp_inverse


def _draw(rng: random.Random) -> SplitQuaternion:
    """Small rationals, zeros, int coefficients, or a tall conjugate c*x*c^-1."""
    kind = rng.randrange(5)
    if kind == 0:
        return SplitQuaternion(*(rng.choice((0, rand_fraction(rng))) for _ in range(4)))
    if kind == 1:
        return SplitQuaternion(*(rng.randint(-9, 9) for _ in range(4)))
    if kind == 2:
        return rand_conjugate(rng, rand_quat(rng))
    if kind == 3:
        return rng.choice((ZERO, -rand_quat(rng)))
    return rand_quat(rng)


def _same_fraction(x, y) -> bool:
    return type(x) is Fraction and (x.numerator, x.denominator) == (y.numerator, y.denominator)


def _bits(values) -> tuple:
    return tuple(map(repr, values))


class TestProduct:
    def test_exact_product_matches_the_fraction_formula(self):
        rng = random.Random(120)
        for _ in range(400):
            p, q = _draw(rng), _draw(rng)
            product = p * q
            assert all(map(_same_fraction, product.coeffs, coeff_product(p, q))), (p, q)

    def test_int_and_tall_inputs_are_drawn(self):
        rng = random.Random(120)
        draws = [_draw(rng) for _ in range(400)]
        assert any(q == ZERO for q in draws)
        assert any(max(c.denominator for c in q.coeffs) > 1000 for q in draws)
        assert any(c < 0 for q in draws for c in q.coeffs)

    def test_float_and_mixed_products_are_bit_identical(self):
        rng = random.Random(121)
        for _ in range(400):
            p, q = _draw(rng), _draw(rng)
            fp, fq = p.to_float(), -(q.to_float())  # the negation yields -0.0 coefficients
            for x, y in ((fp, fq), (p, fq), (fp, q)):
                assert _bits((x * y).coeffs) == _bits(coeff_product(x, y)), (x, y)

    def test_exact_product_is_a_plain_value(self):
        p, q = SplitQuaternion(1, Fraction(1, 2), 0, 3), SplitQuaternion(Fraction(2, 3), 1, -1, 0)
        product = p * q
        assert product == SplitQuaternion(*coeff_product(p, q))
        assert hash(product) == hash(SplitQuaternion(*product.coeffs))
        assert repr(product) == repr(SplitQuaternion(*coeff_product(p, q)))


class TestFamilyMatrix:
    def test_exact_terms_match_the_family_rows(self):
        rng = random.Random(124)
        for _ in range(150):
            terms = tuple((_draw(rng), _draw(rng)) for _ in range(rng.randint(0, 5)))
            m = family_matrix(terms)
            assert m.is_exact
            assert m.rows == tuple(map(tuple, family_rows(terms))), terms

    def test_float_terms_keep_the_float_matrix_products(self):
        rng = random.Random(125)
        for _ in range(100):
            terms = [(_draw(rng), _draw(rng)) for _ in range(rng.randint(1, 4))]
            k = rng.randrange(len(terms))
            terms[k] = (terms[k][0].to_float(), -terms[k][1])
            products = [left_matrix(left) @ right_matrix(right) for left, right in terms]
            expected = sum(products[1:], products[0])
            assert _bits(family_matrix(tuple(terms))._e) == _bits(expected._e), terms

    def test_image_basis_reads_the_pivot_columns(self):
        rng = random.Random(126)
        for _ in range(100):
            terms = tuple((_draw(rng), _draw(rng)) for _ in range(rng.randint(1, 3)))
            for m in (family_matrix(terms), family_matrix(terms).transpose()):
                columns = list(zip(*m.rows))
                expected = [SplitQuaternion(*columns[p]) for p in fraction_rref(m.rows)[1]]
                basis = image_basis(m)
                assert basis == expected, terms
                assert all(type(c) is Fraction for q in basis for c in q.coeffs)


def _same_exact_matrix(m: Mat4, rows) -> bool:
    expected = [x for row in rows for x in row]
    return m.is_exact and all(map(_same_fraction, (x for row in m.rows for x in row), expected))


def _float_matrix(rng: random.Random) -> Mat4:
    """Small binary fractions, with +0.0 and -0.0 entries."""
    entries = [rng.choice((0.0, -0.0, rng.randint(-9, 9) / 4)) for _ in range(16)]
    return Mat4([entries[i : i + 4] for i in (0, 4, 8, 12)])


def _float_rows(m: Mat4):
    return [[float(x) for x in row] for row in m.rows]


def _inverse_draw(rng: random.Random) -> SplitQuaternion:
    return rng.choice((_draw(rng), rand_lightlike(rng), -rand_lightlike(rng) / 3))


class TestMpInverse:
    def test_exact_inverse_matches_the_fraction_formula(self):
        rng = random.Random(150)
        for _ in range(400):
            a = _inverse_draw(rng)
            inverse = mp_inverse(a)
            assert all(map(_same_fraction, inverse.coeffs, quat_mp_inverse(a).coeffs)), a
        assert mp_inverse(ZERO) is ZERO

    def test_zero_divisors_and_int_inputs_are_drawn(self):
        rng = random.Random(150)
        draws = [_inverse_draw(rng) for _ in range(400)]
        assert sum(q.is_lightlike() and q != ZERO for q in draws) > 50
        assert any(q != ZERO and all(c.denominator == 1 for c in q.coeffs) for q in draws)

    def test_float_inverse_is_bit_identical(self):
        rng = random.Random(151)
        for _ in range(400):
            a = rng.choice((_draw(rng), rand_lightlike(rng)))
            for x in (a.to_float(), -(a.to_float())):
                assert _bits(mp_inverse(x).coeffs) == _bits(quat_mp_inverse(x).coeffs), x


class TestRepresentations:
    def test_exact_t_and_s_match_the_matrix_formulas(self):
        rng = random.Random(152)
        for _ in range(300):
            a, b = _draw(rng), _draw(rng)
            ra, lb = right_matrix(a), left_matrix(b)
            assert _same_exact_matrix(t_matrix(a, b), (ra - lb).rows), (a, b)
            assert t_matrix(a, b) == ra - lb
            assert _same_exact_matrix(s_matrix(a, b), (ra - lb @ F_MATRIX).rows), (a, b)
            assert s_matrix(a, b) == ra - lb @ F_MATRIX

    def test_float_and_mixed_t_and_s_are_bit_identical(self):
        rng = random.Random(153)
        for _ in range(200):
            a, b = _draw(rng), _draw(rng)
            fa, fb = a.to_float(), -(b.to_float())
            for x, y in ((fa, fb), (a, fb), (fa, b), (-fa, fa.conjugate())):
                expected_t = right_matrix(x) - left_matrix(y)
                expected_s = right_matrix(x) - left_matrix(y) @ F_MATRIX
                assert _bits(t_matrix(x, y)._e) == _bits(expected_t._e), (x, y)
                assert _bits(s_matrix(x, y)._e) == _bits(expected_s._e), (x, y)

    def test_exact_product_matches_the_row_product(self):
        rng = random.Random(154)
        for _ in range(300):
            a, b = _draw(rng), _draw(rng)
            for m, n in ((left_matrix(a), right_matrix(b)), (t_matrix(a, b), s_matrix(b, a))):
                assert _same_exact_matrix(m @ n, _matmul(m.rows, n.rows)), (a, b)

    def test_float_product_matches_the_row_product_bit_for_bit(self):
        rng = random.Random(155)
        negative_zeros = 0
        for _ in range(300):
            m, n = _float_matrix(rng), _float_matrix(rng)
            exact = Mat4(tuple(tuple(Fraction(x) for x in row) for row in m.rows))
            for x, y in ((m, n), (exact, n), (m, exact)):
                expected = [v for row in _matmul(_float_rows(x), _float_rows(y)) for v in row]
                assert _bits((x @ y)._e) == _bits(expected), (x, y)
            negative_zeros += sum(repr(v) == "-0.0" for v in m._e)
        assert negative_zeros > 100
