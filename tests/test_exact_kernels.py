"""Exact quaternion products and family matrices on integer numerators.

Each exact result must equal the Fraction formula of ``oracles`` with
the same reduced numerator and denominator; each float result must be
the oracle's float bit for bit, signed zeros included.
"""

import random
from fractions import Fraction

from splitquat import SplitQuaternion, ZERO, left_matrix, right_matrix
from splitquat.matrices import family_matrix, image_basis

from conftest import rand_conjugate, rand_fraction, rand_quat
from oracles import coeff_product, family_rows, fraction_rref


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
