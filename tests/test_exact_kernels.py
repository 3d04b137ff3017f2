"""Exact products, inverses, forms, T/S and family matrices, families and consimilarity on integer numerators.

Each exact result must equal the Fraction formula of ``oracles`` with
the same reduced numerator and denominator; each float result must be
the oracle's float bit for bit, signed zeros included.
"""

import random
from fractions import Fraction

from splitquat import (
    F_MATRIX,
    Mat4,
    SolutionFamily,
    SplitQuaternion,
    ZERO,
    is_consimilar,
    left_matrix,
    mp_inverse,
    right_matrix,
    s_matrix,
    solve_axb,
    solve_xa_bx,
    t_matrix,
)
from splitquat.matrices import family_matrix, image_basis

from conftest import (
    pairs_in_every_s_case,
    rand_conjugate,
    rand_fraction,
    rand_lightlike,
    rand_quat,
    rand_rank3_pair,
    rand_similar_pair,
)
from oracles import (
    SRankCase,
    _matmul,
    coeff_forms,
    coeff_product,
    consimilar_verdict,
    family_rows,
    fraction_rref,
    quat_mp_inverse,
    rows_apply,
    s_rank_case,
    term_at,
    xa_bx_rank2_terms,
    xa_bx_rank3_terms,
)


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


def _forms(q: SplitQuaternion) -> tuple:
    return (q.quadratic_form, q.im_squared, q.im_norm_sq)


def _same_quats(xs, ys) -> bool:
    return len(xs) == len(ys) and all(
        all(map(_same_fraction, x.coeffs, y.coeffs)) for x, y in zip(xs, ys)
    )


def _flat(terms) -> list:
    return [q for term in terms for q in term]


class TestForms:
    def test_exact_forms_match_the_fraction_formulas(self):
        rng = random.Random(160)
        for _ in range(400):
            q = _draw(rng)
            assert all(map(_same_fraction, _forms(q), coeff_forms(q))), q

    def test_float_forms_are_bit_identical(self):
        rng = random.Random(161)
        for _ in range(400):
            q = _draw(rng)
            for x in (q.to_float(), -(q.to_float())):
                assert _bits(_forms(x)) == _bits(coeff_forms(x)), x


class TestSimilarityFamilies:
    """solve_xa_bx's rank-2 and rank-3 terms against their Fraction bodies."""

    def _pairs(self, rng: random.Random):
        """Rank-2 and rank-3 pairs; conjugating one side keeps the case and makes taller rationals."""
        for _ in range(60):
            a, b = rand_similar_pair(rng, k_zero=rng.random() < 0.2)
            yield rand_conjugate(rng, a) if rng.random() < 0.5 else a, b
            a, b = rand_rank3_pair(rng)
            yield a, rand_conjugate(rng, b) if rng.random() < 0.5 else b

    def test_exact_terms_match_the_fraction_bodies(self):
        rng = random.Random(162)
        ranks = []
        for a, b in self._pairs(rng):
            ranks.append(t_matrix(a, b).rank())
            oracle = xa_bx_rank2_terms if ranks[-1] == 2 else xa_bx_rank3_terms
            terms = solve_xa_bx(a, b).terms
            assert _same_quats(_flat(terms), _flat(oracle(a, b))), (a, b)
        assert sorted(set(ranks)) == [2, 3] and ranks.count(3) == 60

    def test_float_terms_are_bit_identical(self):
        rng = random.Random(163)
        compared = 0
        for a, b in self._pairs(rng):
            fa, fb = a.to_float(), b.to_float()
            terms = solve_xa_bx(fa, fb).terms
            if not terms:  # a float rank decision may read the pair as nonsingular
                continue
            oracle = xa_bx_rank2_terms if len(terms) == 5 else xa_bx_rank3_terms
            expected = oracle(fa, fb)
            assert _bits(c for q in _flat(terms) for c in q.coeffs) == _bits(
                c for q in _flat(expected) for c in q.coeffs
            ), (fa, fb)
            compared += 1
        assert compared > 100


class TestIsConsimilar:
    def test_exact_verdict_and_witness_match_the_fraction_body(self):
        rng = random.Random(164)
        cases = set()
        for a, b in pairs_in_every_s_case(rng, 40):
            if a.is_real() or b.is_real():
                continue
            cases.add(s_rank_case(a, b))
            verdict, witness = consimilar_verdict(a, b)
            result = is_consimilar(a, b)
            assert result.verdict is verdict, (a, b)
            if witness is None:
                assert result.witness is None, (a, b)
            else:
                assert _same_quats([result.witness], [witness]), (a, b)
        assert cases == set(SRankCase) - {SRankCase.ZERO}

    def test_float_verdict_and_witness_are_bit_identical(self):
        rng = random.Random(165)
        for a, b in pairs_in_every_s_case(rng, 40):
            fa, fb = a.to_float(), b.to_float()
            if fa.is_real() or fb.is_real():
                continue
            for x, y in ((fa, fb), (a, fb), (fa, b)):
                verdict, witness = consimilar_verdict(x, y)
                result = is_consimilar(x, y)
                assert result.verdict is verdict, (x, y)
                assert _bits(result.witness.coeffs if witness else ()) == _bits(
                    witness.coeffs if witness else ()
                ), (x, y)


class TestFamilyAt:
    def _families(self, rng: random.Random):
        for _ in range(40):
            constant = _draw(rng)
            if constant == ZERO:
                constant = rand_quat(rng) + 1
            terms = tuple((_draw(rng), _draw(rng)) for _ in range(rng.randint(1, 3)))
            yield SolutionFamily(constant, terms)
            a = rand_lightlike(rng)
            outcome = solve_axb(a, a, a * rand_quat(rng) * a)
            assert outcome.solvable
            yield outcome.family

    def test_exact_values_match_the_terms(self):
        rng = random.Random(166)
        nonzero_constants = 0
        for family in self._families(rng):
            nonzero_constants += family.constant != ZERO
            for y in (_draw(rng), _draw(rng), ZERO):
                x = family.at(y)
                expected = term_at(family.constant, family.terms, y)
                assert all(map(_same_fraction, x.coeffs, expected.coeffs)), (family, y)
        assert nonzero_constants > 40

    def test_float_and_mixed_values_keep_the_matrix_product(self):
        rng = random.Random(167)
        for family in self._families(rng):
            exact_y = _draw(rng)
            m = family.linear_matrix
            for y in (exact_y.to_float(), -(exact_y.to_float())):
                x = family.at(y)
                expected = family.constant + SplitQuaternion(*rows_apply(m.rows, y.coeffs))
                assert _bits(x.coeffs) == _bits(expected.coeffs), (family, y)
                # and close to the exact value at the same y, relative to the size of the sum
                reference = term_at(family.constant, family.terms, y.to_exact())
                scale = 1 + 4 * max(map(abs, m._floats())) * max(map(abs, y.coeffs))
                scale += max(map(abs, family.constant.coeffs))
                assert all(abs(u - v) <= 1e-12 * scale for u, v in zip(x.coeffs, reference.coeffs))
            float_family = SolutionFamily(
                family.constant.to_float(),
                tuple((left.to_float(), right) for left, right in family.terms),
            )
            x = float_family.at(exact_y)
            expected = float_family.constant + SplitQuaternion(
                *rows_apply(float_family.linear_matrix.rows, exact_y.coeffs)
            )
            assert _bits(x.coeffs) == _bits(expected.coeffs), (float_family, exact_y)
