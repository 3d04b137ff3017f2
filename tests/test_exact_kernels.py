"""Exact products, inverses, forms, T/S and family matrices, solvers, families, consimilarity, powers, projectors and canonical targets on integer numerators.

Each exact result must equal the Fraction formula of ``oracles`` with
the same reduced numerator and denominator.  A float result whose body
keeps the formula's order of operations must be the oracle's float bit
for bit, signed zeros included.  Where the one body orders the float
operations differently (the family matrix, the signed zeros of S and of
the product, the rank-3 element of solve_xa_bx), the float result is
compared with the exact result of the same inputs instead: equal on
binary-exact draws, where every float operation is exact, and within a
relative bound otherwise.
"""

import itertools
import random
import sys
import time
import warnings
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitquat import (
    ExactnessWarning,
    Mat4,
    SolutionFamily,
    SplitQuaternion,
    SplitQuaternionError,
    ZERO,
    canonical_form,
    is_consimilar,
    left_matrix,
    mp_inverse,
    parse_quat,
    power,
    projectors,
    right_matrix,
    s_matrix,
    solve_ax0,
    solve_axb,
    solve_axd,
    solve_xa_bx,
    solve_xa_bxbar,
    solve_xad,
    t_matrix,
)
from splitquat.matrices import family_matrix, image_basis
from splitquat.roots import _past_limit
from splitquat.scalars import _printable, _ratio
from splitquat.similarity import _cyclic_witness

from conftest import (
    _unit_circle_point,
    lightlike_quats,
    nonreal_quats,
    pairs_in_every_s_case,
    quats,
    rand_conjugate,
    rand_fraction,
    rand_invertible,
    rand_lightlike,
    rand_nonreal,
    rand_quat,
    rand_rank3_pair,
    rand_similar_pair,
    rand_with_im_squared_minus,
    rand_with_im_squared_plus,
    rationals,
)
from oracles import (
    F_MATRIX,
    M2,
    SRankCase,
    _matmul,
    ax0_terms,
    axb_outcome,
    axd_outcome,
    canonical_target,
    coeff_forms,
    coeff_product,
    consimilar_verdict,
    family_rows,
    fraction_rref,
    projector_pair,
    quat_mp_inverse,
    rows_apply,
    s_rank_case,
    square_and_multiply_power,
    term_at,
    xa_bx_rank2_terms,
    xa_bx_rank3_terms,
    xad_outcome,
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


#: Float results against the exact results of the same inputs, per entry,
#: relative to the size of the inputs (matrices) or of the terms
#: (families).  Fixed before the first run; rounding noise is about 1e-16.
MATRIX_BOUND = 1e-12
TERMS_BOUND = 1e-9


def _binary(rng: random.Random) -> SplitQuaternion:
    """Small binary fractions: sums of a few products of them are exact in floats."""
    return SplitQuaternion(*(Fraction(rng.randint(-9, 9), 2 ** rng.randint(0, 3)) for _ in range(4)))


def _size(q: SplitQuaternion):
    return max(map(abs, q.coeffs))


def _entries(rows) -> list:
    return [x for row in rows for x in row]


def _within(values, exact, bound) -> bool:
    return len(values) == len(exact) and all(
        abs(Fraction(x) - y) <= bound for x, y in zip(values, exact)
    )


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

    @staticmethod
    def _float_terms(rng: random.Random, draw) -> tuple:
        terms = [(draw(rng), draw(rng)) for _ in range(rng.randint(1, 4))]
        k = rng.randrange(len(terms))
        terms[k] = (terms[k][0].to_float(), -terms[k][1])
        return tuple(terms)

    def test_float_terms_match_the_exact_matrix(self):
        # binary-exact terms: every float product and sum is exact
        rng = random.Random(125)
        for _ in range(100):
            terms = self._float_terms(rng, _binary)
            m = family_matrix(terms)
            exact = family_rows([(left.to_exact(), right.to_exact()) for left, right in terms])
            assert not m.is_exact and m.rows == tuple(map(tuple, exact)), terms
        # the draws of the exact test: within the bound, relative to the size of the terms
        rng = random.Random(125)
        for _ in range(100):
            terms = self._float_terms(rng, _draw)
            exact = family_rows([(left.to_exact(), right.to_exact()) for left, right in terms])
            scale = sum(4 * _size(left) * _size(right) for left, right in terms)
            m = family_matrix(terms)
            assert _within(_entries(m.rows), _entries(exact), MATRIX_BOUND * scale), terms

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

    def test_inverse_is_the_invertible_branch(self):
        # conj(q)/I(q): the oracle's body, and SplitQuaternion.inverse's before it shared mp_inverse's
        rng = random.Random(152)
        for _ in range(200):
            a = rand_invertible(rng)
            assert all(map(_same_fraction, a.inverse().coeffs, quat_mp_inverse(a).coeffs)), a
            for x in (a.to_float(), -(a.to_float())):
                assert _bits(x.inverse().coeffs) == _bits(quat_mp_inverse(x).coeffs), x


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

    @staticmethod
    def _float_pairs(a: SplitQuaternion, b: SplitQuaternion):
        fa, fb = a.to_float(), -(b.to_float())
        for x, y in ((fa, fb), (a, fb), (fa, b), (-fa, fa.conjugate())):
            ex, ey = x.to_exact(), y.to_exact()
            yield x, y, right_matrix(ex) - left_matrix(ey), right_matrix(ex) - left_matrix(ey) @ F_MATRIX

    def test_float_and_mixed_t_and_s_match_the_exact_matrices(self):
        # binary-exact draws: each entry is a sum of two coefficients, exact in floats
        rng = random.Random(153)
        for _ in range(200):
            for x, y, t, s in self._float_pairs(_binary(rng), _binary(rng)):
                assert not t_matrix(x, y).is_exact and t_matrix(x, y).rows == t.rows, (x, y)
                assert not s_matrix(x, y).is_exact and s_matrix(x, y).rows == s.rows, (x, y)
        # the draws of the bit test: within the bound, relative to the size of the inputs
        rng = random.Random(153)
        for _ in range(200):
            for x, y, t, s in self._float_pairs(_draw(rng), _draw(rng)):
                bound = MATRIX_BOUND * (_size(x) + _size(y))
                assert _within(_entries(t_matrix(x, y).rows), _entries(t.rows), bound), (x, y)
                assert _within(_entries(s_matrix(x, y).rows), _entries(s.rows), bound), (x, y)

    def test_exact_product_matches_the_row_product(self):
        rng = random.Random(154)
        for _ in range(300):
            a, b = _draw(rng), _draw(rng)
            for m, n in ((left_matrix(a), right_matrix(b)), (t_matrix(a, b), s_matrix(b, a))):
                assert _same_exact_matrix(m @ n, _matmul(m.rows, n.rows)), (a, b)

    @staticmethod
    def _products(m: Mat4, n: Mat4):
        """The float and mixed products of m and n, each with the exact product of the same entries."""
        exact_m = Mat4(tuple(tuple(Fraction(x) for x in row) for row in m.rows))
        exact_n = Mat4(tuple(tuple(Fraction(x) for x in row) for row in n.rows))
        expected = _matmul(exact_m.rows, exact_n.rows)
        for x, y in ((m, n), (exact_m, n), (m, exact_n)):
            yield x @ y, expected

    def test_float_product_matches_the_exact_product(self):
        # the binary-exact draws of the bit test: every product and sum is exact
        rng = random.Random(155)
        for _ in range(300):
            for product, expected in self._products(_float_matrix(rng), _float_matrix(rng)):
                assert not product.is_exact and product.rows == tuple(map(tuple, expected))
        # floats of any size: within the bound, relative to the size of the entries
        rng = random.Random(156)
        for _ in range(300):
            m, n = (Mat4([[rng.uniform(-9, 9) for _ in range(4)] for _ in range(4)]) for _ in "mn")
            bound = MATRIX_BOUND * 4 * max(map(abs, m._e)) * max(map(abs, n._e))
            for product, expected in self._products(m, n):
                assert _within(_entries(product.rows), _entries(expected), bound), (m, n)


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

    @staticmethod
    def _integer_pairs(rng: random.Random):
        """Rank-2 pairs with |im(a)|^2 + |im(b)|^2 a power of two, and rank-3 pairs, of small ints."""

        def quat(im_squared=None):
            while True:
                q = SplitQuaternion(*(rng.randint(-4, 4) for _ in range(4)))
                if not q.is_real() and im_squared in (None, q.im_squared):
                    return q

        while True:
            a = quat()
            b = quat(a.im_squared)
            n = (a.im_norm_sq + b.im_norm_sq).numerator
            if n & (n - 1) == 0:
                yield a, SplitQuaternion(a.q0, b.q1, b.q2, b.q3)
            s, u = rng.randint(0, 3), rng.randint(0, 3)
            d = rng.choice((s - u, s + u, u - s, -s - u))
            if d:
                a, b = quat(s * s), quat(u * u)
                yield a, SplitQuaternion(a.q0 - d, b.q1, b.q2, b.q3)

    def test_float_terms_match_the_exact_terms(self):
        # pairs whose exact terms are binary fractions: every float step is exact
        rng = random.Random(163)
        ranks = []
        for a, b in self._integer_pairs(rng):
            exact = _flat(solve_xa_bx(a, b).terms)
            if all(c.denominator & (c.denominator - 1) == 0 for q in exact for c in q.coeffs):
                terms = _flat(solve_xa_bx(a.to_float(), b.to_float()).terms)
                assert [q.coeffs for q in terms] == [q.coeffs for q in exact], (a, b)
                assert any(type(c) is float for q in terms for c in q.coeffs), (a, b)
                ranks.append(len(exact))
            if min(ranks.count(10), ranks.count(4)) == 20:
                break
        # the draws of the exact test: within the bound of the exact pair's terms, relative
        # to their size (the exact values of the rounded floats are no longer a singular pair)
        rng = random.Random(163)
        compared = 0
        for a, b in self._pairs(rng):
            fa, fb = a.to_float(), b.to_float()
            terms = _flat(solve_xa_bx(fa, fb).terms)
            if not terms:  # a float rank decision may read the pair as nonsingular
                continue
            exact = _flat(solve_xa_bx(a, b).terms)
            scale = max(_size(q) for q in exact)
            values, expected = _entries(q.coeffs for q in terms), _entries(q.coeffs for q in exact)
            assert _within(values, expected, TERMS_BOUND * scale), (fa, fb)
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

    @given(nonreal_quats)
    @settings(max_examples=100, deadline=None)
    def test_fallback_witness_matches_the_fraction_body(self, a):
        # conj(a) + b = 0: the candidate of largest |form|, by reduced numerator and denominator
        b = -a.conjugate()
        verdict, witness = consimilar_verdict(a, b)
        result = is_consimilar(a, b)
        assert verdict and result.verdict and _same_quats([result.witness], [witness])

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
                scale = 1 + 4 * max(abs(float(x)) for x in _entries(m.rows)) * max(map(abs, y.coeffs))
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


def _int_lightlike(rng: random.Random) -> SplitQuaternion:
    """Nonzero zero divisor with small int coefficients: x^2 + y^2 = z^2 + w^2."""
    while True:
        x, y, z, w = (rng.randint(-7, 7) for _ in range(4))
        if (x, y) != (0, 0) and x * x + y * y == z * z + w * w:
            return SplitQuaternion(x, y, z, w)


class TestSolverFamilies:
    """The lightlike solvers against their quaternion chains, and every handed-over matrix."""

    @staticmethod
    def _cases(rng: random.Random, rounds: int = 150):
        """(name, solver, oracle, inputs) on int, rational and taller (conjugated) inputs.

        Half of the right-hand sides are built solvable; the others are
        drawn freely, and are almost never solvable.
        """
        for i in range(rounds):
            if i % 3 == 0:
                a, b = _int_lightlike(rng), _int_lightlike(rng)
                z = SplitQuaternion(*(rng.randint(-9, 9) for _ in range(4)))
            elif i % 3 == 1:
                a, b, z = rand_lightlike(rng), rand_lightlike(rng), _draw(rng)
            else:
                a, b = rand_conjugate(rng, rand_lightlike(rng)), rand_lightlike(rng)
                z = rand_conjugate(rng, rand_quat(rng))
            solvable = rng.random() < 0.5
            yield "axb", solve_axb, axb_outcome, (a, b, a * z * b if solvable else z)
            yield "axd", solve_axd, axd_outcome, (a, a * z if solvable else z)
            yield "xad", solve_xad, xad_outcome, (a, z * a if solvable else z)

    @staticmethod
    def _families(rng: random.Random):
        """Every solver's family: the lightlike ones, and solve_xa_bx and solve_xa_bxbar in each case."""
        for name, solver, _, inputs in TestSolverFamilies._cases(rng, 30):
            outcome = solver(*inputs)
            if outcome.solvable:
                yield name, inputs, outcome.family
            yield "ax0", inputs[:1], solve_ax0(inputs[0])
        for a, b in itertools.islice(TestSimilarityFamilies()._pairs(rng), 40):
            yield "xa_bx", (a, b), solve_xa_bx(a, b)
        for a, b in itertools.islice(TestSolverFamilies._int_pairs(rng), 40):
            yield "xa_bx", (a, b), solve_xa_bx(a, b)
            yield "xa_bx", (a, b + 1), solve_xa_bx(a, b + 1)  # nonsingular, or rank 3 by chance
        for a, b in pairs_in_every_s_case(rng, 5):
            yield "xa_bxbar", (a, b), solve_xa_bxbar(a, b)

    def test_exact_outcomes_match_the_quaternion_chains(self):
        rng = random.Random(170)
        seen = Counter()
        for name, solver, oracle, inputs in self._cases(rng):
            outcome = solver(*inputs)
            family, certificate = oracle(*inputs)
            seen[name, outcome.solvable] += 1
            if family is None:
                assert not outcome.solvable, (name, inputs)
                assert _same_quats([outcome.certificate], [certificate]), (name, inputs)
                continue
            constant, terms = family
            assert outcome.solvable, (name, inputs)
            assert _same_quats([outcome.family.constant], [constant]), (name, inputs)
            assert _same_quats(_flat(outcome.family.terms), _flat(terms)), (name, inputs)
            if name != "xad":
                a = inputs[0]
                kernel = solve_ax0(a)
                assert kernel.constant == ZERO and type(kernel.constant.q0) is Fraction
                assert _same_quats(_flat(kernel.terms), _flat(ax0_terms(a))), a
        assert all(seen[key] >= 30 for key in itertools.product(("axb", "axd", "xad"), (True, False)))

    @staticmethod
    def _int_pairs(rng: random.Random):
        """Int pairs with equal real parts and im_squared (rank 2), and singular ones with distinct real parts."""

        def quat(im_squared=None):
            while True:
                q = SplitQuaternion(*(rng.randint(-5, 5) for _ in range(4)))
                if not q.is_real() and im_squared in (None, q.im_squared):
                    return q

        while True:
            a = quat()
            b = quat(a.im_squared)
            yield a, SplitQuaternion(a.q0, b.q1, b.q2, b.q3)
            # a0 - b0 = +/-s +/- u with im_squared s^2 and u^2: det T = 0
            s, u = rng.randint(0, 3), rng.randint(0, 3)
            d = rng.choice((s - u, s + u, u - s, -s - u))
            if d:
                a, b = quat(s * s), quat(u * u)
                yield a, SplitQuaternion(a.q0 - d, b.q1, b.q2, b.q3)

    def test_exact_xa_bx_terms_on_int_inputs_match_the_fraction_bodies(self):
        rng = random.Random(171)
        ranks = Counter()
        for a, b in itertools.islice(self._int_pairs(rng), 120):
            rank = t_matrix(a, b).rank()
            ranks[rank] += 1
            if rank < 4:
                oracle = xa_bx_rank2_terms if rank == 2 else xa_bx_rank3_terms
                assert _same_quats(_flat(solve_xa_bx(a, b).terms), _flat(oracle(a, b))), (a, b)
        assert ranks[2] >= 20 and ranks[3] >= 20

    def test_handed_over_matrix_is_the_family_matrix_of_the_terms(self):
        # exact families equal by reduced numerators and denominator, float ones bit for bit;
        # a float solve_xa_bxbar family keeps its kernel columns, which round differently
        rng = random.Random(172)
        names = Counter()
        for name, inputs, family in self._families(rng):
            float_copy = None if name == "xa_bxbar" else self._solve(name, [q.to_float() for q in inputs])
            for copy in (family, float_copy):
                if copy is None:
                    continue
                m, expected = copy.linear_matrix, family_matrix(copy.terms)
                if not copy.terms and copy is float_copy:
                    # family_matrix(()) is exact; a float family without terms holds the float zero
                    expected = Mat4.diagonal((0.0,) * 4)
                assert _bits(m._e) == _bits(expected._e) and m._d == expected._d, (name, inputs)
                names[name, m.is_exact] += 1
        assert min(names[name, exact] for name in ("axb", "ax0", "axd", "xad", "xa_bx") for exact in (True, False)) > 10

    @staticmethod
    def _solve(name, inputs):
        """The family the solver of name gives on inputs, or None for an unsolvable equation."""
        solvers = {"axb": solve_axb, "ax0": solve_ax0, "axd": solve_axd, "xad": solve_xad}
        solvers.update(xa_bx=solve_xa_bx, xa_bxbar=solve_xa_bxbar)
        result = solvers[name](*inputs)
        return result.family if hasattr(result, "family") else result

    def test_float_and_mixed_families_hold_only_floats(self):
        rng = random.Random(173)
        names = Counter()
        for name, inputs, _ in self._families(rng):
            floats = tuple(q.to_float() for q in inputs)
            copies = [floats] + [floats[:k] + inputs[k:] for k in range(1, len(inputs))]
            copies += [inputs[:k] + floats[k:] for k in range(1, len(inputs))]
            for copy in copies:
                family = self._solve(name, copy)
                if family is None:
                    continue
                quats = [family.constant] + _flat(family.terms)
                assert all(type(c) is float for q in quats for c in q.coeffs), (name, copy)
                names[name] += 1
        assert min(names[name] for name in ("axb", "ax0", "axd", "xad", "xa_bx", "xa_bxbar")) > 10


HALF = Fraction(1, 2)
POWER_KINDS = ("lightlike", "nilpotent", "idempotent", "general")


def _zero_divisor(re, im, t) -> SplitQuaternion:
    """re + im*i + (re + im*i)*(c + s*i)*j for the unit-circle point (c, s) of t: lightlike."""
    c, s = _unit_circle_point(t)
    return SplitQuaternion(re, im, re * c - im * s, re * s + im * c)


def _power_draw(rng: random.Random, kind: str) -> SplitQuaternion:
    """A zero divisor, a nilpotent (q0 = 0), an idempotent (q0 = 1/2) or a general _draw."""
    if kind == "lightlike":
        return rand_lightlike(rng)
    if kind == "nilpotent":
        return _zero_divisor(0, rand_fraction(rng, 1), rand_fraction(rng))
    if kind == "idempotent":
        return _zero_divisor(HALF, rand_fraction(rng), rand_fraction(rng))
    return _draw(rng)


POWER_BASES = st.one_of(
    quats,
    lightlike_quats(),
    st.builds(_zero_divisor, st.just(0), rationals.filter(bool), rationals),
    st.builds(_zero_divisor, st.just(HALF), rationals, rationals),
)


def _m2_power(q: SplitQuaternion, n: int) -> SplitQuaternion:
    """phi^-1(phi(q)^n) by n - 1 products of 2x2 matrices."""
    m = x = M2.phi(q)
    for _ in range(n - 1):
        m = m @ x
    return m.phi_inverse()


class TestPower:
    def test_exact_power_matches_square_and_multiply(self):
        rng = random.Random(168)
        for kind in POWER_KINDS:
            for _ in range(60):
                q, n = _power_draw(rng, kind), rng.randint(1, 64)
                expected = square_and_multiply_power(q, n)
                assert all(map(_same_fraction, power(q, n).coeffs, expected.coeffs)), (kind, q, n)
                if kind == "nilpotent" and n > 1:
                    assert expected == ZERO
                if kind == "idempotent":
                    assert expected == q

    @given(POWER_BASES, st.integers(min_value=1, max_value=64))
    @settings(max_examples=200, deadline=None)
    def test_exact_power_matches_square_and_multiply_on_any_base(self, q, n):
        expected = square_and_multiply_power(q, n)
        assert all(map(_same_fraction, power(q, n).coeffs, expected.coeffs))

    def test_non_lightlike_power_matches_the_matrix_power(self):
        # phi(q^n) = phi(q)^n in the 2x2 model, which shares no code with the recurrence
        rng = random.Random(169)
        for _ in range(150):
            q = _draw(rng)
            if q.is_lightlike():
                continue
            n = rng.randint(1, 64)
            assert all(map(_same_fraction, power(q, n).coeffs, _m2_power(q, n).coeffs)), (q, n)

    def test_float_power_on_binary_draws_is_the_exact_power(self):
        # numerators of at most 4 bits over 8, to the 8th power: every float operation is exact
        rng = random.Random(170)
        for _ in range(200):
            q = SplitQuaternion(*(Fraction(rng.randint(-9, 9), 2 ** rng.randint(0, 3)) for _ in range(4)))
            n = rng.randint(1, 8)
            assert power(q.to_float(), n).coeffs == power(q, n).coeffs, (q, n)

    def test_refusal_by_heights_never_refuses_a_printable_power(self):
        # at the least n the height bound refuses, the power itself is past the limit
        rng = random.Random(171)
        bases = [parse_quat(text) for text in ("3+i", "1+j", "5/4+3/4j", "3/2+j+1/2k", "2/3+1/2i")]
        bases += [_power_draw(rng, kind) for kind in POWER_KINDS for _ in range(4)]
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            refused = 0
            for q in bases:
                nums, d = _ratio(q.coeffs)
                if not _past_limit(nums, d, 2**30):
                    continue  # no geometric growth: roots of unity, 0, or a double root +-1
                lo, hi = 1, 2**30  # _past_limit is monotone in n: bisect for the least n it refuses
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    lo, hi = (lo, mid) if _past_limit(nums, d, mid) else (mid, hi)
                assert not _printable(square_and_multiply_power(q, hi).coeffs), (q, hi)
                with pytest.raises(SplitQuaternionError, match="exact value too long to print"):
                    power(q, hi)
                refused += 1
            assert refused >= 9
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("text, n", [("2e2000", 3), ("3+i", 30_000_000)])
    def test_power_past_the_limit_is_refused_at_once(self, text, n):
        # 2e2000 cubed is computed and checked; (3+i)^30000000 is refused by heights first
        q = parse_quat(text, backend="exact")
        assert _past_limit(*_ratio(q.coeffs), n) is (n > 3)
        start = time.perf_counter()
        limit = sys.get_int_max_str_digits()
        with pytest.raises(SplitQuaternionError, match=f"exact value too long to print: over {limit} digits"):
            power(q, n)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("text, expected", [("1", "1"), ("i", "1"), ("1/2+1/2j", "1/2+1/2j"), ("i+j", "0")])
    def test_bounded_powers_answer_at_any_exponent(self, text, expected):
        start = time.perf_counter()
        assert str(power(parse_quat(text), 10**9)) == expected
        assert time.perf_counter() - start < 1.0

    def test_a_printable_power_of_an_unprintable_base_is_returned(self):
        # the height of q^m = 2^(m-1)*q falls until m = 10001, so only the result is checked
        x = Fraction(1, 2**20000)
        q = SplitQuaternion(1, x, 1, x)
        assert not _printable(q.coeffs)
        assert power(q, 10001) == 2**10000 * q


class TestProjectors:
    @staticmethod
    def _draws(rng: random.Random):
        for _ in range(100):
            yield rand_lightlike(rng)
            yield _power_draw(rng, "nilpotent")
            yield _power_draw(rng, "idempotent")
            yield rand_conjugate(rng, rand_lightlike(rng))

    def test_exact_projectors_match_the_quaternion_products(self):
        for a in self._draws(random.Random(172)):
            assert _same_quats(projectors(a), projector_pair(a)), a

    @given(st.one_of(lightlike_quats(), POWER_BASES.filter(lambda q: q.is_lightlike() and q != ZERO)))
    @settings(max_examples=100, deadline=None)
    def test_exact_projectors_match_the_quaternion_products_on_any_zero_divisor(self, a):
        assert _same_quats(projectors(a), projector_pair(a))

    def test_float_projectors_are_bit_identical(self):
        for a in self._draws(random.Random(173)):
            for x in (a.to_float(), -(a.to_float())):
                assert list(map(_bits, (p.coeffs for p in projectors(x)))) == list(
                    map(_bits, (p.coeffs for p in projector_pair(x)))
                ), x


class TestCanonicalForm:
    @staticmethod
    def _draws(rng: random.Random):
        for _ in range(60):
            yield rand_with_im_squared_plus(rng, Fraction(0))
            yield rand_with_im_squared_plus(rng, abs(rand_fraction(rng, 1)))
            yield rand_with_im_squared_minus(rng, rand_fraction(rng, 1))
            yield rand_nonreal(rng)
            yield rand_conjugate(rng, rand_nonreal(rng))

    @staticmethod
    def _check(a) -> bool:
        """canonical_form(a) against the Fraction-built target: exact ones by reduced fraction, floats bit for bit."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExactnessWarning)
            target, conjugated, exact = canonical_target(a)
            form = canonical_form(a)
        same = _same_quats([form.target], [target]) if exact else _bits(form.target.coeffs) == _bits(target.coeffs)
        assert same and form.exact is exact, a
        assert _bits(form.conjugator.coeffs) == _bits(_cyclic_witness(conjugated, target).coeffs), a
        return exact

    def test_exact_target_matches_the_fraction_body(self):
        escalated = sum(not self._check(a) for a in self._draws(random.Random(174)))
        assert 30 < escalated < 240

    @given(nonreal_quats)
    @settings(max_examples=100, deadline=None)
    def test_exact_target_matches_the_fraction_body_on_any_nonreal(self, a):
        self._check(a)

    def test_float_target_is_bit_identical(self):
        for a in self._draws(random.Random(175)):
            for x in (a.to_float(), -(a.to_float())):
                self._check(x)
