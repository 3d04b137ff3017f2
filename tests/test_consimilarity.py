import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from splitquat import (
    I,
    J,
    K,
    ONE,
    RealInputError,
    SplitQuaternion,
    ZERO,
    is_consimilar,
    nullspace_basis,
    parse_quat,
    s_matrix,
    solve_xa_bxbar,
)
from splitquat.matrices import family_matrix, image_basis

from conftest import (
    nonreal_quats,
    pairs_in_every_s_case,
    rand_conjugate,
    rand_consim_pair_rank3b,
    rand_nonreal,
    rand_quat,
)
from oracles import M2, SRankCase, fraction_rref, s_rank_case

A_REF = "1+2i+3j+4k"
PROBES = (ONE, I, J, K, ONE + I + J + K)


class TestSolver:
    @pytest.mark.parametrize(
        "b_text,dimension",
        [
            ("-1+2i+3j+4k", 3),
            ("2+i+3j+4k", 1),
            ("-2+i+4j+3k", 1),
            ("2+i+3k", 1),
        ],
    )
    def test_reference_dimensions(self, b_text, dimension):
        a, b = parse_quat(A_REF), parse_quat(b_text)
        family = solve_xa_bxbar(a, b)
        assert family.dimension == dimension == 4 - s_matrix(a, b).rank()
        for y in PROBES:
            x = family.at(y)
            assert x * a == b * x.conjugate()

    def test_one_dimensional_space_spanned_by_conjugate_sum(self):
        a, b = parse_quat(A_REF), parse_quat("2+i+3j+4k")
        family = solve_xa_bxbar(a, b)
        w = a.conjugate() + b
        basis = family.basis()
        assert len(basis) == 1
        v = basis[0]
        assert all(
            v.coeffs[i] * w.coeffs[j] == v.coeffs[j] * w.coeffs[i]
            for i in range(4)
            for j in range(4)
        )

    def test_generic_pair(self):
        family = solve_xa_bxbar(I, J)
        assert family.dimension == 4 - s_matrix(I, J).rank()
        for v in nullspace_basis(s_matrix(I, J)):
            x = SplitQuaternion(*v)
            assert x * I == J * x.conjugate()

    def test_random_pairs_match_elimination(self):
        rng = random.Random(61)
        for _ in range(40):
            a, b = rand_quat(rng), rand_quat(rng)
            family = solve_xa_bxbar(a, b)
            assert family.dimension == len(family.basis()) == 4 - s_matrix(a, b).rank()
            x = family.at(rand_quat(rng))
            assert x * a == b * x.conjugate()


class TestKernelFamily:
    """The family is sum_t re(y e_t^-1) n_t over the kernel basis n_t of S, in every S case."""

    def test_family_is_the_kernel_of_s_in_every_case(self):
        rng = random.Random(66)
        units = (ONE, I, J, K)
        seen = set()
        for a, b in pairs_in_every_s_case(rng, 15):
            case = s_rank_case(a, b)
            seen.add(case)
            s = s_matrix(a, b)
            family = solve_xa_bxbar(a, b)
            assert family.dimension == 4 - s.rank() == 4 - case.rank, (a, b, case)
            kernel = nullspace_basis(s)
            basis = family.basis()
            assert [v.coeffs for v in basis] == kernel, (a, b)
            assert all(type(x) is Fraction for v in basis for x in v.coeffs)
            lefts = [left for left, _ in family.terms]
            assert len(lefts) <= 4 and len(set(lefts)) == len(lefts)
            assert all(left in units for left in lefts)
            for y in PROBES + (rand_quat(rng),):
                x = family.at(y)
                assert x * a == b * x.conjugate()
                # x(y) = sum_t y_t n_t: the t-th coefficient of y times the t-th kernel vector
                assert x.coeffs == tuple(
                    sum(y.coeffs[t] * n[c] for t, n in enumerate(kernel)) for c in range(4)
                )
            # the 2x2 model shares no code with s_matrix
            for v in basis:
                assert M2.phi(v) @ M2.phi(a) == M2.phi(b) @ M2.phi(v).adj(), (a, b, v)
        assert seen == set(SRankCase)

    def test_kept_basis_is_the_pivot_columns_and_spans_the_kernel(self):
        # the family keeps the kernel basis it solved for; it must be what
        # eliminating its linear matrix would give, and span the kernel of S
        rng = random.Random(67)
        seen = set()
        for a, b in pairs_in_every_s_case(rng, 10):
            seen.add(s_rank_case(a, b))
            family = solve_xa_bxbar(a, b)
            basis = family.basis()
            assert family.linear_matrix == family_matrix(family.terms), (a, b)
            # a trivial kernel too holds the zero matrix of its backend
            assert family.linear_matrix.is_exact
            assert not solve_xa_bxbar(a.to_float(), b.to_float()).linear_matrix.is_exact, (a, b)
            assert basis == image_basis(family.linear_matrix), (a, b)
            assert [v.coeffs for v in basis] == list(zip(*family.linear_matrix.rows))[: len(basis)]
            kernel = nullspace_basis(s_matrix(a, b))
            assert len(basis) == len(kernel)
            if kernel:
                vectors = [v.coeffs for v in basis] + kernel
                assert len(fraction_rref(vectors)[1]) == len(kernel), (a, b)
        assert seen == set(SRankCase)

    def test_zero_divisor_pair_and_zero_pair(self):
        # b*a = 0 for nonzero a and b: a plane of solutions
        a, b = parse_quat("3i+3k"), parse_quat("-2i-2k")
        assert b * a == ZERO
        assert solve_xa_bxbar(a, b).dimension == 2
        family = solve_xa_bxbar(ZERO, ZERO)
        assert family.dimension == 4
        assert family.terms == ((ONE, ONE),)

    def test_float_terms_carry_no_negative_zero(self):
        # each r_e is summed last, from int 0, so a zero coefficient is +0.0
        a, b = parse_quat("-12+8i-48j+12k").to_float(), parse_quat("28+8i-48j+28k").to_float()
        family = solve_xa_bxbar(a, b)
        assert family.dimension == 1 and len(family.terms) == 4
        zeros = [x for term in family.terms for q in term for x in q.coeffs if x == 0]
        assert zeros and all(math.copysign(1.0, x) == 1.0 for x in zeros), family.terms


class TestConjugateSumSolution:
    def test_solution_exactly_when_forms_match(self):
        # the residual of substituting w = conj(a)+b is the scalar Ia - Ib
        rng = random.Random(62)
        for _ in range(100):
            a, b = rand_quat(rng), rand_quat(rng)
            w = a.conjugate() + b
            residual = w * a - b * w.conjugate()
            expected = SplitQuaternion.from_scalar(
                a.quadratic_form - b.quadratic_form
            )
            assert residual == expected
            if a.quadratic_form == b.quadratic_form:
                assert residual.is_zero(0.0)


class TestIsConsimilar:
    def test_reference_verdicts(self):
        a = parse_quat(A_REF)
        expectations = [
            ("-1+2i+3j+4k", True),
            ("2+i+3j+4k", True),
            ("-2+i+4j+3k", False),
            ("2+i+3k", False),
        ]
        for b_text, expected in expectations:
            verdict = is_consimilar(a, parse_quat(b_text))
            assert bool(verdict) == expected, b_text

    def test_reference_witness(self):
        a, b = parse_quat(A_REF), parse_quat("2+i+3j+4k")
        verdict = is_consimilar(a, b)
        assert verdict.witness == parse_quat("3-i")
        w = verdict.witness
        assert w * a == b * w.conjugate() and w.quadratic_form != 0

    def test_negated_conjugate_case_witness(self):
        a = parse_quat(A_REF)
        b = -a.conjugate()
        verdict = is_consimilar(a, b)
        assert verdict
        w = verdict.witness
        assert w * a == b * w.conjugate()
        assert w.quadratic_form != 0

    def test_candidate_fallback_order(self):
        # first candidate a3*i + a1*k is lightlike when |a1| = |a3|; the witness is
        # the first candidate of largest |quadratic form|, a2*i + a1*j
        a = parse_quat("1+2i+3j+2k")
        verdict = is_consimilar(a, -a.conjugate())
        w = verdict.witness
        assert w == parse_quat("3i+2j")
        assert w.quadratic_form != 0
        assert w * a == (-a.conjugate()) * w.conjugate()

    @given(nonreal_quats)
    @settings(max_examples=60)
    def test_negated_conjugate_always_has_a_witness(self, a):
        verdict = is_consimilar(a, -a.conjugate())
        w = verdict.witness
        assert verdict and w.quadratic_form != 0
        assert w * a == (-a.conjugate()) * w.conjugate()

    def test_negated_conjugate_witness_at_every_scale(self):
        # the candidates' forms are ~1e-9 here, under eps; the witness must not depend on it
        a = parse_quat("5.72204589844e-06+4.76837158203e-06i+3.81469726562e-06j-3.0517578125e-05k")
        b = parse_quat("-5.72204589844e-06+4.76837158203e-06i+3.81469726562e-06j-3.0517578125e-05k")
        base = is_consimilar(a, b).witness
        for k in range(-10, 21):
            s = 2.0**k
            verdict = is_consimilar(a * s, b * s)
            assert verdict, k
            w = verdict.witness
            assert w == base * s
            assert all(c == 0 for c in (w * a * s - b * s * w.conjugate()).coeffs)

    def test_real_inputs_rejected(self):
        with pytest.raises(RealInputError):
            is_consimilar(ONE, I)
        with pytest.raises(RealInputError):
            is_consimilar(I, parse_quat("3"))

    def test_matched_forms_with_invertible_sum(self):
        rng = random.Random(63)
        for _ in range(30):
            a = rand_nonreal(rng)
            b = rand_conjugate(rng, a)
            w = a.conjugate() + b
            if w.is_zero() or w.quadratic_form == 0 or b.is_real():
                continue
            verdict = is_consimilar(a, b)
            assert verdict
            assert verdict.witness == w

    def test_lightlike_sum_not_consimilar_despite_solutions(self):
        rng = random.Random(64)
        for _ in range(20):
            a, b = rand_consim_pair_rank3b(rng)
            assert a.quadratic_form == b.quadratic_form
            w = a.conjugate() + b
            assert not w.is_zero() and w.quadratic_form == 0
            assert not is_consimilar(a, b)
            family = solve_xa_bxbar(a, b)
            assert family.dimension == 1  # solvable, yet no invertible solution
            x = family.at(ONE)
            if not x.is_zero():
                assert x.quadratic_form == 0
            # with matching forms the line is spanned by conj(a)+b itself
            basis = family.basis()
            assert len(basis) == 1
            v = basis[0]
            assert all(
                v.coeffs[i] * w.coeffs[j] == v.coeffs[j] * w.coeffs[i]
                for i in range(4)
                for j in range(4)
            )

    def test_necessity_of_matching_forms(self):
        rng = random.Random(65)
        for _ in range(50):
            a, b = rand_nonreal(rng), rand_nonreal(rng)
            verdict = is_consimilar(a, b)
            if verdict:
                assert a.quadratic_form == b.quadratic_form

    @given(nonreal_quats)
    @settings(max_examples=50)
    def test_reflexive_when_sum_invertible(self, a):
        w = a.conjugate() + a
        if w.quadratic_form != 0:
            assert is_consimilar(a, a)
