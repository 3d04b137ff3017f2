import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from splitquat import (
    I,
    J,
    K,
    NotLightlikeError,
    ONE,
    SplitQuaternion,
    ZERO,
    ZeroInputError,
    left_matrix,
    linear_system_consistent,
    mp_inverse,
    parse_quat,
    right_matrix,
    solve_ax0,
    solve_axb,
    solve_axd,
    solve_xad,
)

from conftest import lightlike_quats, quats, rand_lightlike, rand_quat

PROBES = (ZERO, ONE, I, J, K, ONE + I + J + K)


def assert_family_solves(family, residual, rng=None, extra_probes=20):
    for y in PROBES:
        assert residual(family.at(y)).is_zero(0.0), y
    rng = rng or random.Random(77)
    for _ in range(extra_probes):
        y = rand_quat(rng)
        assert residual(family.at(y)).is_zero(0.0), y


class TestPreconditions:
    def test_zero_coefficient(self):
        with pytest.raises(ZeroInputError):
            solve_ax0(ZERO)
        with pytest.raises(ZeroInputError):
            solve_axb(ZERO, ONE + J, ONE)

    def test_invertible_coefficient_rejected(self):
        with pytest.raises(NotLightlikeError):
            solve_axd(parse_quat("2"), ONE)
        with pytest.raises(NotLightlikeError):
            solve_axb(ONE + J, parse_quat("1+3i+2j+k"), ONE)


class TestAxb:
    def test_solvable_reference_case(self):
        a = b = d = ONE + J
        outcome = solve_axb(a, b, d)
        assert outcome.solvable
        x0 = outcome.family.at(ZERO)
        assert x0 == (ONE + J) / 4
        assert a * x0 * b == d
        assert_family_solves(outcome.family, lambda x: a * x * b - d)

    def test_unsolvable_reference_case(self):
        a = b = ONE + J
        d = ONE - J
        outcome = solve_axb(a, b, d)
        assert not outcome.solvable
        assert not outcome.certificate.is_zero(0.0)

    def test_homogeneous_always_solvable(self):
        rng = random.Random(5)
        for _ in range(10):
            a, b = rand_lightlike(rng), rand_lightlike(rng)
            outcome = solve_axb(a, b, ZERO)
            assert outcome.solvable
            assert outcome.family.constant == ZERO
            assert_family_solves(outcome.family, lambda x, a=a, b=b: a * x * b, extra_probes=5)

    def test_constructed_rhs_is_solvable(self):
        rng = random.Random(6)
        for _ in range(25):
            a, b, w = rand_lightlike(rng), rand_lightlike(rng), rand_quat(rng)
            d = a * w * b
            outcome = solve_axb(a, b, d)
            assert outcome.solvable
            assert_family_solves(
                outcome.family, lambda x, a=a, b=b, d=d: a * x * b - d, extra_probes=5
            )

    def test_simplified_constant_matches_projected_form(self):
        # when solvable, a+*d*b+ equals conj(c1)*d*conj(u1) / (4|c1|^2|u1|^2)
        rng = random.Random(7)
        for _ in range(25):
            a, b, w = rand_lightlike(rng), rand_lightlike(rng), rand_quat(rng)
            d = a * w * b
            outcome = solve_axb(a, b, d)
            assert outcome.solvable
            c1_conj = SplitQuaternion(a.q0, -a.q1, 0, 0)
            u1_conj = SplitQuaternion(b.q0, -b.q1, 0, 0)
            denom = 4 * (a.q0 ** 2 + a.q1 ** 2) * (b.q0 ** 2 + b.q1 ** 2)
            assert outcome.family.constant == c1_conj * d * u1_conj / denom

    def test_verdict_matches_elimination(self):
        rng = random.Random(8)
        for _ in range(40):
            a, b, d = rand_lightlike(rng), rand_lightlike(rng), rand_quat(rng)
            outcome = solve_axb(a, b, d)
            consistent = linear_system_consistent(left_matrix(a) @ right_matrix(b), d.coeffs)
            assert outcome.solvable == consistent
            assert bool(outcome) == consistent
            if not outcome.solvable:
                assert not outcome.certificate.is_zero(0.0)

    def test_dimension_matches_elimination(self):
        rng = random.Random(9)
        for _ in range(25):
            a, b = rand_lightlike(rng), rand_lightlike(rng)
            outcome = solve_axb(a, b, ZERO)
            m = left_matrix(a) @ right_matrix(b)
            assert outcome.family.dimension == len(outcome.family.basis()) == 4 - m.rank()


class TestAx0:
    def test_reference_kernel(self):
        family = solve_ax0(ONE + J)
        assert family.dimension == 2
        half = Fraction(1, 2)
        assert family.at(ONE) == SplitQuaternion(half, 0, -half, 0)
        for y in (ONE, I, J, K):
            assert ((ONE + J) * family.at(y)).is_zero(0.0)

    def test_kernel_element_nontrivial(self):
        family = solve_ax0(ONE + J)
        assert not family.at(ONE).is_zero(0.0)

    def test_dimension_is_nullity_of_left_matrix(self):
        rng = random.Random(10)
        for _ in range(25):
            a = rand_lightlike(rng)
            family = solve_ax0(a)
            assert family.dimension == 4 - left_matrix(a).rank() == 2
            assert_family_solves(family, lambda x, a=a: a * x, extra_probes=5)

    @given(lightlike_quats())
    @settings(max_examples=50)
    def test_closed_form_family(self, a):
        family = solve_ax0(a)
        pa = mp_inverse(a)
        c1 = SplitQuaternion(a.q0, a.q1, 0, 0)
        c2 = SplitQuaternion(a.q2, a.q3, 0, 0)
        expected_left = (ONE - c2 * c1.inverse() * J) / 2
        assert family.terms[0][0] == ONE - pa * a == expected_left

    @staticmethod
    def _assert_axd_at_zero(a, y):
        zero = ZERO if a.is_exact else ZERO.to_float()
        kernel, family = solve_ax0(a), solve_axd(a, zero).family
        parts = (
            lambda f: f.constant.coeffs,
            lambda f: [(left.coeffs, right.coeffs) for left, right in f.terms],
            lambda f: f.linear_matrix.rows,
            lambda f: [q.coeffs for q in f.basis()],
            lambda f: f.at(y).coeffs,
        )
        for part in parts:
            assert repr(part(kernel)) == repr(part(family)), (a, y)
        # the constant is the backend's 0 itself, with no -0.0 from a+*0 on floats
        assert repr(kernel.constant.coeffs) == repr(zero.coeffs), a

    def test_is_axd_at_zero(self):
        rng = random.Random(11)
        for _ in range(40):
            a, y = rand_lightlike(rng), rand_quat(rng)
            self._assert_axd_at_zero(a, y)
            self._assert_axd_at_zero(a.to_float(), y.to_float())

    @given(lightlike_quats(), quats)
    @settings(max_examples=50)
    def test_is_axd_at_zero_property(self, a, y):
        self._assert_axd_at_zero(a, y)
        self._assert_axd_at_zero(a.to_float(), y.to_float())

    def test_float_constant_is_a_positive_zero(self):
        # a+*0 is (-0.0, 0.0, -0.0, 0.0) here: every product in its first and third coefficients is -0.0
        a = SplitQuaternion(-1.0, -1.0, -1.0, -1.0)
        assert repr(solve_ax0(a).constant.coeffs) == repr((0.0,) * 4)
        for solver in (solve_axd, solve_xad):
            assert repr(solver(a, ZERO.to_float()).family.constant.coeffs) == repr((0.0,) * 4), solver


class TestOneSided:
    def test_solvable_case(self):
        a = ONE + J
        outcome = solve_axd(a, a)
        assert outcome.solvable
        x0 = outcome.family.at(ZERO)
        assert x0 == (ONE + J) / 2
        assert a * x0 == a

    def test_unsolvable_case(self):
        outcome = solve_axd(ONE + J, ONE)
        assert not outcome.solvable
        # the projector sends 1 to (1+j)/2 != 1
        assert outcome.certificate == (ONE + J) / 2 - ONE

    def test_homogeneous_right_problem(self):
        rng = random.Random(11)
        for _ in range(10):
            a = rand_lightlike(rng)
            outcome = solve_xad(a, ZERO)
            assert outcome.solvable
            assert outcome.family.dimension == 2 == 4 - right_matrix(a).rank()
            assert_family_solves(outcome.family, lambda x, a=a: x * a, extra_probes=5)

    def test_mirror_symmetry(self):
        rng = random.Random(12)
        for _ in range(20):
            a, w = rand_lightlike(rng), rand_quat(rng)
            left_out = solve_axd(a, a * w)
            right_out = solve_xad(a, w * a)
            assert left_out.solvable and right_out.solvable
            assert_family_solves(
                left_out.family, lambda x, a=a, d=a * w: a * x - d, extra_probes=5
            )
            assert_family_solves(
                right_out.family, lambda x, a=a, d=w * a: x * a - d, extra_probes=5
            )

    def test_verdicts_match_elimination(self):
        rng = random.Random(13)
        for _ in range(30):
            a, d = rand_lightlike(rng), rand_quat(rng)
            assert solve_axd(a, d).solvable == linear_system_consistent(left_matrix(a), d.coeffs)
            assert solve_xad(a, d).solvable == linear_system_consistent(right_matrix(a), d.coeffs)


class TestSolutionFamilyType:
    def test_dimension_of_empty_family(self):
        from splitquat.solvers import SolutionFamily

        family = SolutionFamily(ZERO, ())
        assert family.dimension == 0
        assert family.basis() == []
        assert family.at(parse_quat("1+2i+3j+4k")) == ZERO

    def test_basis_spans_instantiations(self):
        family = solve_ax0(ONE + J)
        basis = family.basis()
        assert len(basis) == family.dimension
        for v in basis:
            assert ((ONE + J) * v).is_zero(0.0)
