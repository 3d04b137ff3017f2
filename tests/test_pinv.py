import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings

from splitquat import (
    IllConditionedWarning,
    J,
    K,
    NonFiniteError,
    NotLightlikeError,
    ONE,
    SplitQuaternion,
    ZERO,
    ZeroInputError,
    check_penrose_coherence,
    left_matrix,
    mat_mp_inverse,
    mp_inverse,
    parse_quat,
    projectors,
    solve_ax0,
    solve_axb,
    solve_axd,
    solve_xad,
)
from splitquat.roots import is_idempotent

from conftest import lightlike_quats, quats, rand_causal, rand_lightlike

rng_seed = 2024


class TestBranches:
    def test_zero(self):
        assert mp_inverse(ZERO) == ZERO

    def test_invertible_real(self):
        assert mp_inverse(SplitQuaternion(2, 0, 0, 0)) == SplitQuaternion(Fraction(1, 2), 0, 0, 0)

    def test_invertible_is_two_sided(self):
        q = parse_quat("1+3i+2j+k")
        p = mp_inverse(q)
        assert q * p == ONE
        assert p * q == ONE

    def test_zero_divisor_closed_form(self):
        # c1 = c2 = 1, so the inverse is (conj(c1) + c2*j)/4 = (1+j)/4
        assert mp_inverse(ONE + J) == (ONE + J) / 4

    def test_zero_divisor_matches_matrix_oracle(self):
        assert left_matrix(mp_inverse(ONE + J)) == mat_mp_inverse(left_matrix(ONE + J))

    @given(quats)
    @settings(max_examples=100)
    def test_quaternion_penrose_identities(self, a):
        p = mp_inverse(a)
        assert a * p * a == a
        assert p * a * p == p

    @given(quats.filter(lambda q: q.quadratic_form != 0))
    def test_double_inverse_on_invertibles(self, a):
        assert mp_inverse(mp_inverse(a)) == a

    @given(lightlike_quats())
    @settings(max_examples=100)
    def test_lightlike_projector_closed_forms(self, a):
        p = mp_inverse(a)
        c1_conj = SplitQuaternion(a.q0, -a.q1, 0, 0)
        c1 = SplitQuaternion(a.q0, a.q1, 0, 0)
        c2 = SplitQuaternion(a.q2, a.q3, 0, 0)
        assert a * p == (ONE + c2 * c1_conj.inverse() * J) / 2
        assert p * a == (ONE + c2 * c1.inverse() * J) / 2

    def test_ill_conditioned_warning_band(self):
        q = SplitQuaternion(1.0, 0.0, 1.0, 1e-3)  # form = -1e-6, inside (eps, 100*eps] for eps=1e-8
        with pytest.warns(IllConditionedWarning):
            mp_inverse(q, eps=1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mp_inverse(q.to_exact(), eps=1e-8)  # exact backend never warns

    @pytest.mark.parametrize("q0", [0.0, 1e-170])
    def test_float_a_plus_over_a_vanishing_q0_q1_pair_raises(self, q0):
        # q0 + 1e-5j is lightlike at eps, but 4*(q0^2 + q1^2) is 0 or underflows to 0
        a = SplitQuaternion(q0, 0.0, 1e-5, 0.0)
        one, lightlike = ONE.to_float(), (ONE + J).to_float()
        calls = (
            lambda: mp_inverse(a),
            lambda: projectors(a),
            lambda: solve_ax0(a),
            lambda: solve_axd(a, one),
            lambda: solve_xad(a, one),
            lambda: solve_axb(a, lightlike, one),
            lambda: solve_axb(lightlike, a, one),
        )
        for call in calls:
            with pytest.raises(NonFiniteError, match="not finite"):
                call()


class TestProjectors:
    def test_symmetric_example(self):
        left, right = projectors(ONE + J)
        assert left == (ONE + J) / 2
        assert right == (ONE + J) / 2

    def test_asymmetric_example(self):
        # a = 1+i+j+k: c2/conj(c1) = (1+i)/(1-i) = i and c2/c1 = 1
        left, right = projectors(parse_quat("1+i+j+k"))
        assert left == (ONE + K) / 2
        assert right == (ONE + J) / 2

    def test_errors(self):
        with pytest.raises(ZeroInputError):
            projectors(ZERO)
        with pytest.raises(NotLightlikeError):
            projectors(parse_quat("2"))

    @given(lightlike_quats())
    @settings(max_examples=50)
    def test_projectors_are_idempotent_members(self, a):
        left, right = projectors(a)
        assert left * left == left
        assert right * right == right
        assert is_idempotent(left)
        assert is_idempotent(right)
        p = mp_inverse(a)
        assert a * p * a == a
        assert p * a * p == p


class TestMatrixCoherence:
    def test_report_names_each_identity_in_order(self):
        assert list(check_penrose_coherence(parse_quat("1+j"))) == [
            "L(a)L(a+)L(a) = L(a)",
            "L(a+)L(a)L(a+) = L(a+)",
            "L(a)L(a+) symmetric",
            "L(a+)L(a) symmetric",
            "R(a)R(a+)R(a) = R(a)",
            "R(a+)R(a)R(a+) = R(a+)",
            "R(a)R(a+) symmetric",
            "R(a+)R(a) symmetric",
            "pinv(L(a)) = L(a+)",
            "pinv(R(a)) = R(a+)",
            "pinv(L(a)R(b)) = L(a+)R(b+)",
        ]

    @pytest.mark.parametrize("text", ["1+j", "2", "1+3i+2j+k", "i+j", "1+2i+3j+4k"])
    def test_reports_all_pass(self, text):
        report = check_penrose_coherence(parse_quat(text))
        assert all(report.values()), report

    def test_invertible_inverse_agrees(self):
        q = SplitQuaternion(2, 0, 0, 0)
        report = check_penrose_coherence(q)
        assert report["pinv(L(a)) = L(a+)"]

    def test_all_causal_classes(self):
        rng = random.Random(rng_seed)
        for i in range(60):
            a = rand_causal(rng, ("lightlike", "timelike", "spacelike")[i % 3])
            report = check_penrose_coherence(a)
            assert all(report.values()), (a, report)

    def test_product_identity_with_second_argument(self):
        rng = random.Random(rng_seed + 1)
        for _ in range(20):
            a, b = rand_lightlike(rng), rand_lightlike(rng)
            report = check_penrose_coherence(a, b)
            assert report["pinv(L(a)R(b)) = L(a+)R(b+)"]

    @given(quats)
    @settings(max_examples=100, deadline=None)
    def test_left_matrix_coherence_everywhere(self, a):
        assert left_matrix(mp_inverse(a)) == mat_mp_inverse(left_matrix(a))
