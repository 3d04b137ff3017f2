import random
import warnings
from fractions import Fraction

import pytest

from splitquat import (
    CaseMismatchError,
    ExactnessWarning,
    I,
    J,
    K,
    Mat4,
    ONE,
    RealInputError,
    SplitQuaternion,
    ZERO,
    canonical_form,
    is_similar,
    left_matrix,
    mat_mp_inverse,
    nullspace_basis,
    parse_quat,
    right_matrix,
    solve_sim_rank2,
    solve_sim_rank3,
    solve_xa_bx,
    t_matrix,
)
from conftest import (
    rand_conjugate,
    rand_invertible,
    rand_nonreal,
    rand_quat,
    rand_rank3_pair,
    rand_similar_pair,
)
from oracles import cyclic_witness

PROBES = (ONE, I, J, K)


def _dyadic(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), 2 ** rng.randint(0, 3))


def _dyadic_similar_pair(rng: random.Random, k_zero: bool):
    """Non-real a and p*a*p^-1 with dyadic coefficients: |quadratic_form(p)| is a power of two."""
    while True:
        a = SplitQuaternion(*(_dyadic(rng) for _ in range(4)))
        if k_zero:
            a = SplitQuaternion(a.q0, a.q1, a.q1, 0)
        p = SplitQuaternion(*(_dyadic(rng) for _ in range(4)))
        form = abs(p.quadratic_form)
        dyadic_form = form != 0 and all(
            n & (n - 1) == 0 for n in (form.numerator, form.denominator)
        )
        if not a.is_real() and dyadic_form:
            return a, p * a * p.inverse()


def proportional(p: SplitQuaternion, q: SplitQuaternion) -> bool:
    return all(
        p.coeffs[i] * q.coeffs[j] == p.coeffs[j] * q.coeffs[i]
        for i in range(4)
        for j in range(i + 1, 4)
    )


class TestRankTwoSolver:
    def test_commutant_contains_one(self):
        a = parse_quat("i+2j+2k")
        family = solve_sim_rank2(a, a)
        assert family.at(ONE) == ONE

    def test_matched_lightlike_invariants_pair(self):
        a, b = parse_quat("1+5i+3j+4k"), parse_quat("1+13i+12j+5k")
        assert a.im_squared == b.im_squared == 0
        family = solve_sim_rank2(a, b)
        assert family.dimension == 2
        for y in PROBES:
            x = family.at(y)
            assert x * a == b * x

    def test_reference_pair_dimension(self):
        a, b = parse_quat("1+3i+2j+k"), parse_quat("1+3i+j+2k")
        family = solve_sim_rank2(a, b)
        assert family.dimension == 2 == 4 - t_matrix(a, b).rank()

    def test_preconditions(self):
        with pytest.raises(RealInputError):
            solve_sim_rank2(parse_quat("2"), I)
        with pytest.raises(CaseMismatchError):
            solve_sim_rank2(I, J)  # im_squared differs

    def test_family_substitutions_random(self):
        rng = random.Random(21)
        for _ in range(30):
            a, b = rand_similar_pair(rng)
            family = solve_sim_rank2(a, b)
            for y in PROBES:
                x = family.at(y)
                assert x * a == b * x
            y = rand_quat(rng)
            x = family.at(y)
            assert x * a == b * x

    def test_linear_part_is_kernel_projector(self):
        # the family's linear map equals E - T+ T, the projector onto ker T
        rng = random.Random(22)
        for _ in range(15):
            a, b = rand_similar_pair(rng)
            t = t_matrix(a, b)
            projector = Mat4.identity() - mat_mp_inverse(t) @ t
            assert solve_sim_rank2(a, b).linear_matrix == projector

    def test_pinv_of_t_matrix_closed_form(self):
        # for matched invariants, pinv(T) = (R(a') - L(b')) / (2(|im a|^2 + |im b|^2))
        rng = random.Random(23)
        for _ in range(15):
            a, b = rand_similar_pair(rng)
            t = t_matrix(a, b)
            denom = 2 * (a.im_norm_sq + b.im_norm_sq)
            closed = (right_matrix(a.prime()) - left_matrix(b.prime())) / denom
            assert mat_mp_inverse(t) == closed


class TestRankThreeSolver:
    def test_reference_solution_line(self):
        a, b = parse_quat("1+5i+5j+2k"), parse_quat("2+i+j+3k")
        family = solve_sim_rank3(a, b)
        assert family.dimension == 1
        direction = parse_quat("-3+i+j+3k")
        x1 = family.at(ONE)
        assert x1 == 2 * direction
        for y in PROBES:
            x = family.at(y)
            assert x * a == b * x
            assert proportional(x, direction)

    def test_second_reference_pair(self):
        a, b = parse_quat("2+i+k"), parse_quat("1+k")
        family = solve_sim_rank3(a, b)
        assert family.dimension == 1 == 4 - t_matrix(a, b).rank()
        for y in PROBES:
            x = family.at(y)
            assert x * a == b * x

    def test_auxiliary_element_is_lightlike(self):
        rng = random.Random(31)
        for _ in range(20):
            a, b = rand_rank3_pair(rng)
            shift = b.quadratic_form - a.quadratic_form
            p = shift + 2 * (a.q0 - b.q0) * a
            assert not p.is_zero()
            assert p.quadratic_form == 0

    def test_random_rank3_families(self):
        rng = random.Random(32)
        for _ in range(30):
            a, b = rand_rank3_pair(rng)
            family = solve_sim_rank3(a, b)
            assert family.dimension == 4 - t_matrix(a, b).rank()
            for y in PROBES:
                x = family.at(y)
                assert x * a == b * x

    def test_preconditions(self):
        with pytest.raises(CaseMismatchError):
            solve_sim_rank3(I, I)  # equal real parts
        with pytest.raises(CaseMismatchError):
            solve_sim_rank3(parse_quat("1+i"), parse_quat("2+3i"))  # nonsingular


class TestDispatch:
    def test_nonsingular_gives_zero_family(self):
        family = solve_xa_bx(I, J)
        assert family.dimension == 0
        assert family.at(parse_quat("1+2i+3j+4k")) == ZERO

    def test_dispatch_matches_nullspace(self):
        rng = random.Random(33)
        pairs = []
        for _ in range(12):
            pairs.append(rand_similar_pair(rng))
            pairs.append(rand_rank3_pair(rng))
            pairs.append((rand_nonreal(rng), rand_nonreal(rng)))
        for a, b in pairs:
            family = solve_xa_bx(a, b)
            t = t_matrix(a, b)
            assert family.dimension == len(family.basis()) == 4 - t.rank()
            for v in nullspace_basis(t):
                x = SplitQuaternion(*v)
                assert x * a == b * x

    def test_real_inputs_rejected(self):
        with pytest.raises(RealInputError):
            solve_xa_bx(ONE, I)


class TestIsSimilar:
    def test_reference_pair_with_witness(self):
        a, b = parse_quat("1+5i+3j+4k"), parse_quat("1+13i+12j+5k")
        verdict = is_similar(a, b)
        assert verdict
        w = verdict.witness
        assert w * a == b * w
        assert w.quadratic_form != 0

    def test_invariant_mismatch(self):
        assert not is_similar(I, J)
        assert not is_similar(parse_quat("1+i"), parse_quat("2+i"))

    def test_reflexive_with_unit_witness(self):
        q = parse_quat("1+3i+2j+k")
        for x in (q, q.to_float()):
            verdict = is_similar(x, x)
            assert verdict and verdict.witness == ONE
        rng = random.Random(45)
        for k_zero in (False, True):
            for _ in range(10):
                a, _ = rand_similar_pair(rng, k_zero=k_zero)
                for x in (a, a.to_float()):
                    assert is_similar(x, x).witness == ONE

    def test_real_cases(self):
        two = parse_quat("2")
        assert is_similar(two, two)
        assert is_similar(two, two).witness == ONE
        assert not is_similar(two, parse_quat("3"))
        assert not is_similar(two, parse_quat("2+i+j"))  # conjugation fixes the reals

    def test_symmetric_and_transitive_on_matched_samples(self):
        rng = random.Random(41)
        for _ in range(20):
            a, b = rand_similar_pair(rng)
            c = rand_conjugate(rng, a)
            assert bool(is_similar(a, b)) == bool(is_similar(b, a)) == True
            assert is_similar(a, c) and is_similar(b, c)

    def test_witnesses_on_random_matched_pairs(self):
        rng = random.Random(42)
        for k_zero in (False, True):
            for _ in range(15):
                a, b = rand_similar_pair(rng, k_zero=k_zero)
                verdict = is_similar(a, b)
                assert verdict
                w = verdict.witness
                assert w * a == b * w and w.quadratic_form != 0

    def test_seed_determinism(self):
        a, b = parse_quat("1+5i+3j+4k"), parse_quat("1+13i+12j+5k")
        w1 = is_similar(a, b).witness
        w2 = is_similar(a, b).witness
        assert w1 == w2

    def test_witness_is_cyclic_basis_witness(self):
        # the witness is phi^-1(P_B P_A^-1) of the 2x2 model, bit for bit on both backends
        rng = random.Random(44)
        counts = {"plus": 0, "minus": 0, "zero": 0}
        for k_zero in (False, True) * 2:
            for _ in range(10):
                a, b = rand_similar_pair(rng, k_zero=k_zero)
                k = a.im_squared
                counts["zero" if k == 0 else "plus" if k > 0 else "minus"] += 1
                for x, y in ((a, b), (a.to_float(), b.to_float())):
                    assert is_similar(x, y).witness == cyclic_witness(x, y)
                w = is_similar(a, b).witness
                assert w * a == b * w and w.quadratic_form != 0
        assert min(counts.values()) > 0

    def test_witness_is_scale_invariant(self):
        # a dyadic pair scaled by 2^k is exact in floats; its float witness must not move
        rng = random.Random(46)
        for k_zero in (False, True):
            for _ in range(10):
                a, b = _dyadic_similar_pair(rng, k_zero)
                base = is_similar(a.to_float(), b.to_float())
                assert base
                for k in range(-20, 21):
                    s = 2.0**k
                    verdict = is_similar(a.to_float() * s, b.to_float() * s)
                    assert verdict
                    assert verdict.witness == base.witness

    def test_conjugation_preserves_invariants(self):
        rng = random.Random(43)
        for _ in range(50):
            a = rand_quat(rng)
            q = rand_invertible(rng)
            image = q * a * q.inverse()
            assert image.re == a.re
            assert image.im_squared == a.im_squared


class TestCanonicalForm:
    def test_lightlike_invariant_case(self):
        a = parse_quat("1+5i+3j+4k")
        form = canonical_form(a)
        assert form.target == parse_quat("1+i+j")
        assert form.exact
        assert form.conjugator * a == form.target * form.conjugator
        assert form.conjugator.quadratic_form != 0

    def test_negative_invariant_case(self):
        a = parse_quat("1+3i+2j+k")  # im_squared = -4
        form = canonical_form(a)
        assert form.target == parse_quat("1+2i")
        assert form.exact
        assert form.conjugator * a == form.target * form.conjugator

    def test_positive_invariant_escalates(self):
        a = parse_quat("2+i+2j+2k")  # im_squared = 7, not a rational square
        with pytest.warns(ExactnessWarning):
            form = canonical_form(a)
        assert not form.exact
        assert form.target.q2 == pytest.approx(7 ** 0.5)
        residual = form.conjugator * a - form.target * form.conjugator
        assert max(abs(c) for c in residual.coeffs) <= 1e-9

    def test_idempotent_on_targets(self):
        for text in ["1+i+j", "1+2i", "3+2j"]:
            t = parse_quat(text)
            form = canonical_form(t)
            assert form.target == t
            assert form.conjugator.quadratic_form != 0
            assert form.conjugator * t == t * form.conjugator

    def test_real_input_rejected(self):
        with pytest.raises(RealInputError):
            canonical_form(ONE)

    def test_step_one_variants(self):
        # a3 = 0 with equal/opposite i and j parts, and a3 != 0
        for text in ["2+3i+3j", "2+3i-3j", "1+5i+3j+4k", "-1-5i+4j-3k"]:
            a = parse_quat(text)
            assert a.im_squared == 0
            form = canonical_form(a)
            assert form.target == SplitQuaternion(a.q0, 1, 1, 0)
            assert form.conjugator * a == form.target * form.conjugator
            assert form.conjugator.quadratic_form != 0

    def test_unit_coefficient_paths(self):
        # lightlike imaginary parts +-(i - j) and +-(i + j) with unit coefficients
        for text in ["i-j", "5-i+j", "i+j", "-i-j"]:
            a = parse_quat(text)
            form = canonical_form(a)
            assert form.conjugator * a == form.target * form.conjugator

    def test_conjugator_is_cyclic_basis_witness(self):
        # one construction on all three branches: phi^-1(P_target P_a^-1), bit for bit
        for text in ["1+3i+2j+k", "3+i+2j+k", "1+5i+3j+4k", "2+3i-3j", "2+i+2j+2k"]:
            a = parse_quat(text)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                form = canonical_form(a)
            base = a if form.exact else a.to_float()
            assert form.conjugator == cyclic_witness(base, form.target)

    def test_random_lightlike_invariant(self):
        rng = random.Random(51)
        for _ in range(25):
            a, _ = rand_similar_pair(rng, k_zero=True)
            form = canonical_form(a)
            assert form.exact
            assert form.target == SplitQuaternion(a.q0, 1, 1, 0)
            assert form.conjugator * a == form.target * form.conjugator
            assert form.conjugator.quadratic_form != 0
