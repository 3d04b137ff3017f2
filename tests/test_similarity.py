import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from splitquat import similarity
from splitquat import (
    ExactnessWarning,
    I,
    J,
    K,
    Mat4,
    NonFiniteError,
    NotInvertibleError,
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
    solve_xa_bx,
    t_matrix,
)
from conftest import (
    nonreal_quats,
    quats,
    rand_conjugate,
    rand_invertible,
    rand_nonreal,
    rand_quat,
    rand_rank3_pair,
    rand_similar_pair,
)
from splitquat.solvers import SolutionFamily

from oracles import (
    M2,
    cyclic_witness,
    exact_sqrt,
    family_rows,
    fraction_rref,
    xa_bx_rank2_image,
    xa_bx_rank3_image,
)

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
        family = solve_xa_bx(a, a)
        assert family.at(ONE) == ONE

    def test_matched_lightlike_invariants_pair(self):
        a, b = parse_quat("1+5i+3j+4k"), parse_quat("1+13i+12j+5k")
        assert a.im_squared == b.im_squared == 0
        family = solve_xa_bx(a, b)
        assert family.dimension == 2
        for y in PROBES:
            x = family.at(y)
            assert x * a == b * x

    def test_reference_pair_dimension(self):
        a, b = parse_quat("1+3i+2j+k"), parse_quat("1+3i+j+2k")
        family = solve_xa_bx(a, b)
        assert family.dimension == 2 == 4 - t_matrix(a, b).rank()

    def test_preconditions(self):
        with pytest.raises(RealInputError):
            solve_xa_bx(parse_quat("2"), I)
        assert solve_xa_bx(I, J).dimension == 0  # im_squared differs

    def test_family_substitutions_random(self):
        rng = random.Random(21)
        for _ in range(30):
            a, b = rand_similar_pair(rng)
            family = solve_xa_bx(a, b)
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
            assert solve_xa_bx(a, b).linear_matrix == projector

    def test_pinv_of_t_matrix_closed_form(self):
        # for matched invariants, pinv(T) = (R(a') - L(b')) / (2(|im a|^2 + |im b|^2))
        rng = random.Random(23)
        for _ in range(15):
            a, b = rand_similar_pair(rng)
            t = t_matrix(a, b)
            denom = 2 * (a.im_norm_sq + b.im_norm_sq)
            closed = (right_matrix(a.prime()) - left_matrix(b.prime())) / denom
            assert mat_mp_inverse(t) == closed

    def test_large_shared_real_part_does_not_cancel(self):
        # the terms come from im(a), im(b): a real part of 1.2e6 used to
        # cancel in a*a', b'*b, ... and leave a rank-4 float family
        a = parse_quat("1234567.891+0.3i+7.7j+1.1k", backend="approx")
        b = parse_quat("1234567.891+0.3i+1.1j+7.7k", backend="approx")
        family = solve_xa_bx(a, b)
        assert family.dimension == 2
        for x in family.basis():
            assert (x * a - b * x).is_zero()
        assert all(abs(c) < 100 for term in family.terms for q in term for c in q.coeffs)

    def test_underflowing_denominator_is_a_typed_error(self):
        # 2*(|A|^2 + |B|^2) underflows to 0.0 when the imaginary parts are near 1e-306
        a, b = parse_quat("6.1e-306+6.1e-306k"), parse_quat("6.1e-306-6.1e-306k")
        with pytest.raises(NonFiniteError, match=r"\|A\|\^2 \+ \|B\|\^2 is 0"):
            solve_xa_bx(a, b, eps=0.0)
        assert solve_xa_bx(a.to_exact(), b.to_exact()).dimension == 2

    def test_imaginary_part_terms_give_the_same_matrix(self):
        # the closed form on a and b themselves, as an oracle
        rng = random.Random(24)
        for _ in range(20):
            a, b = rand_similar_pair(rng)
            d = 2 * (a.im_norm_sq + b.im_norm_sq)
            ap, bp = a.prime(), b.prime()
            full = (
                (ONE, ONE),
                (-(ONE / d), a * ap),
                (b / d, ap),
                (bp / d, a),
                (-(bp * b) / d, ONE),
            )
            family = solve_xa_bx(a, b)
            assert family.linear_matrix.rows == tuple(map(tuple, family_rows(full)))
            reference = SolutionFamily(ZERO, full)
            assert family.basis() == reference.basis()
            assert family.dimension == reference.dimension == 2


class TestRankThreeSolver:
    def test_reference_solution_line(self):
        a, b = parse_quat("1+5i+5j+2k"), parse_quat("2+i+j+3k")
        family = solve_xa_bx(a, b)
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
        family = solve_xa_bx(a, b)
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
            family = solve_xa_bx(a, b)
            assert family.dimension == 4 - t_matrix(a, b).rank()
            for y in PROBES:
                x = family.at(y)
                assert x * a == b * x

    def test_preconditions(self):
        assert solve_xa_bx(I, I).dimension == 2  # equal real parts: the rank-2 case
        a, b = parse_quat("1+i"), parse_quat("2+3i")
        assert solve_xa_bx(a, b).dimension == 0  # nonsingular
        for k in range(-20, 21):
            # det(T) has degree 4 and falls under eps at small scales; the pivots have degree 1
            s = 2.0**k
            assert solve_xa_bx(a * s, b * s).dimension == 0, k

    def test_small_and_large_float_pairs(self):
        # |p1|^2 of the auxiliary zero divisor is ~1e-11 here, under eps; the
        # family must not depend on it, at any power-of-two scale
        a = parse_quat("-0.00048828125-0.002197265625i-0.000244140625j+0.002197265625k")
        b = parse_quat("-0.003173828125-0.000244140625i-0.002197265625j+0.001953125k")
        for k in range(-20, 21):
            s = 2.0**k
            assert solve_xa_bx(a * s, b * s).dimension == 1, k
        family, exact = solve_xa_bx(a, b), solve_xa_bx(a.to_exact(), b.to_exact())
        assert exact.dimension == 1
        for y in PROBES:
            assert family.at(y) == exact.at(y)

    def test_underflowing_p1_is_refused(self):
        # |p1|^2 has degree 2: on floats it underflows to 0.0 for this rank-3 pair
        # at every scale from 2^-280 down, and the guard refuses exactly that 0.0;
        # one binade normalization of the pair (ROADMAP item 4) would give the family
        a, b = parse_quat("2+i+k"), parse_quat("1+k")
        assert solve_xa_bx(a, b).dimension == 1
        for e in range(280, 1074):
            s = 2.0**-e
            with pytest.raises(NotInvertibleError, match=r"\|p1\|\^2 is zero"):
                solve_xa_bx(a.to_float() * s, b.to_float() * s, eps=0.0)
            assert solve_xa_bx(a * Fraction(s), b * Fraction(s), eps=0.0).dimension == 1


def _rank(quats) -> int:
    return len(fraction_rref([q.coeffs for q in quats])[1])


def _same_solution_space(a, b, basis, image) -> bool:
    """Every vector solves x*a = b*x in the 2x2 model, and both lists span one space."""
    solves = all(M2.phi(x) @ M2.phi(a) == M2.phi(b) @ M2.phi(x) for x in basis + image)
    return solves and _rank(image) == _rank(basis) == _rank(basis + image) == len(basis)


class TestFamilyImagesInTheMatrixModel:
    """The eliminated bases of solve_xa_bx against closed-form images derived through M2 alone."""

    def test_rank2_image_is_the_witness_and_its_product_with_a(self):
        rng = random.Random(71)
        for n in range(80):
            a, b = rand_similar_pair(rng, k_zero=n % 4 == 0)
            basis = solve_xa_bx(a, b).basis()
            assert len(basis) == 2, (a, b)
            assert _same_solution_space(a, b, basis, xa_bx_rank2_image(a, b)), (a, b)

    def test_rank3_image_is_the_outer_product_of_eigenvectors(self):
        rng = random.Random(72)
        for n in range(80):
            a, b = rand_rank3_pair(rng)
            if n % 2:
                b = rand_conjugate(rng, b)
            basis = solve_xa_bx(a, b).basis()
            assert len(basis) == 1, (a, b)
            assert _same_solution_space(a, b, basis, [xa_bx_rank3_image(a, b)]), (a, b)


class TestDispatch:
    def test_nonsingular_gives_zero_family(self):
        # the zero matrix of the family's backend
        for a, b in ((I, J), (I.to_float(), J.to_float())):
            family = solve_xa_bx(a, b)
            assert family.dimension == 0
            assert family.at(parse_quat("1+2i+3j+4k")) == ZERO
            assert family.linear_matrix == Mat4.zero()
            assert family.linear_matrix.is_exact == a.is_exact
            assert SolutionFamily(family.constant, ()).linear_matrix.is_exact == a.is_exact

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
            assert family.linear_matrix.is_exact
            assert not solve_xa_bx(a.to_float(), b.to_float()).linear_matrix.is_exact, (a, b)

    def test_real_inputs_rejected(self):
        with pytest.raises(RealInputError):
            solve_xa_bx(ONE, I)

    def test_t_matrix_built_at_most_once(self, monkeypatch):
        calls = []
        original = similarity.t_matrix
        monkeypatch.setattr(similarity, "t_matrix", lambda a, b: calls.append(1) or original(a, b))
        cases = (
            (parse_quat("1+3i+2j+k"), parse_quat("1+3i+j+2k"), 2, 0),
            (parse_quat("1+5i+5j+2k"), parse_quat("2+i+j+3k"), 1, 1),
            (I, parse_quat("1+j"), 0, 1),
        )
        for a, b, dimension, builds in cases:
            calls.clear()
            assert solve_xa_bx(a, b).dimension == dimension
            assert len(calls) == builds


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
                    assert repr(is_similar(x, y).witness.coeffs) == repr(cyclic_witness(x, y).coeffs)
                w = is_similar(a, b).witness
                assert w * a == b * w and w.quadratic_form != 0
                # on exact input the basis on phi(a) gives the same witness as that on phi(im a)
                assert w == cyclic_witness(a, b, whole=True)
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
            assert repr(form.conjugator.coeffs) == repr(cyclic_witness(base, form.target).coeffs)
            if form.exact:
                assert form.conjugator == cyclic_witness(base, form.target, whole=True)

    def test_random_lightlike_invariant(self):
        rng = random.Random(51)
        for _ in range(25):
            a, _ = rand_similar_pair(rng, k_zero=True)
            form = canonical_form(a)
            assert form.exact
            assert form.target == SplitQuaternion(a.q0, 1, 1, 0)
            assert form.conjugator * a == form.target * form.conjugator
            assert form.conjugator.quadratic_form != 0

    def test_escalation_below_the_float_range_is_a_typed_error(self):
        # k = 3e-400 and 3e-800 are no squares, and round to 0.0; the second a rounds to 0.0 too
        for text in ("1e-200i+2e-200j", "1e-400i+2e-400j"):
            a = parse_quat(text, backend="exact")
            with pytest.warns(ExactnessWarning), pytest.raises(NonFiniteError, match="im_squared rounds to 0"):
                canonical_form(a)

    @staticmethod
    def _target_bits(a) -> str:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExactnessWarning)
            return repr(canonical_form(a).target.coeffs)

    def test_escalated_target_depends_on_the_class_only(self):
        # a0 and k are rounded once from their exact values, so conjugates share the float target
        rng = random.Random(53)
        escalated = 0
        for _ in range(300):
            a = rand_nonreal(rng)
            if exact_sqrt(abs(a.im_squared)) is not None:
                continue
            escalated += 1
            for _ in range(2):
                b = rand_conjugate(rng, a)
                assert self._target_bits(b) == self._target_bits(a), (a, b)
        assert escalated > 100

    @given(nonreal_quats, quats.filter(lambda p: p.quadratic_form != 0))
    @settings(max_examples=100, deadline=None)
    def test_escalated_target_depends_on_the_class_only_on_any_pair(self, a, p):
        assume(exact_sqrt(abs(a.im_squared)) is None)
        assert self._target_bits(p * a * p.inverse()) == self._target_bits(a)
