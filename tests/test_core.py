import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings

from splitquat import (
    CausalClass,
    I,
    J,
    K,
    Mat4,
    NonFiniteError,
    NotInvertibleError,
    ONE,
    SplitQuaternion,
    SplitQuaternionError,
    ZERO,
    is_consimilar,
    mp_inverse,
    parse_quat,
    solve_ax0,
    to_polar,
)

from conftest import lightlike_quats, quats, rand_quat


class TestMultiplicationTable:
    def test_defining_relations(self):
        assert I * I == -ONE
        assert J * J == ONE
        assert K * K == ONE
        assert I * J == K
        assert J * I == -K
        assert J * K == -I
        assert K * J == I
        assert K * I == J
        assert I * K == -J

    def test_identity(self):
        q = parse_quat("2-3i+5j-7k")
        assert ONE * q == q
        assert q * ONE == q

    def test_lightlike_square_vanishes(self):
        # (i+j)^2 expands to -1 + k - k + 1 = 0
        assert (I + J) * (I + J) == ZERO

    def test_complex_commutation_with_j(self):
        # j*(2+5i) = 2j - 5k = (2-5i)*j
        z = SplitQuaternion(2, 5, 0, 0)
        assert J * z == z.conjugate() * J


class TestInvolutions:
    def test_conjugate_componentwise(self):
        assert parse_quat("1+2i+3j+4k").conjugate() == parse_quat("1-2i-3j-4k")

    def test_prime_componentwise(self):
        assert parse_quat("1+2i+3j+4k").prime() == parse_quat("1-2i+3j+4k")

    @given(quats)
    def test_involutions_are_involutive(self, q):
        assert q.conjugate().conjugate() == q
        assert q.prime().prime() == q

    @given(quats, quats)
    def test_conjugate_antihomomorphism(self, p, q):
        assert (p * q).conjugate() == q.conjugate() * p.conjugate()

    @given(quats)
    def test_re_im_split(self, q):
        assert q.re == q.q0
        assert q.im + q.re == q
        assert (q + q.conjugate()) / 2 == SplitQuaternion.from_scalar(q.re)
        assert (q - q.conjugate()) / 2 == q.im


class TestInvariants:
    def test_known_values(self):
        assert parse_quat("1+3i+2j+k").im_squared == Fraction(-4)
        assert parse_quat("1+2i+3j+4k").quadratic_form == Fraction(-20)
        assert (I + J).quadratic_form == 0

    @given(quats, quats)
    @settings(max_examples=100)
    def test_quadratic_form_multiplicative(self, p, q):
        assert (p * q).quadratic_form == p.quadratic_form * q.quadratic_form

    @given(quats, quats, quats)
    @settings(max_examples=100)
    def test_associativity(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(quats)
    @settings(max_examples=100)
    def test_im_square_is_scalar_invariant(self, q):
        assert q.im * q.im == SplitQuaternion.from_scalar(q.im_squared)

    @given(quats)
    def test_prime_preserves_quadratic_form(self, q):
        assert q.prime().quadratic_form == q.quadratic_form

    @given(quats)
    def test_im_norm_sq_nonnegative(self, q):
        assert q.im_norm_sq >= 0
        assert (q.im_norm_sq == 0) == q.is_real()

    def test_quadratic_form_equals_conjugate_product(self):
        rng = random.Random(11)
        for _ in range(25):
            q = rand_quat(rng)
            assert q * q.conjugate() == SplitQuaternion.from_scalar(q.quadratic_form)
            assert q.conjugate() * q == SplitQuaternion.from_scalar(q.quadratic_form)

    def test_multiplicative_on_float_backend(self):
        rng = random.Random(12)
        for _ in range(100):
            p = rand_quat(rng).to_float()
            q = rand_quat(rng).to_float()
            lhs = (p * q).quadratic_form
            rhs = p.quadratic_form * q.quadratic_form
            assert abs(lhs - rhs) <= 1e-6 * (1 + abs(rhs))


class TestClassification:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("i+j", CausalClass.LIGHTLIKE),
            ("2", CausalClass.TIMELIKE),
            ("j", CausalClass.SPACELIKE),
            ("1+3i+2j+k", CausalClass.TIMELIKE),
            ("1+2i+3j+4k", CausalClass.SPACELIKE),
        ],
    )
    def test_examples(self, text, expected):
        assert parse_quat(text).classify() == expected

    def test_float_tolerance(self):
        q = SplitQuaternion(1.0, 0.0, 1.0 + 1e-12, 0.0)
        assert q.classify() == CausalClass.LIGHTLIKE
        assert q.classify(eps=1e-15) == CausalClass.SPACELIKE

    @given(lightlike_quats())
    def test_lightlike_strategy_is_lightlike(self, q):
        assert q.classify() == CausalClass.LIGHTLIKE


class TestComplexPair:
    def test_split_values(self):
        z1, z2 = parse_quat("1+2i+3j+4k").to_complex_pair()
        assert z1 == SplitQuaternion(1, 2, 0, 0)
        assert z2 == SplitQuaternion(3, 4, 0, 0)
        # Python complex numbers and plain scalars are components too
        assert SplitQuaternion.from_complex_pair(1 + 2j, 3 + 4j) == parse_quat("1.0+2i+3j+4k")
        assert SplitQuaternion.from_complex_pair(Fraction(1, 2), 3) == parse_quat("1/2+3j")

    @given(quats)
    def test_roundtrip(self, q):
        z1, z2 = q.to_complex_pair()
        assert SplitQuaternion.from_complex_pair(z1, z2) == q
        assert z1 + z2 * J == q

    @given(quats)
    def test_form_is_difference_of_moduli(self, q):
        z1, z2 = q.to_complex_pair()
        assert q.quadratic_form == z1.quadratic_form - z2.quadratic_form

    def test_rejects_noncomplex_components(self):
        with pytest.raises(ValueError):
            SplitQuaternion.from_complex_pair(J, ONE)


class TestInverse:
    def test_round_trips(self):
        q = parse_quat("1+3i+2j+k")
        assert q * q.inverse() == ONE
        assert q.inverse() * q == ONE

    def test_zero_divisor_rejected(self):
        with pytest.raises(NotInvertibleError):
            (ONE + J).inverse()


class TestValueSemantics:
    def test_float_contamination(self):
        q = SplitQuaternion(Fraction(1, 2), 0, 0.5, 0)
        assert not q.is_exact
        assert all(isinstance(c, float) for c in q.coeffs)

    def test_exact_normalization(self):
        q = SplitQuaternion(1, Fraction(1, 2), 0, 0)
        assert q.is_exact
        assert all(isinstance(c, Fraction) for c in q.coeffs)
        with pytest.raises(TypeError, match="bool is not a scalar"):
            SplitQuaternion(True, 0, 0, 0)

    def test_to_float_and_back(self):
        q = parse_quat("1/2+3i")
        assert q.to_float().to_exact() == q

    def test_scalar_arithmetic(self):
        q = parse_quat("1+j")
        assert 2 * q == q * 2 == q + q
        assert q / 2 == SplitQuaternion(Fraction(1, 2), 0, Fraction(1, 2), 0)
        assert 1 + q == q + 1 == parse_quat("2+j")
        assert 1 - q == -(q - 1)
        operations = (
            lambda: q + "x",
            lambda: q - "x",
            lambda: "x" - q,
            lambda: q * "x",
            lambda: "x" * q,
            lambda: q / "x",
        )
        for operation in operations:
            with pytest.raises(TypeError):
                operation()

    def test_int_factors_of_float_values_are_float_literals(self):
        # q*n, n*q and q/n on a float q compute with float(n), as q*float(n)
        # and q*Fraction(n) do: same bits, signed zeros, or the same error,
        # typed as NonFiniteError where float() raises OverflowError
        def outcome(compute):
            try:
                return tuple(map(repr, compute().coeffs))
            except Exception as exc:
                return type(exc)

        def reference(compute):
            result = outcome(compute)
            return NonFiniteError if result is OverflowError else result

        rng = random.Random(31)
        sizes = (0.0, -0.0, 1.0, 1e3, 1e300)
        for _ in range(200):
            q = SplitQuaternion(*(rng.uniform(-1, 1) * rng.choice(sizes) for _ in range(4)))
            for n in (0, 1, -1, 4, 2**60 + 1, 10**400):
                for scalar in (float, Fraction):
                    times = reference(lambda: SplitQuaternion(*(c * scalar(n) for c in q.coeffs)))
                    over = reference(lambda: SplitQuaternion(*(c / scalar(n) for c in q.coeffs)))
                    assert outcome(lambda: q * n) == outcome(lambda: n * q) == times, (q, n)
                    assert outcome(lambda: q / n) == over, (q, n)
        assert all(type(c) is Fraction for c in (parse_quat("1/3+j") * 4 / 3).coeffs)

    def test_non_finite_float_values_raise(self):
        big = SplitQuaternion(1e200, 0.0, 1e200, 0.0)
        with pytest.raises(NonFiniteError):
            big.quadratic_form
        with pytest.raises(NonFiniteError):
            big.im_squared
        with pytest.raises(NonFiniteError):
            SplitQuaternion(0.0, 1e200, 0.0, 0.0).im_norm_sq
        with pytest.raises(NonFiniteError):
            big * big
        with pytest.raises(NonFiniteError):
            SplitQuaternion(float("nan"), 0, 0, 0)
        # the quadratic form overflows inside the inverse and the consimilarity test
        with pytest.raises(NonFiniteError):
            mp_inverse(parse_quat("1e200+i+j+k"))
        with pytest.raises(NonFiniteError):
            is_consimilar(parse_quat("1e200+i+j+k"), parse_quat("1e200+2i+2j+2k"))
        huge = SplitQuaternion(10**400, 0, 10**400, 0)
        assert huge.quadratic_form == 0 and (huge * huge).is_exact

    def test_exact_values_past_the_float_range_are_typed_errors(self):
        # an exact value rounded to a float where it meets one: to_float, the
        # ring operations, Mat4 and a float family's at, each past 1.8e308
        huge, x = SplitQuaternion(10**400, 0, 1, 0), SplitQuaternion(1.0, 2.0, 0.0, 0.0)
        float_matrix, huge_matrix = Mat4.diagonal((1.0,) * 4), Mat4.diagonal((10**400,) * 4)
        family = solve_ax0(SplitQuaternion(1.0, 0.0, 1.0, 0.0))
        cases = {
            "to_float": huge.to_float,
            "float * exact": lambda: x * huge,
            "exact * float": lambda: huge * x,
            "float + exact": lambda: x + huge,
            "exact - float": lambda: huge - x,
            "float * int": lambda: x * 10**400,
            "float / int": lambda: x / 10**400,
            "mixed literal": lambda: SplitQuaternion(1.0, 10**400, 0, 0),
            "Mat4 of mixed rows": lambda: Mat4([[1.0, 10**400, 0, 0]] + [[0] * 4] * 3),
            "Mat4 @": lambda: float_matrix @ huge_matrix,
            "Mat4 +": lambda: huge_matrix + float_matrix,
            "Mat4.apply": lambda: float_matrix.apply((10**400, 0, 0, 0)),
            "Mat4 / float": lambda: huge_matrix / 2.0,
            "at": lambda: family.at(huge),
            "at of an int": lambda: family.at(10**400),
            "to_polar": lambda: to_polar(SplitQuaternion(10**400, 0, 10**400, 0)),
        }
        for compute in cases.values():
            with pytest.raises(NonFiniteError, match="exact value too large for the float backend"):
                compute()

    def test_ring_operations_that_overflow_raise(self):
        big = SplitQuaternion(1e200, 0, 0, 0)
        top = SplitQuaternion(1.7e308, 0, 0, -1.7e308)
        overflowing = (
            lambda: big * 1e200,
            lambda: 1e200 * big,
            lambda: big / 1e-200,
            lambda: top + top,
            lambda: top - (-top),
            lambda: top + 1.7e308,
            lambda: 1.7e308 - (-top),
            lambda: top * 2,
        )
        for operation in overflowing:
            with pytest.raises(NonFiniteError):
                operation()
        assert (top - top).is_zero(0.0) and (-top).q3 == 1.7e308

    def test_hashable_and_frozen(self):
        q = parse_quat("1+j")
        assert hash(q) == hash(SplitQuaternion(1, 0, 1, 0))
        with pytest.raises(AttributeError):
            q.q0 = Fraction(2)


class TestDisplay:
    @pytest.mark.parametrize(
        "text", ["0", "1", "-1", "i", "-i", "1+3i+2j+k", "-1/2+j", "1/3-2/5i", "7k"]
    )
    def test_str_roundtrip(self, text):
        q = parse_quat(text)
        assert parse_quat(str(q)) == q

    def test_float_display_sig_digits(self):
        q = SplitQuaternion(0.5, 0.0, 0.0, 0.0)
        assert str(q) == "0.5"
        # a coefficient that formats as 1 prints as its unit alone, as an exact 1 does
        assert str(SplitQuaternion(1.0, 1.0000000000001, 0, 0)) == "1+i"
        assert str(SplitQuaternion(0.0, 0.9999999999999999, -1.0000000000001, 0.0)) == "i-j"

    def test_exact_value_past_the_digit_limit_is_a_typed_error(self):
        limit = sys.get_int_max_str_digits()
        assert str(SplitQuaternion(10 ** (limit - 1), 0, 0, 0)) == "1" + "0" * (limit - 1)
        with pytest.raises(SplitQuaternionError, match=f"over {limit} digits"):
            str(SplitQuaternion(1, 0, 0, Fraction(1, 10**limit)))
