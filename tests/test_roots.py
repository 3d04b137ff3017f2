import decimal
import inspect
import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitquat import (
    ExactnessWarning,
    I,
    J,
    NonFiniteError,
    NotLightlikeError,
    ONE,
    SplitQuaternion,
    ZERO,
    ZeroInputError,
    from_polar,
    is_idempotent,
    is_nilpotent,
    nth_roots,
    parse_quat,
    power,
    to_polar,
)

from conftest import lightlike_quats, quats, rand_lightlike

TWO_PI = 2 * math.pi


def euclidean_norm(q):
    return math.sqrt(sum(float(c) * float(c) for c in q.coeffs))


def assert_close(p, q, tol):
    assert max(abs(float(x) - float(y)) for x, y in zip(p.coeffs, q.coeffs)) <= tol, (p, q)


class TestPower:
    def test_lightlike_square_is_zero(self):
        assert power(I + J, 2) == ZERO

    def test_lightlike_cube_closed_form(self):
        assert power(ONE + J, 3) == 4 * (ONE + J)

    def test_first_power(self):
        q = parse_quat("2-3i+5j-7k")
        assert power(q, 1) == q

    def test_square_recurrence(self):
        # q*q = 2*re(q)*q - I(q) holds everywhere
        rng = random.Random(71)
        for _ in range(50):
            q = SplitQuaternion(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)))
            assert q * q == 2 * q.q0 * q - q.quadratic_form * ONE

    @given(quats, st.integers(min_value=1, max_value=8))
    @settings(max_examples=100)
    def test_matches_repeated_multiplication(self, q, n):
        expected = ONE
        for _ in range(n):
            expected = expected * q
        assert power(q, n) == expected

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            power(ONE, 0)

    @pytest.mark.parametrize("n", [2.0, 2.5, True, Fraction(2), "2"])
    def test_degree_must_be_an_int(self, n):
        # a degree is refused by its type, as a scalar is: a bool or any other non-int
        for call in (power, nth_roots):
            with pytest.raises(TypeError, match="degree must be an int"):
                call(parse_quat("1+j"), n)

    def test_takes_no_tolerance(self):
        # no branch of power tests a tolerance, so it has no eps to pass
        assert list(inspect.signature(power).parameters) == ["q", "n"]

    @pytest.mark.parametrize("text", ["1+j", "1.5+j"])
    def test_float_overflow_is_a_typed_error(self, text):
        # (2*re(q))**4999 overflows on the lightlike closed form, q**5000
        # overflows through products otherwise
        with pytest.raises(NonFiniteError):
            power(parse_quat(text, backend="approx"), 5000)


class TestMembership:
    def test_nilpotent_example(self):
        assert is_nilpotent(I + J)
        assert (I + J) * (I + J) == ZERO

    def test_nonexamples(self):
        assert not is_nilpotent(ONE + J)
        assert not is_nilpotent(I)

    def test_idempotent_examples(self):
        half = Fraction(1, 2)
        e = SplitQuaternion(half, 0, half, 0)
        assert is_idempotent(e)
        assert e * e == e
        assert is_idempotent(ZERO)
        assert is_idempotent(ONE)
        assert not is_idempotent(ONE + J)

    @given(quats)
    @settings(max_examples=100)
    def test_nilpotents_square_to_zero(self, q):
        if is_nilpotent(q):
            assert q * q == ZERO

    @given(quats)
    @settings(max_examples=100)
    def test_idempotents_are_fixed_by_squaring(self, q):
        if is_idempotent(q):
            assert q * q == q

    def test_nilpotent_index_at_most_two(self):
        from conftest import rand_circle, rand_fraction

        rng = random.Random(72)
        count = 0
        while count < 30:
            q1 = rand_fraction(rng)
            if q1 == 0:
                continue
            c, s = rand_circle(rng)
            nil = SplitQuaternion(0, q1, q1 * c, q1 * s)
            assert is_nilpotent(nil)
            assert nil * nil == ZERO
            count += 1


class TestPolar:
    def test_real_axis(self):
        p = to_polar(ONE + J)
        assert p.r == pytest.approx(1.0)
        assert p.alpha == pytest.approx(0.0)
        assert p.beta == pytest.approx(0.0)

    def test_quarter_turn(self):
        p = to_polar(I + J)
        assert p.r == pytest.approx(1.0)
        assert p.alpha == pytest.approx(math.pi / 2)
        assert p.beta == pytest.approx(0.0)

    def test_errors(self):
        with pytest.raises(ZeroInputError):
            to_polar(ZERO)
        with pytest.raises(NotLightlikeError):
            to_polar(ONE)

    def test_exact_radius_below_the_float_range_is_a_typed_error(self):
        # 1e-400 rounds to 0.0, which gave r = 0
        with pytest.raises(NonFiniteError, match="polar radius"):
            to_polar(parse_quat("1e-400+1e-400j", "exact"))

    def test_from_polar_is_lightlike(self):
        rng = random.Random(73)
        for _ in range(30):
            q = from_polar(rng.uniform(0.1, 5), rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
            assert abs(q.quadratic_form) <= 1e-12

    @given(lightlike_quats())
    @settings(max_examples=50)
    def test_roundtrip(self, q):
        p = to_polar(q)
        assert p.r > 0
        assert 0 <= p.alpha < TWO_PI and 0 <= p.beta < TWO_PI
        assert_close(from_polar(p.r, p.alpha, p.beta), q.to_float(), 1e-9)
        assert_close(p.to_quaternion(), q.to_float(), 1e-9)


class TestNthRoots:
    def test_square_roots_of_reference(self):
        with pytest.warns(ExactnessWarning):
            roots = nth_roots(ONE + J, 2)
        assert len(roots) == 2
        scale = math.sqrt(0.5)
        assert_close(roots[0], scale * (ONE + J).to_float(), 1e-12)
        assert_close(roots[1], -scale * (ONE + J).to_float(), 1e-12)
        for w in roots:
            assert_close(power(w, 2), (ONE + J).to_float(), 1e-12)

    def test_no_roots_on_imaginary_axis(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert nth_roots(I + J, 2) == []
            assert nth_roots(I + J, 5) == []

    def test_cube_root_with_negative_cosine(self):
        # the root is a multiple of q, so a zero coefficient of q stays exactly zero
        cases = (("-1+j", 0.25 ** (1.0 / 3.0), "q1"), ("-3+4i+5k", 36.0 ** (-1.0 / 3.0), "q2"))
        for text, rho, zero in cases:
            q = parse_quat(text)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                roots = nth_roots(q, 3)
            assert len(roots) == 1
            assert_close(roots[0], rho * q.to_float(), 1e-12)
            assert_close(power(roots[0], 3), q.to_float(), 1e-12)
            assert getattr(roots[0], zero) == 0.0, text

    def test_root_coefficients_match_fifty_digit_closed_form(self):
        # w = c*q with c = |2*q0|**((1-n)/n) = 4**(-2/3); each float
        # coefficient is a few roundings from the 50-digit value
        q = parse_quat("2-1/7i-173/91j-58/91k")
        assert q.quadratic_form == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (root,) = nth_roots(q, 3)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            c = decimal.Decimal(4) ** (decimal.Decimal(-2) / 3)
            for got, x in zip(root.coeffs, q.coeffs):
                want = c * x.numerator / x.denominator
                error = abs(decimal.Decimal(got) - want)
                assert error <= decimal.Decimal("1e-15") * abs(want), (got, want)

    def test_even_degree_negative_cosine_has_no_roots(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert nth_roots(-ONE + J, 2) == []
            assert nth_roots(-ONE + J, 4) == []

    @pytest.mark.parametrize("n", [5000, 100001])
    def test_high_degree_roots_do_not_overflow(self, n):
        # (2*cos(alpha))**(n-1) alone overflows; rho = 2**((1-n)/n) does not
        q = (ONE + J).to_float()
        roots = nth_roots(q, n)
        assert len(roots) == 2 - n % 2
        assert_close(roots[0], 2.0 ** ((1 - n) / n) * q, 1e-15)
        assert_close(power(roots[0], n), q, 1e-9)

    @pytest.mark.parametrize(
        "text, n, count",
        [
            ("1e-400+1e-400j", 3, 1),
            ("1e-400+1e-400j", 2, 2),
            ("1e400+1e400j", 2, 2),
            ("-1e400+1e400j", 3, 1),
            ("1.5e308+1.5e308j", 2, 2),
        ],
    )
    def test_exact_zero_divisors_outside_the_float_range(self, text, n, count):
        # q rounds to 0 or overflows, or 2*q0 does, but its roots, of size |q|^(1/n), are normal floats
        q = parse_quat(text, "exact")
        with pytest.warns(ExactnessWarning):
            roots = nth_roots(q, n)
        assert len(roots) == count
        top = max(map(abs, q.coeffs))
        for w in roots:
            residual = power(w.to_exact(), n) - q
            assert max(map(abs, residual.coeffs)) <= Fraction(5, 10**16) * top, (text, n, w)

    def test_exact_roots_outside_the_float_range_are_a_typed_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NonFiniteError):
                nth_roots(parse_quat("1e4000+1e4000j", "exact"), 2)
            with pytest.raises(NonFiniteError):
                nth_roots(parse_quat("1e-4000+1e-4000j", "exact"), 2)

    def test_errors(self):
        with pytest.raises(ValueError):
            nth_roots(ONE + J, 1)
        with pytest.raises(ZeroInputError):
            nth_roots(ZERO, 2)
        with pytest.raises(NotLightlikeError):
            nth_roots(ONE, 2)

    def test_count_table_and_verification(self):
        rng = random.Random(74)
        eps = 1e-9
        for _ in range(60):
            q = rand_lightlike(rng).to_float()
            n = rng.randint(2, 6)
            polar = to_polar(q)
            cos_a = math.cos(polar.alpha)
            roots = nth_roots(q, n)
            if abs(cos_a) <= eps:
                expected = 0
            elif cos_a > 0:
                expected = 2 if n % 2 == 0 else 1
            else:
                expected = 1 if n % 2 == 1 else 0
            assert len(roots) == expected, (q, n)
            for w in roots:
                assert abs(w.quadratic_form) <= 1e-9 * (1 + euclidean_norm(w)) ** 2
                residual = power(w, n) - q
                assert euclidean_norm(residual) <= 1e-8 * (1 + euclidean_norm(q))
