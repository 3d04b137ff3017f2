from fractions import Fraction

import pytest
from hypothesis import given, settings

from splitquat import ParseError, SplitQuaternion, parse_quat

from conftest import quats

#: A 401-digit integer: exact, but too large for a float.
HUGE = "1" + "0" * 400
#: A 5000-digit integer: more digits than int() reads.
LONG = "1" * 5000

EMPTY = "empty quaternion literal"
SIGN = "expected '+' or '-' between terms"
TERM = "expected a coefficient or one of 'i', 'j', 'k'"
EXPONENT = "expected digits in exponent"
DENOMINATOR = "expected digits after '/'"
NOT_FINITE = "coefficient is not finite as a float"
TOO_LONG = "coefficient has too many digits"


class TestGrammar:
    @pytest.mark.parametrize(
        "text,coeffs",
        [
            ("1+3i+2j+k", (1, 3, 2, 1)),
            ("-1/2+j", (Fraction(-1, 2), 0, 1, 0)),
            ("0", (0, 0, 0, 0)),
            ("k", (0, 0, 0, 1)),
            ("-k", (0, 0, 0, -1)),
            ("i+j", (0, 1, 1, 0)),
            ("7", (7, 0, 0, 0)),
            ("2/3-4/5i", (Fraction(2, 3), Fraction(-4, 5), 0, 0)),
            ("1-i-j-k", (1, -1, -1, -1)),
            ("i+i", (0, 2, 0, 0)),
        ],
    )
    def test_exact_literals(self, text, coeffs):
        q = parse_quat(text)
        assert q == SplitQuaternion(*coeffs)
        assert q.is_exact

    def test_decimal_switches_to_floats(self):
        q = parse_quat("2.5i-k")
        assert not q.is_exact
        assert q.q1 == 2.5 and q.q3 == -1.0

    def test_whitespace_ignored(self):
        assert parse_quat(" 1 + 3i +2 j+ k ") == parse_quat("1+3i+2j+k")

    def test_leading_sign(self):
        assert parse_quat("-1/2+j") == -parse_quat("1/2-j")

    def test_exact_backend_reads_decimals_exactly(self):
        q = parse_quat("2.5i", backend="exact")
        assert q.is_exact
        assert q.q1 == Fraction(5, 2)

    def test_approx_backend_forces_floats(self):
        q = parse_quat("1+3i", backend="approx")
        assert not q.is_exact

    @pytest.mark.parametrize(
        "text,value",
        [("1e-9i", 1e-9), ("2E3i", 2000.0), ("1.5e-2i", 0.015), ("-2.5e1i", -25.0)],
    )
    def test_scientific_notation(self, text, value):
        q = parse_quat(text)
        assert not q.is_exact
        assert q.q1 == value

    def test_scientific_notation_exact_backend(self):
        assert parse_quat("1.5e-2", backend="exact").q0 == Fraction(3, 200)


class TestErrors:
    @pytest.mark.parametrize(
        "text,backend,message,position",
        [
            ("", None, EMPTY, 0),
            ("  ", None, EMPTY, 0),
            ("1i2", None, SIGN, 2),
            ("1/2.5", None, SIGN, 3),
            ("1+", None, TERM, 2),
            ("1 + ", None, TERM, 4),
            ("1++2", None, TERM, 2),
            (".", None, TERM, 0),
            ("x", None, TERM, 0),
            ("2e", None, EXPONENT, 2),
            ("1.5e+", None, EXPONENT, 5),
            ("1/", None, DENOMINATOR, 2),
            ("3//4", None, DENOMINATOR, 2),
            ("1/0", None, "zero denominator", 2),
            ("1e400", None, NOT_FINITE, 0),
            # digits that str.isdigit() admits and int() does not read
            ("\u00b2", None, TERM, 0),
            ("1+\u00b2i", None, TERM, 2),
            ("1.\u00b2", None, SIGN, 2),
            # more digits than int() reads
            pytest.param(LONG, None, TOO_LONG, 0, id="long"),
            pytest.param(LONG + "/3", None, TOO_LONG, 0, id="long/3"),
            pytest.param("1-3/" + LONG, None, TOO_LONG, 2, id="1-3/long"),
            pytest.param(LONG, "exact", TOO_LONG, 0, id="long-exact"),
            ("i+1e4300", "exact", TOO_LONG, 2),
            ("1.5e-4300", "exact", TOO_LONG, 0),
        ],
    )
    def test_message_and_offset(self, text, backend, message, position):
        with pytest.raises(ParseError) as exc:
            parse_quat(text, backend=backend)
        assert str(exc.value) == f"{message} (at offset {position})"
        assert exc.value.position == position

    def test_arabic_indic_digits_are_decimal_digits(self):
        assert parse_quat("\u0661+\u0662i") == parse_quat("1+2i")

    def test_exact_exponent_below_the_digit_limit(self):
        assert parse_quat("1e4299", backend="exact").q0 == 10**4299

    @pytest.mark.parametrize(
        "text,backend",
        [
            ("1e400", None),
            ("1e308+1e308", None),
            ("-1e400k", "approx"),
            (HUGE, "approx"),
            (HUGE + "/3", "approx"),
            (HUGE + "+1.5i", None),
            (HUGE + "+1.5", None),
        ],
        ids=["1e400", "1e308+1e308", "-1e400k", "huge", "huge/3", "huge+1.5i", "huge+1.5"],
    )
    def test_float_coefficient_must_be_finite(self, text, backend):
        with pytest.raises(ParseError) as exc:
            parse_quat(text, backend=backend)
        assert exc.value.position == 0

    @pytest.mark.parametrize("text", [HUGE, HUGE + "+1.5i", "1e400"], ids=["huge", "huge+1.5i", "1e400"])
    def test_exact_backend_takes_any_size(self, text):
        q = parse_quat(text, backend="exact")
        assert q.is_exact and q.q0 >= 10**400

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            parse_quat("1", backend="symbolic")


class TestRoundTrip:
    @given(quats)
    @settings(max_examples=100)
    def test_display_parses_back(self, q):
        assert parse_quat(str(q)) == q

    def test_float_display_parses_close(self):
        q = SplitQuaternion(1 / 3, 0.125, -2.75, 1e-4)
        back = parse_quat(str(q))
        assert back.isclose(q, 1e-9)

    def test_tiny_float_coefficients_round_trip(self):
        q = SplitQuaternion(-1.0, 1.22464679915e-16, 1.0, 0.0)
        back = parse_quat(str(q))
        assert back.isclose(q, 1e-9)
