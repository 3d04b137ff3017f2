"""Scalar backends: exact rationals and tolerance-based floats.

Every coefficient in this library is either a :class:`fractions.Fraction`
(exact backend) or a :class:`float` (approximate backend, compared up to
an absolute tolerance ``eps``).  Numbers from outside the library enter
by :func:`_admit`: a bool or an unknown type raises TypeError, one float
makes them all floats, and a non-finite float raises NonFiniteError.
The helpers below centralize the zero tests and display rules so the
algebra modules stay backend-agnostic.  Products, forms, inverses,
matrices, families and decisions each have one body, which runs on
numerators over one common denominator taken by :func:`_ratio`: ``int``
numerators over their least common denominator on exact values, reduced
once per result (Henrici's method; Knuth, *TAOCP* vol. 2, 4.5.1), and
the floats themselves over ``1.0`` on float values, so that every
multiplication by the denominator is exact and a body computes what a
float formula would.  What differs between the backends is written
once: admitting a value (:func:`_admit`), building a result
(:func:`_quotient`), the zero test, the meeting of an exact operand with
a float one (:func:`_common`), and the elimination kernel (see
:mod:`.matrices` and :mod:`.elimination`).  Coefficients are stored and
read as reduced Fractions or as floats.

The zero test has two bodies: :func:`scalar_is_zero` of one value, and
:func:`_all_zero` of a sequence of numerators.  Two values are close
when ``scalar_is_zero(x - y, eps)``.  On floats the test is ``|x| <=
eps``, on exact values ``x == 0``.  Both bodies stay: one variadic test
in their place made perfbench's float kernel rows 5-27% slower
(``t_rank`` 18.6 to 23.7 us, ``mat_mp_inverse`` of L(q) 55.9 to 62.3
us) and its exact ``mp_inverse``, ``solve_axb`` and ``is_consimilar``
rows 2.5% slower, on CPython 3.11.7 and a 2-core Xeon.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Sequence, Tuple, Union

from .errors import NonFiniteError, SplitQuaternionError

Scalar = Union[Fraction, float]

#: Default absolute tolerance of the float backend.  Exact values ignore it.
DEFAULT_EPS = 1e-9


def as_scalar(x) -> Scalar:
    """Normalize a number: ints become Fractions, floats stay floats."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return x
    raise TypeError(f"unsupported scalar type: {type(x).__name__}")


def _admit(values: Sequence, what: str) -> tuple:
    """The values as scalars of one backend, by the module's rules; the NonFiniteError names them what."""
    values = tuple(map(as_scalar, values))
    if any(isinstance(x, float) for x in values):
        values = _floats(values)
        if not all(map(math.isfinite, values)):
            raise NonFiniteError(f"{what} is not finite on the float backend")
    return values


def _ratio(values: Sequence[Scalar], *more: Sequence[Scalar]) -> Tuple[Sequence, Union[int, float]]:
    """The values of one or more operands as numerators over one common denominator.

    An operand is a sequence of scalars, such as a quaternion's
    coefficients, and the numerators of all operands come back in order.
    Exact values give int numerators over their least common
    denominator, which is already reduced: a prime dividing the
    denominator does not divide the numerator of the value whose
    denominator it divides most.  Floats give themselves over 1.0.  An
    operand whose first value is a float is read as floats with no
    further test.  Where a float operand meets an exact one, or a float
    sits among exact values, every value is rounded to a float, as
    float(Fraction) rounds it; only such a mixed set pays for the test.
    """
    if more:
        operands = (values, *more)
        values = sum(operands, ())
        if values[0].__class__ is float and any(x[0].__class__ is not float for x in operands):
            return _floats(values), 1.0
    if values[0].__class__ is float:
        return values, 1.0
    try:
        d = math.lcm(*(x.denominator for x in values))
    except AttributeError:  # a float among exact values
        return _floats(values), 1.0
    return tuple(x.numerator * (d // x.denominator) for x in values), d


def _quotient(n, d: Union[int, float]) -> Scalar:
    """One result n/d: a reduced Fraction over an int d, a float over a float d."""
    return n / d if d.__class__ is float else Fraction(n, d)


def _over(nums: Sequence, d: Union[int, float]) -> Tuple[Sequence, Union[int, float]]:
    """nums/d as numerators over a denominator: ints stay over the int d, floats are divided, over 1.0."""
    if d.__class__ is float:
        return tuple(x / d for x in nums), 1.0
    return nums, d


def _common(x: tuple, y: tuple) -> Tuple[tuple, tuple]:
    """Two (numerators, denominator) pairs on one backend.

    Where an exact pair meets a float one, both become floats over 1.0,
    each n/d rounded once, as float(Fraction(n, d)) rounds it.
    """
    if x[1].__class__ is y[1].__class__:
        return x, y
    return (_floats(n / x[1] for n in x[0]), 1.0), (_floats(n / y[1] for n in y[0]), 1.0)


def _floats(values) -> tuple:
    """The values rounded to floats as float() rounds them: every exact value meeting a float one is rounded here.

    One past the float range raises NonFiniteError.
    """
    try:
        return tuple(map(float, values))
    except OverflowError:
        raise NonFiniteError("exact value too large for the float backend") from None


def scalar_is_zero(x: Scalar, eps: float = DEFAULT_EPS) -> bool:
    if isinstance(x, float):
        return abs(x) <= eps
    return x == 0


def _all_zero(nums: Sequence, eps: float) -> bool:
    """Whether every numerator is zero: within eps on floats, exactly on ints and Fractions."""
    if nums[0].__class__ is float:
        return max(map(abs, nums)) <= eps
    return not any(nums)


def format_scalar(x: Scalar) -> str:
    """Display form: rationals as p/q, floats with 12 significant digits.

    A rational with more digits than Python converts to text
    (``sys.get_int_max_str_digits()``) raises SplitQuaternionError.
    """
    if isinstance(x, float):
        return f"{x:.12g}"
    try:
        return str(x)
    except ValueError:
        raise _too_long() from None


def _digit_limit() -> int:
    """sys.get_int_max_str_digits(), or 0 (no limit) on a Python 3.10 before 3.10.7, which has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_long() -> SplitQuaternionError:
    """The error for an exact value with more digits than sys.get_int_max_str_digits()."""
    limit = _digit_limit()
    return SplitQuaternionError(
        f"exact value too long to print: over {limit} digits, the limit of sys.get_int_max_str_digits()"
    )


def _printable(values: Sequence[Fraction]) -> bool:
    """Whether str() converts every numerator and denominator of the values.

    A digit count over the limit L means |x| >= 10^L, hence more than
    3L bits, so only such ints are compared with 10^L.
    """
    limit = _digit_limit()
    return not limit or all(
        x.bit_length() <= 3 * limit or abs(x) < 10**limit
        for v in values
        for x in (v.numerator, v.denominator)
    )
