"""Scalar backends: exact rationals and tolerance-based floats.

Every coefficient in this library is either a :class:`fractions.Fraction`
(exact backend) or a :class:`float` (approximate backend, compared up to
an absolute tolerance ``eps``).  The helpers below centralize the zero
tests, square roots, and display rules so the algebra modules stay
backend-agnostic.  Inside, exact quaternion products (see :mod:`.core`),
the quaternion Moore-Penrose inverse (see :mod:`.pinv`)
and every 4x4 matrix run on ``int`` numerators over one common
denominator, taken by :func:`_ratio`, and reduce once per result
(Henrici's method; Knuth, *TAOCP* vol. 2, 4.5.1); so do the quadratic
forms, the similarity and consimilarity decisions and closed-form
families, and a family's value at a point; matrices are also
eliminated fraction-free (see :mod:`.matrices` and :mod:`.elimination`).
Coefficients are still stored and read as reduced Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Tuple, Union

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


def _ratio(values: Iterable[Fraction]) -> Tuple[Tuple[int, ...], int]:
    """Exact scalars as int numerators over their least common denominator.

    That is already reduced: a prime dividing the denominator does not
    divide the numerator of the value whose denominator it divides most.
    """
    values = tuple(values)
    d = math.lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (d // x.denominator) for x in values), d


def scalar_is_zero(x: Scalar, eps: float = DEFAULT_EPS) -> bool:
    if isinstance(x, float):
        return abs(x) <= eps
    return x == 0


def scalars_close(x: Scalar, y: Scalar, eps: float = DEFAULT_EPS) -> bool:
    if isinstance(x, float) or isinstance(y, float):
        return abs(x - y) <= eps
    return x == y


def exact_sqrt(x: Fraction) -> Optional[Fraction]:
    """Rational square root of a nonnegative Fraction, or None."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def scalar_sqrt(x: Scalar) -> Scalar:
    """Square root of a nonnegative scalar, exact whenever possible."""
    if isinstance(x, float):
        return math.sqrt(x)
    root = exact_sqrt(x)
    return root if root is not None else math.sqrt(x)


def format_scalar(x: Scalar) -> str:
    """Display form: rationals as p/q, floats with 12 significant digits."""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)
