"""Split-quaternion value type and its basic algebra.

Split quaternions form the four-dimensional real algebra spanned by
``1, i, j, k`` with

    i*i = -1,   j*j = k*k = +1,
    i*j = k = -j*i,   j*k = -i = -k*j,   k*i = j = -i*k.

The quadratic form ``q0^2 + q1^2 - q2^2 - q3^2`` is multiplicative and
its sign splits the algebra into timelike (positive), spacelike
(negative) and lightlike (zero) elements; the lightlike ones are exactly
the zero divisors, and they are what most of this library is about.

Coefficients are either all :class:`~fractions.Fraction` (exact backend)
or all :class:`float` (approximate backend with absolute tolerance
``eps``); mixing converts the whole value to floats, and a scalar
factor or divisor enters with the coefficients through
:func:`~.scalars._admit`, so one float makes them all floats.  Such
rounding runs through :func:`~.scalars._floats`, which raises
:class:`~.errors.NonFiniteError` for an exact value past the float
range.  The product, the three quadratic forms, ``classify``,
``is_lightlike`` and ``inverse`` have one body each, on the numerators
of their operands over a common denominator (see
:func:`~.scalars._ratio`): ``int`` numerators on exact values, so no
Fraction arithmetic runs inside them and each result Fraction is built
once, and the floats themselves over ``1.0`` on float values.  A value
has one door in and one door out: the constructor admits numbers from
outside through :func:`~.scalars._admit`, and every value the library
computes is built by ``_new``, which skips that admission but keeps its
finiteness test.  A float value, or a quadratic form of one, that is
not finite raises :class:`~.errors.NonFiniteError` instead of flowing
on as ``inf`` or ``nan``; the forms are built by
:func:`~.scalars._quotient`, whose one finiteness test covers every
scalar the library returns.  Values are immutable, so they are safe to
share between threads.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import reduce
from math import isfinite
from typing import Tuple

from .errors import NonFiniteError, NotInvertibleError, NotLightlikeError, RealInputError, ZeroInputError
from .scalars import (
    DEFAULT_EPS,
    Scalar,
    _admit,
    _all_zero,
    _finite,
    _floats,
    _over,
    _quotient,
    _ratio,
    format_scalar,
    scalar_is_zero,
)

_UNITS = ("", "i", "j", "k")


class CausalClass(enum.Enum):
    """Sign of the quadratic form: the causal character of an element."""

    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"

    def __str__(self) -> str:
        return self.value


class Frozen:
    """Base of the library's immutable values, which are ``__slots__`` classes.

    A subclass names its fields in ``_fields`` and sets its ``__slots__``
    once, in order, through ``_assign``.  Values of one class are equal
    when their fields are, hash by their fields, pickle and copy by
    calling the class on them, and refuse assignment.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"


class SplitQuaternion(Frozen):
    """Immutable split quaternion ``q0 + q1*i + q2*j + q3*k``."""

    __slots__ = _fields = ("q0", "q1", "q2", "q3")

    def __init__(self, q0: Scalar, q1: Scalar, q2: Scalar, q3: Scalar):
        for name, value in zip(self._fields, _admit((q0, q1, q2, q3), "coefficient")):  # _assign, inlined
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return (self.q0, self.q1, self.q2, self.q3)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_scalar(cls, x) -> "SplitQuaternion":
        return cls(x, 0, 0, 0)

    @classmethod
    def from_complex_pair(cls, z1, z2) -> "SplitQuaternion":
        """Rebuild ``z1 + z2*j`` from two complex-subalgebra values.

        ``z1`` and ``z2`` may be SplitQuaternions with zero j,k parts,
        Python complex numbers, or plain scalars.
        """
        re1, im1 = _complex_parts(z1)
        re2, im2 = _complex_parts(z2)
        return cls(re1, im1, re2, im2)

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.q0.__class__ is not self.q0.__class__:
            self, other = self.to_float(), other.to_float()
        return _new(self.q0 + other.q0, self.q1 + other.q1, self.q2 + other.q2, self.q3 + other.q3)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.q0.__class__ is not self.q0.__class__:
            self, other = self.to_float(), other.to_float()
        return _new(self.q0 - other.q0, self.q1 - other.q1, self.q2 - other.q2, self.q3 - other.q3)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _new(-self.q0, -self.q1, -self.q2, -self.q3)

    def __mul__(self, other):
        if isinstance(other, SplitQuaternion):
            if other.q0.__class__ is not self.q0.__class__:
                self, other = self.to_float(), other.to_float()
            n, d = _ratio((self.q0, self.q1, self.q2, self.q3, other.q0, other.q1, other.q2, other.q3))
            return _from_ratio(_quat_product(n), d * d)
        try:
            s, q0, q1, q2, q3 = _admit((other, self.q0, self.q1, self.q2, self.q3), "scalar factor")
        except TypeError:
            return NotImplemented
        return _new(q0 * s, q1 * s, q2 * s, q3 * s)

    __rmul__ = __mul__  # scalars are central, so left and right scaling agree

    def __truediv__(self, other):
        try:
            s, q0, q1, q2, q3 = _admit((other, self.q0, self.q1, self.q2, self.q3), "scalar divisor")
        except TypeError:
            return NotImplemented
        return _new(q0 / s, q1 / s, q2 / s, q3 / s)

    # ------------------------------------------------------------------
    # involutions and parts
    # ------------------------------------------------------------------

    def conjugate(self) -> "SplitQuaternion":
        """Flip every imaginary coefficient: q0 - q1*i - q2*j - q3*k."""
        return _new(self.q0, -self.q1, -self.q2, -self.q3)

    def prime(self) -> "SplitQuaternion":
        """Flip only the i coefficient; preserves the quadratic form."""
        return _new(self.q0, -self.q1, self.q2, self.q3)

    @property
    def re(self) -> Scalar:
        return self.q0

    @property
    def im(self) -> "SplitQuaternion":
        return _new(0 * self.q0, self.q1, self.q2, self.q3)

    @property
    def coeffs(self) -> Tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.q0, self.q1, self.q2, self.q3)

    @property
    def is_exact(self) -> bool:
        return not isinstance(self.q0, float)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    @property
    def quadratic_form(self) -> Scalar:
        """The multiplicative form q0^2 + q1^2 - q2^2 - q3^2."""
        n, d = _ratio(self._values())
        return _quotient(_form(n), d * d)

    @property
    def im_squared(self) -> Scalar:
        """Scalar value of im(q)*im(q): -q1^2 + q2^2 + q3^2, a similarity invariant."""
        n, d = _ratio((self.q1, self.q2, self.q3))
        return _quotient(_im_squared(n), d * d)

    @property
    def im_norm_sq(self) -> Scalar:
        """Euclidean q1^2 + q2^2 + q3^2; zero exactly for real values."""
        (n1, n2, n3), d = _ratio((self.q1, self.q2, self.q3))
        return _quotient(n1 * n1 + n2 * n2 + n3 * n3, d * d)

    def classify(self, eps: float = DEFAULT_EPS) -> CausalClass:
        """Causal class by the sign of the quadratic form.

        On the float backend a form within ``eps`` of zero counts as
        lightlike; exact values use strict sign tests.
        """
        form = _form(_ratio(self._values())[0])  # the sign of the form's numerator over d^2 > 0
        if scalar_is_zero(form, eps):
            return CausalClass.LIGHTLIKE
        return CausalClass.TIMELIKE if form > 0 else CausalClass.SPACELIKE

    # ------------------------------------------------------------------
    # predicates and comparisons
    # ------------------------------------------------------------------

    def is_zero(self, eps: float = DEFAULT_EPS) -> bool:
        return _all_zero(self._values(), eps)

    def is_real(self, eps: float = DEFAULT_EPS) -> bool:
        return _all_zero((self.q1, self.q2, self.q3), eps)

    def is_lightlike(self, eps: float = DEFAULT_EPS) -> bool:
        return scalar_is_zero(_form(_ratio(self._values())[0]), eps)

    def isclose(self, other: "SplitQuaternion", eps: float = DEFAULT_EPS) -> bool:
        """Coefficientwise equality; exact coefficients compare exactly."""
        return all(scalar_is_zero(a - b, eps) for a, b in zip(self.coeffs, other.coeffs))

    # ------------------------------------------------------------------
    # inversion and conversions
    # ------------------------------------------------------------------

    def inverse(self, eps: float = DEFAULT_EPS) -> "SplitQuaternion":
        """Two-sided inverse conj(q)/form; raises on zero divisors."""
        n, d = _ratio(self._values())
        form = _form(n)
        if scalar_is_zero(form, eps):
            raise NotInvertibleError(
                "quadratic form is zero; zero divisors have no inverse "
                "(see pinv.mp_inverse for the generalized inverse)"
            )
        return _inverse(n, d, form)

    def to_float(self) -> "SplitQuaternion":
        return _new(*_floats(self.coeffs))

    def to_exact(self) -> "SplitQuaternion":
        """Exact view of the float coefficients (binary expansion, no rounding)."""
        return _new(*map(Fraction, self.coeffs))

    def to_complex_pair(self) -> Tuple["SplitQuaternion", "SplitQuaternion"]:
        """Split q = z1 + z2*j with z1, z2 in the complex subalgebra R + R*i."""
        z = 0 * self.q0
        return _new(self.q0, self.q1, z, z), _new(self.q2, self.q3, z, z)

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for coeff, unit in zip(self.coeffs, _UNITS):
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else "+"
            magnitude = -coeff if coeff < 0 else coeff
            body = format_scalar(magnitude)
            if unit:
                body = unit if body == "1" else body + unit
            if not parts:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append(sign + body)
        return "".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"SplitQuaternion({str(self)!r})"


def _form(n: tuple):
    """The quadratic form n0^2 + n1^2 - n2^2 - n3^2 of four numerators; NonFiniteError if it overflows."""
    n0, n1, n2, n3 = n
    return _finite(n0 * n0 + n1 * n1 - n2 * n2 - n3 * n3, "quadratic form")


def _im_squared(n: tuple):
    """-n1^2 + n2^2 + n3^2 of three imaginary numerators; NonFiniteError if it overflows."""
    n1, n2, n3 = n
    return _finite(-n1 * n1 + n2 * n2 + n3 * n3, "im_squared")


def _inverse(n: tuple, d, form) -> SplitQuaternion:
    """conj(q)/I(q) = conj(n)*d / I(n) for q = n/d, with form = I(n) nonzero."""
    n0, n1, n2, n3 = n
    return _from_ratio((n0 * d, -n1 * d, -n2 * d, -n3 * d), form)


def _lightlike_inverse(n: tuple) -> tuple:
    """prime(n)/(4*(n0^2 + n1^2)), as _over gives it; d times it is a+ for nonzero lightlike a = n/d.

    A nonzero exact zero divisor has n0^2 + n1^2 = n2^2 + n3^2 > 0; a
    float one, lightlike only within eps, can have it 0 or underflowing
    to 0, and raises NonFiniteError.
    """
    n0, n1, n2, n3 = n
    s = 4 * (n0 * n0 + n1 * n1)
    if not s:
        raise NonFiniteError("a+ is not finite on the float backend: 4*(q0^2 + q1^2) is 0")
    return _over((n0, -n1, n2, n3), s)


def _zero_divisor(n: tuple, eps: float, name: str) -> tuple:
    """n, the numerators of the operand called name, once checked to be a nonzero zero divisor at eps."""
    if _all_zero(n, eps):
        raise ZeroInputError(f"{name} must be nonzero")
    if not scalar_is_zero(_form(n), eps):
        raise NotLightlikeError(f"{name} is invertible, not a zero divisor")
    return n


def _require_nonreal(q: SplitQuaternion, eps: float, name: str) -> None:
    """Raise RealInputError unless q, the operand called name, has a nonzero imaginary part at eps."""
    if q.is_real(eps):
        raise RealInputError(f"{name} must have a nonzero imaginary part")


def _quat_product(n: tuple) -> tuple:
    """Coefficients of p*q from the numerators p0..p3, q0..q3 of both factors, in one tuple."""
    p0, p1, p2, p3, q0, q1, q2, q3 = n
    return (
        p0 * q0 - p1 * q1 + p2 * q2 + p3 * q3,
        p0 * q1 + p1 * q0 - p2 * q3 + p3 * q2,
        p0 * q2 + p2 * q0 - p1 * q3 + p3 * q1,
        p0 * q3 + p3 * q0 + p1 * q2 - p2 * q1,
    )


def _mul(*factors: tuple) -> tuple:
    """The numerators of a product from those of its factors, multiplied left to right."""
    return reduce(lambda p, q: _quat_product(p + q), factors)


_SET_Q0, _SET_Q1, _SET_Q2, _SET_Q3 = (
    SplitQuaternion.__dict__[name].__set__ for name in SplitQuaternion._fields
)


def _new(q0: Scalar, q1: Scalar, q2: Scalar, q3: Scalar) -> SplitQuaternion:
    """The quaternion of four scalars of one backend, without __init__'s coercion.

    A non-finite float raises NonFiniteError, as in __init__.
    """
    if q0.__class__ is float and not (isfinite(q0) and isfinite(q1) and isfinite(q2) and isfinite(q3)):
        raise NonFiniteError("coefficient is not finite on the float backend")
    q = object.__new__(SplitQuaternion)
    _SET_Q0(q, q0)
    _SET_Q1(q, q1)
    _SET_Q2(q, q2)
    _SET_Q3(q, q3)
    return q


def _from_ratio(nums: tuple, d) -> SplitQuaternion:
    """The quaternion with coefficients n/d, each built as _quotient builds it."""
    n0, n1, n2, n3 = nums
    if d.__class__ is float:
        return _new(n0 / d, n1 / d, n2 / d, n3 / d)
    return _new(Fraction(n0, d), Fraction(n1, d), Fraction(n2, d), Fraction(n3, d))


def _coerce(x):
    if isinstance(x, SplitQuaternion):
        return x
    try:
        return SplitQuaternion(x, 0, 0, 0)
    except TypeError:
        return None


def _complex_parts(z) -> Tuple[Scalar, Scalar]:
    if isinstance(z, SplitQuaternion):
        if not (scalar_is_zero(z.q2, 0.0) and scalar_is_zero(z.q3, 0.0)):
            raise ValueError("complex-pair component has nonzero j or k part")
        return z.q0, z.q1
    if isinstance(z, complex):
        return z.real, z.imag
    return z, 0


ZERO = SplitQuaternion(0, 0, 0, 0)
ONE = SplitQuaternion(1, 0, 0, 0)
I = SplitQuaternion(0, 1, 0, 0)
J = SplitQuaternion(0, 0, 1, 0)
K = SplitQuaternion(0, 0, 0, 1)
