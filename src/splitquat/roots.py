"""Powers, nilpotents, idempotents, and roots of zero divisors.

Any split quaternion satisfies q^2 = 2*re(q)*q - I(q); for zero divisors
the quadratic form vanishes, so q^n = (2*re(q))^(n-1) * q in closed
form.  Nonzero zero divisors have a polar presentation

    q = r * (cos(alpha) + sin(alpha)*i) + r * (cos(beta) + sin(beta)*i) * j

with r > 0 and angles in [0, 2*pi), which is what makes nth roots
tractable: w^n = q has 2, 1 or 0 solutions depending on the sign of
cos(alpha) and the parity of n.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from typing import List

from .core import ONE, Frozen, SplitQuaternion
from .errors import ExactnessWarning, NonFiniteError, NotLightlikeError, ZeroInputError
from .scalars import DEFAULT_EPS, scalar_is_zero, scalars_close

_TWO_PI = 2.0 * math.pi


def power(q: SplitQuaternion, n: int, eps: float = DEFAULT_EPS) -> SplitQuaternion:
    """q**n for n >= 1; closed form for zero divisors, square-and-multiply otherwise."""
    if n < 1:
        raise ValueError("exponent must be a positive integer")
    if scalar_is_zero(q.quadratic_form, eps):
        try:
            return ((2 * q.q0) ** (n - 1)) * q
        except OverflowError:  # a float power raises where a product gives inf
            raise NonFiniteError("coefficient is not finite on the float backend") from None
    result = ONE
    base = q
    e = n
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def is_nilpotent(q: SplitQuaternion, eps: float = DEFAULT_EPS) -> bool:
    """Zero real part and q1^2 - q2^2 - q3^2 = 0; such q already square to zero."""
    return scalar_is_zero(q.q0, eps) and scalar_is_zero(
        q.q1 * q.q1 - q.q2 * q.q2 - q.q3 * q.q3, eps
    )


def is_idempotent(q: SplitQuaternion, eps: float = DEFAULT_EPS) -> bool:
    """q*q = q: exactly 0, 1, and the elements 1/2 + im with 1/4 + q1^2 - q2^2 - q3^2 = 0."""
    if q.is_zero(eps) or q.isclose(ONE, eps):
        return True
    half = scalars_close(2 * q.q0, 1, eps)
    quarter = Fraction(1, 4) if q.is_exact else 0.25
    return half and scalar_is_zero(quarter + q.q1 * q.q1 - q.q2 * q.q2 - q.q3 * q.q3, eps)


class LightlikePolar(Frozen):
    """Polar data (r, alpha, beta) of a nonzero zero divisor."""

    __slots__ = _fields = ("r", "alpha", "beta")

    def __init__(self, r: float, alpha: float, beta: float):
        self._assign(r, alpha, beta)

    def to_quaternion(self) -> SplitQuaternion:
        return from_polar(self.r, self.alpha, self.beta)


def to_polar(q: SplitQuaternion, eps: float = DEFAULT_EPS) -> LightlikePolar:
    """Polar form of a nonzero zero divisor; angles normalized to [0, 2*pi)."""
    if q.is_zero(eps):
        raise ZeroInputError("the zero quaternion has no polar form")
    if not scalar_is_zero(q.quadratic_form, eps):
        raise NotLightlikeError("polar form requires a zero divisor")
    q0, q1, q2, q3 = (float(c) for c in q.coeffs)
    r = math.hypot(q0, q1)
    alpha = math.atan2(q1, q0) % _TWO_PI
    beta = math.atan2(q3, q2) % _TWO_PI
    return LightlikePolar(r, alpha, beta)


def from_polar(r: float, alpha: float, beta: float) -> SplitQuaternion:
    """Rebuild r*(e^(i*alpha) + e^(i*beta)*j); always lightlike."""
    return SplitQuaternion(
        r * math.cos(alpha), r * math.sin(alpha), r * math.cos(beta), r * math.sin(beta)
    )


def nth_roots(q: SplitQuaternion, n: int, eps: float = DEFAULT_EPS) -> List[SplitQuaternion]:
    """All solutions of w**n = q for a nonzero zero divisor q and n >= 2.

    With polar data (r, alpha, beta) and rho = (r / (2*cos(alpha))**(n-1))**(1/n):
    cos(alpha) > 0 gives rho*(e^(i*alpha)+e^(i*beta)*j), plus its negative
    when n is even; cos(alpha) < 0 with odd n gives the single root with
    the same formula (the power of 2*cos(alpha) is then positive); the
    remaining cases have no solution.  rho is taken as r**(1/n) /
    |2*cos(alpha)|**((n-1)/n), equal wherever a root exists and free of
    overflow.  Exact inputs are converted to floats since rho is
    generally irrational.
    """
    if n < 2:
        raise ValueError("root degree must be at least 2")
    if q.is_zero(eps):
        raise ZeroInputError("roots of 0 are not covered by the polar construction")
    if not scalar_is_zero(q.quadratic_form, eps):
        raise NotLightlikeError("nth_roots requires a zero divisor")
    if q.is_exact:
        warnings.warn(
            "nth roots are generally irrational; computing in floats",
            ExactnessWarning,
            stacklevel=2,
        )
        q = q.to_float()
    polar = to_polar(q, eps)
    cos_alpha = math.cos(polar.alpha)
    if abs(cos_alpha) <= eps:
        return []
    if cos_alpha < 0 and n % 2 == 0:
        return []
    rho = polar.r ** (1.0 / n) / abs(2.0 * cos_alpha) ** ((n - 1) / n)
    base = from_polar(rho, polar.alpha, polar.beta)
    roots = [base]
    if n % 2 == 0:
        roots.append(-base)
    return roots
