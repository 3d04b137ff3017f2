"""Powers, nilpotents, idempotents, and roots of zero divisors.

Any split quaternion satisfies q^2 = 2*re(q)*q - I(q); for zero divisors
the quadratic form vanishes, so q^n = (2*re(q))^(n-1) * q in closed
form.  The same identity gives the roots: a root w of a zero divisor q
is itself a zero divisor, so w^n = (2*w0)^(n-1) * w = q makes w = c*q
with c^n * (2*q0)^(n-1) = 1.  The nilpotents (q^2 = 0) are the zero
divisors with q0 = 0, and the idempotents (q^2 = q) other than 0 and 1
are those with 2*q0 = 1.

Nonzero zero divisors also have a polar presentation

    q = r * (cos(alpha) + sin(alpha)*i) + r * (cos(beta) + sin(beta)*i) * j

with r > 0 and angles in [0, 2*pi).  to_polar and from_polar convert to
and from it; with q0 = r*cos(alpha) it restates the root count: w^n = q
has 2, 1 or 0 solutions depending on the sign of cos(alpha) and the
parity of n.
"""

from __future__ import annotations

import math
import warnings
from typing import List

from .core import ONE, Frozen, SplitQuaternion
from .errors import ExactnessWarning, NonFiniteError, NotLightlikeError, ZeroInputError
from .scalars import DEFAULT_EPS, scalar_is_zero, scalars_close

_TWO_PI = 2.0 * math.pi


def power(q: SplitQuaternion, n: int, eps: float = DEFAULT_EPS) -> SplitQuaternion:
    """q**n for n >= 1; closed form for zero divisors, square-and-multiply otherwise."""
    if n < 1:
        raise ValueError("exponent must be a positive integer")
    if q.is_lightlike(eps):
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
    """Zero real part and zero quadratic form; such q already square to zero."""
    return scalar_is_zero(q.q0, eps) and q.is_lightlike(eps)


def is_idempotent(q: SplitQuaternion, eps: float = DEFAULT_EPS) -> bool:
    """q*q = q: exactly 0, 1, and the zero divisors with real part 1/2."""
    if q.is_zero(eps) or q.isclose(ONE, eps):
        return True
    return scalars_close(2 * q.q0, 1, eps) and q.is_lightlike(eps)


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
    if not q.is_lightlike(eps):
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

    A root w of a zero divisor is a zero divisor, so w**n =
    (2*w0)**(n-1) * w, and every root is c*q with c**n * (2*q0)**(n-1) = 1.
    With c = |2*q0|**((1-n)/n): q0 > 0 gives the roots c*q, and -c*q when
    n is even; q0 < 0 gives the single root c*q when n is odd and none
    when n is even; q0 = 0 gives none.  q0 counts as zero when
    |q0| <= eps * hypot(q0, q1), which is |cos(alpha)| <= eps in polar
    form.  Exact inputs are converted to floats since c is generally
    irrational.
    """
    if n < 2:
        raise ValueError("root degree must be at least 2")
    if q.is_zero(eps):
        raise ZeroInputError("roots of 0 are not covered by the polar construction")
    if not q.is_lightlike(eps):
        raise NotLightlikeError("nth_roots requires a zero divisor")
    if q.is_exact:
        warnings.warn(
            "nth roots are generally irrational; computing in floats",
            ExactnessWarning,
            stacklevel=2,
        )
        q = q.to_float()
    q0 = q.q0
    if abs(q0) <= eps * math.hypot(q0, q.q1) or (q0 < 0 and n % 2 == 0):
        return []
    try:
        root = abs(2.0 * q0) ** ((1 - n) / n) * q
    except OverflowError:  # q0 is tiny next to the eps that let q count as lightlike
        raise NonFiniteError("coefficient is not finite on the float backend") from None
    return [root, -root] if n % 2 == 0 else [root]
