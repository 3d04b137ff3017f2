"""Powers, nilpotents, idempotents, and roots of zero divisors.

Any split quaternion satisfies q^2 = t*q - I with t = 2*re(q) and
I = I(q), the quadratic form.  So every power is q^n = alpha + beta*q,
and powers multiply as pairs:

    (alpha + beta*q)(gamma + delta*q) = (alpha*gamma - I*beta*delta)
                                        + (alpha*delta + beta*gamma + t*beta*delta)*q.

power runs square-and-multiply on that pair, on the numerators of
q = (n0, n1, n2, n3)/d: with N = d*q, N^2 = 2*n0*N - I(n), and a power
is (a + b*N)/e for ints a, b, e > 0 (floats over 1.0 on the float
backend), reduced by gcd(a, b, e) after each step, and built once as
(a + b*n0, b*n1, b*n2, b*n3)/e.  For zero divisors I = 0, and the pair
gives the closed form q^n = t^(n-1)*q.

The same identity gives the roots: a root w of a zero divisor q is
itself a zero divisor, so w^n = (2*w0)^(n-1) * w = q makes w = c*q with
c^n * (2*q0)^(n-1) = 1.  The nilpotents (q^2 = 0) are the zero divisors
with q0 = 0, and the idempotents (q^2 = q) other than 0 and 1 are those
with 2*q0 = 1.

An exact power is refused with format_scalar's SplitQuaternionError
when a numerator or denominator of the result has more digits than
str() converts, the limit L of sys.get_int_max_str_digits().  Only the
final value is checked, since the height of q^m can fall as m grows:
1 + x*i + j + x*k with x = 2^-20000 is a zero divisor with t = 2, and
q^m = 2^(m-1)*q reaches its least height at m = 10001.  A result far
past the limit is refused before any powering, by heights (Bombieri
and Gubler, Heights in Diophantine Geometry, ch. 1).  With h the
absolute logarithmic Weil height, h(x^n) = n*h(x), h(x*y) <= h(x) + h(y),
h(1/x) = h(x) and h(x + y) <= h(x) + h(y) + log 2; for a rational, h is
the log of the larger of |numerator| and denominator.  A root lam of
x^2 - t*x + I has lam^n = alpha + beta*lam with the alpha, beta of q^n,
whose coefficients are c0 = alpha + beta*q0 and ci = beta*qi, so for
a nonzero qi (i = 1, 2, 3)

    (n - 1)*h(lam) <= h(c0) + 2*h(ci) + 2*h(qi) + h(q0) + 2*log 2,

and for real q, c0 = lam^n.  A printable result has h(c) < L*log 10
for every coefficient.  The larger height of the two roots is at least
log M(g) / 2, where g = A*x^2 + B*x + C is the primitive integer
multiple of x^2 - t*x + I and M(g) = A*max(1, |lam|)*max(1, |mu|) its
Mahler measure, and M(g) >= max(A, |C|, (|B| + isqrt(B^2 - 4AC))/2),
the last term for real roots only.  That bound exceeds 1 whenever
M(g) does (Kronecker: otherwise the roots are 0 or roots of unity, and
the powers do not grow geometrically), so _past_limit refuses every
result that grows past the limit once n is a bounded multiple of the
n at which it does, and a power that is computed has at most a bounded
multiple of L digits beyond those of q.

Nonzero zero divisors also have a polar presentation

    q = r * (cos(alpha) + sin(alpha)*i) + r * (cos(beta) + sin(beta)*i) * j

with r > 0 and angles in [0, 2*pi).  to_polar and from_polar convert to
and from it; with q0 = r*cos(alpha) it restates the root count: w^n = q
has 2, 1 or 0 solutions depending on the sign of cos(alpha) and the
parity of n.
"""

from __future__ import annotations

import math
import sys
import warnings
from fractions import Fraction
from typing import List

from .core import ONE, Frozen, SplitQuaternion, _form, _from_ratio, _new, _zero_divisor
from .errors import ExactnessWarning, NonFiniteError
from .scalars import DEFAULT_EPS, _digit_limit, _floats, _printable, _ratio, _too_long, scalar_is_zero

_TWO_PI = 2.0 * math.pi
#: nth_roots scales an exact q with a nonzero coefficient outside [2^-1000, 2^1000] before rounding it
_TINY, _HUGE = 2.0**-1000, 2.0**1000


def power(q: SplitQuaternion, n: int) -> SplitQuaternion:
    """q**n for n >= 1, by square-and-multiply on the pair (alpha, beta) of q**n = alpha + beta*q.

    No branch tests a tolerance, so there is no eps.  An exact result
    too long to print raises SplitQuaternionError (see the module
    docstring); a float one that overflows raises NonFiniteError.
    """
    if n < 1:
        raise ValueError("exponent must be a positive integer")
    nums, d = _ratio(q.coeffs)
    exact = d.__class__ is int
    if exact and _past_limit(nums, d, n):
        raise _too_long()
    t, form = 2 * nums[0], _form(nums)
    zero = 0 * d
    result, base = None, (zero, zero + 1, d)  # q = (0 + 1*N)/d
    while True:
        if n & 1:
            result = base if result is None else _pair_product(result, base, t, form)
        n >>= 1
        if not n:
            break
        base = _pair_product(base, base, t, form)
    a, b, e = result
    n0, n1, n2, n3 = nums
    value = _from_ratio((a + b * n0, b * n1, b * n2, b * n3), e)
    if exact and not _printable(value.coeffs):
        raise _too_long()
    return value


def _pair_product(x: tuple, y: tuple, t, form) -> tuple:
    """(a + b*N)/e times (c + f*N)/g, with N^2 = t*N - form; ints reduced by their gcd."""
    a, b, e = x
    c, f, g = y
    bf = b * f
    a, b, e = a * c - form * bf, a * f + b * c + t * bf, e * g
    if e.__class__ is int:
        k = math.gcd(a, b, e)
        return a // k, b // k, e // k
    return a, b, e


def _past_limit(nums: tuple, d: int, n: int) -> bool:
    """Whether the module docstring's height bound proves q**n too long to print, for q = nums/d."""
    limit = _digit_limit()
    size = max(d, *map(abs, nums)).bit_length()
    # log2 M(g) <= 2*size + 3, and a refusal needs (n - 1)*log2 M(g) >= 6*L*log2(10)
    if not limit or (n - 1) * (2 * size + 3) < 19 * limit:
        return False
    n0 = nums[0]
    a, b, c = d * d, -2 * n0 * d, _form(nums)  # d^2 * (x^2 - t*x + I)
    k = math.gcd(a, b, c)
    a, b, c = a // k, b // k, c // k
    twice_m = max(2 * a, 2 * abs(c), abs(b) + math.isqrt(max(b * b - 4 * a * c, 0)))
    if twice_m <= 2:
        return False
    heights = [math.log2(max(abs(x), d)) for x in nums[1:] if x]
    bound = 3 * limit * math.log2(10) + 2 * min(heights, default=0.0) + math.log2(max(abs(n0), d)) + 2
    # (n - 1) * log2(M(g)) / 2 >= bound, with a margin for the rounding of the logarithms
    return n - 1 >= 2 * bound / (math.log2(twice_m) - 1) * (1 + 1e-9) + 1


def is_nilpotent(q: SplitQuaternion, eps: float = DEFAULT_EPS) -> bool:
    """Zero real part and zero quadratic form; such q already square to zero."""
    return scalar_is_zero(q.q0, eps) and q.is_lightlike(eps)


def is_idempotent(q: SplitQuaternion, eps: float = DEFAULT_EPS) -> bool:
    """q*q = q: exactly 0, 1, and the zero divisors with real part 1/2."""
    if q.is_zero(eps) or q.isclose(ONE, eps):
        return True
    return scalar_is_zero(2 * q.q0 - 1, eps) and q.is_lightlike(eps)


class LightlikePolar(Frozen):
    """Polar data (r, alpha, beta) of a nonzero zero divisor."""

    __slots__ = _fields = ("r", "alpha", "beta")

    def __init__(self, r: float, alpha: float, beta: float):
        self._assign(r, alpha, beta)

    def to_quaternion(self) -> SplitQuaternion:
        return from_polar(self.r, self.alpha, self.beta)


def to_polar(q: SplitQuaternion, eps: float = DEFAULT_EPS) -> LightlikePolar:
    """Polar form of a nonzero zero divisor (core._zero_divisor); angles normalized to [0, 2*pi)."""
    _zero_divisor(_ratio(q.coeffs)[0], eps, "q")
    q0, q1, q2, q3 = _floats(q.coeffs)
    r = math.hypot(q0, q1)
    if not r:  # an exact q below the float range
        raise NonFiniteError("polar radius underflows to 0 on the float backend")
    alpha = math.atan2(q1, q0) % _TWO_PI
    beta = math.atan2(q3, q2) % _TWO_PI
    return LightlikePolar(r, alpha, beta)


def from_polar(r: float, alpha: float, beta: float) -> SplitQuaternion:
    """Rebuild r*(e^(i*alpha) + e^(i*beta)*j); always lightlike."""
    return SplitQuaternion(
        r * math.cos(alpha), r * math.sin(alpha), r * math.cos(beta), r * math.sin(beta)
    )


def nth_roots(q: SplitQuaternion, n: int, eps: float = DEFAULT_EPS) -> List[SplitQuaternion]:
    """All solutions of w**n = q for n >= 2 and a nonzero zero divisor q (core._zero_divisor).

    A root w of a zero divisor is a zero divisor, so w**n =
    (2*w0)**(n-1) * w, and every root is c*q with c**n * (2*q0)**(n-1) = 1.
    With c = |2*q0|**((1-n)/n): q0 > 0 gives the roots c*q, and -c*q when
    n is even; q0 < 0 gives the single root c*q when n is odd and none
    when n is even; q0 = 0 gives none.  q0 counts as zero when
    |q0| <= eps * hypot(q0, q1), which is |cos(alpha)| <= eps in polar
    form.  Exact inputs are converted to floats since c is generally
    irrational.  The roots of 2^(n*m)*q are 2^m times those of q, so an
    exact q with a nonzero coefficient outside [2^-1000, 2^1000] once
    rounded is scaled by the 2^(n*m) that brings its largest coefficient
    near 1 before it is rounded, and its roots are scaled back; m = 0
    otherwise, so that 2*q0 cannot overflow.  A root outside the float
    range raises NonFiniteError.
    """
    if n < 2:
        raise ValueError("root degree must be at least 2")
    _zero_divisor(_ratio(q.coeffs)[0], eps, "q")
    m = 0
    if q.is_exact:
        warnings.warn(
            "nth roots are generally irrational; computing in floats",
            ExactnessWarning,
            stacklevel=2,
        )
        try:
            floats = _floats(q.coeffs)
        except NonFiniteError:  # past the float range: scaled below
            floats = None
        if floats is None or any(not _TINY <= abs(y) <= _HUGE and x for x, y in zip(q.coeffs, floats)):
            sizes = [x.numerator.bit_length() - x.denominator.bit_length() for x in q.coeffs if x]  # log2 |x|, +-1
            m = -max(sizes) // n
            floats = _floats((q * Fraction(2) ** (n * m)).coeffs)
        q = _new(*floats)
    q0 = q.q0
    if scalar_is_zero(q0, eps * math.hypot(q0, q.q1)) or (q0 < 0 and n % 2 == 0):
        return []
    try:
        root = abs(2.0 * q0) ** ((1 - n) / n) * q
        if m:
            root = SplitQuaternion(*(math.ldexp(x, -m) for x in root.coeffs))
    except OverflowError:  # q0 is tiny next to the eps that let q count as lightlike, or the root is too large
        raise NonFiniteError("coefficient is not finite on the float backend") from None
    if m and max(map(abs, root.coeffs)) < sys.float_info.min:  # scaled back below the normal range
        raise NonFiniteError("root underflows on the float backend")
    return [root, -root] if n % 2 == 0 else [root]
