"""Moore-Penrose inverse of a split quaternion.

For invertible a (nonzero quadratic form) the generalized inverse is the
ordinary two-sided inverse conj(a)/I.  For a nonzero zero divisor
a = c1 + c2*j it is

    a+ = (conj(c1) + c2*j) / (4*|c1|^2) = prime(a) / (4*(q0^2 + q1^2)),

which satisfies a*a+*a = a and a+*a*a+ = a+; the products a*a+ and a+*a
are idempotent projectors.  |c1| = |c2| != 0 for nonzero zero divisors,
so the division is always defined.  Both closed forms have one body,
on the numerators of a over one denominator (ints on the exact backend,
the floats themselves on the float one); the zero-divisor form's,
core._lightlike_inverse, is shared with projectors and the solvers.
"""

from __future__ import annotations

import warnings
from typing import Dict, Optional

from .core import SplitQuaternion, ZERO, _form, _from_ratio, _inverse, _lightlike_inverse, _mul, _zero_divisor
from .errors import IllConditionedWarning
from .matrices import left_matrix, mat_mp_inverse, right_matrix
from .scalars import DEFAULT_EPS, _all_zero, _ratio, scalar_is_zero


def mp_inverse(a: SplitQuaternion, eps: float = DEFAULT_EPS) -> SplitQuaternion:
    """Total generalized inverse: 0 -> 0, invertible -> conj(a)/I, zero divisor -> prime(a)/(4|c1|^2).

    On the float backend, a quadratic form with eps < |I| <= 100*eps is
    close enough to the branch cutoff that the result may be unreliable;
    an IllConditionedWarning is emitted in that band.  An exact form is
    tested against zero exactly, so it never warns.  The body runs on the numerators n of a over their
    common denominator d: the result is conj(n)*d / I(n) or
    prime(n)*d / (4*(n0^2 + n1^2)), each coefficient built once.
    """
    n, d = _ratio(a.coeffs)
    if _all_zero(n, eps):
        return ZERO
    form = _form(n)
    if scalar_is_zero(form, eps):
        p, s = _lightlike_inverse(n)
        return _from_ratio(tuple(x * d for x in p), s)
    if scalar_is_zero(form, 100 * eps):
        warnings.warn(
            f"quadratic form {form!r} is within 100*eps of zero; "
            "the inverse branch is numerically fragile here",
            IllConditionedWarning,
            stacklevel=2,
        )
    return _inverse(n, d, form)


def projectors(a: SplitQuaternion, eps: float = DEFAULT_EPS):
    """The idempotent pair (a*a+, a+*a) of a nonzero zero divisor, as core._zero_divisor requires.

    With a = n/d, a+ = prime(n)*d/s for s = 4*(n0^2 + n1^2), so both
    products are numerator products over s alone; on floats a+ is
    divided first, as mp_inverse builds it.
    """
    n = _zero_divisor(_ratio(a.coeffs)[0], eps, "a")
    p, s = _lightlike_inverse(n)
    return _from_ratio(_mul(n, p), s), _from_ratio(_mul(p, n), s)


def check_penrose_coherence(
    a: SplitQuaternion, b: Optional[SplitQuaternion] = None, eps: float = DEFAULT_EPS
) -> Dict[str, bool]:
    """Verify the matrix-level facts that make the quaternion inverse well defined.

    Checks the four Penrose equations for both regular representations,
    and that the matrix Moore-Penrose inverse of L(a), R(a) and
    L(a)R(b) agrees with the quaternion-level inverse.  Returns one
    boolean per identity.
    """
    if b is None:
        b = a
    p = mp_inverse(a, eps)
    pb = mp_inverse(b, eps)
    pairs = {"L": (left_matrix(a), left_matrix(p)), "R": (right_matrix(a), right_matrix(p))}
    checks, inverses = {}, {}
    for x, (m, mp) in pairs.items():
        mmp, mpm = m @ mp, mp @ m
        checks[f"{x}(a){x}(a+){x}(a) = {x}(a)"] = (mmp @ m).isclose(m, eps)
        checks[f"{x}(a+){x}(a){x}(a+) = {x}(a+)"] = (mpm @ mp).isclose(mp, eps)
        checks[f"{x}(a){x}(a+) symmetric"] = mmp.is_symmetric(eps)
        checks[f"{x}(a+){x}(a) symmetric"] = mpm.is_symmetric(eps)
        inverses[f"pinv({x}(a)) = {x}(a+)"] = mat_mp_inverse(m, eps).isclose(mp, eps)
    la, lp = pairs["L"]
    lr = la @ right_matrix(b)
    inverses["pinv(L(a)R(b)) = L(a+)R(b+)"] = mat_mp_inverse(lr, eps).isclose(lp @ right_matrix(pb), eps)
    return {**checks, **inverses}
