"""Moore-Penrose inverse of a split quaternion.

For invertible a (nonzero quadratic form) the generalized inverse is the
ordinary two-sided inverse conj(a)/I.  For a nonzero zero divisor
a = c1 + c2*j it is

    a+ = (conj(c1) + c2*j) / (4*|c1|^2) = prime(a) / (4*(q0^2 + q1^2)),

which satisfies a*a+*a = a and a+*a*a+ = a+; the products a*a+ and a+*a
are idempotent projectors.  |c1| = |c2| != 0 for nonzero zero divisors,
so the division is always defined.  Both closed forms have one body,
on the numerators of a over one denominator: ints on the exact
backend, the floats themselves on the float one.
"""

from __future__ import annotations

import warnings
from typing import Dict, Optional

from .core import SplitQuaternion, ZERO, _form, _from_ratio, _inverse, _quat_product
from .errors import IllConditionedWarning, NotLightlikeError, ZeroInputError
from .matrices import Mat4, left_matrix, mat_mp_inverse, right_matrix
from .scalars import DEFAULT_EPS, _all_zero, _over, _ratio, scalar_is_zero


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
    n0, n1, n2, n3 = n
    form = _form(n)
    if scalar_is_zero(form, eps):
        return _from_ratio((n0 * d, -n1 * d, n2 * d, n3 * d), 4 * (n0 * n0 + n1 * n1))
    if scalar_is_zero(form, 100 * eps):
        warnings.warn(
            f"quadratic form {form!r} is within 100*eps of zero; "
            "the inverse branch is numerically fragile here",
            IllConditionedWarning,
            stacklevel=2,
        )
    return _inverse(n, d, form)


def projectors(a: SplitQuaternion, eps: float = DEFAULT_EPS):
    """The idempotent pair (a*a+, a+*a) of a nonzero zero divisor.

    With a = n/d, a+ = prime(n)*d/s for s = 4*(n0^2 + n1^2), so both
    products are numerator products over s alone; on floats a+ is
    divided first, as mp_inverse builds it.
    """
    n, d = _ratio(a.coeffs)
    if _all_zero(n, eps):
        raise ZeroInputError("projectors of 0 are not defined")
    if not scalar_is_zero(_form(n), eps):
        raise NotLightlikeError("projectors are only interesting for zero divisors; both equal 1 here")
    n0, n1, n2, n3 = n
    p, s = _over((n0, -n1, n2, n3), 4 * (n0 * n0 + n1 * n1))
    return _from_ratio(_quat_product(n + p), s), _from_ratio(_quat_product(p + n), s)


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
    la, lp = left_matrix(a), left_matrix(p)
    ra, rp = right_matrix(a), right_matrix(p)

    def close(x: Mat4, y: Mat4) -> bool:
        return x.isclose(y, eps)

    lalp, lpla = la @ lp, lp @ la
    rarp, rpra = ra @ rp, rp @ ra
    lr = la @ right_matrix(b)
    checks = {
        "L(a)L(a+)L(a) = L(a)": close(lalp @ la, la),
        "L(a+)L(a)L(a+) = L(a+)": close(lpla @ lp, lp),
        "L(a)L(a+) symmetric": lalp.is_symmetric(eps),
        "L(a+)L(a) symmetric": lpla.is_symmetric(eps),
        "R(a)R(a+)R(a) = R(a)": close(rarp @ ra, ra),
        "R(a+)R(a)R(a+) = R(a+)": close(rpra @ rp, rp),
        "R(a)R(a+) symmetric": rarp.is_symmetric(eps),
        "R(a+)R(a) symmetric": rpra.is_symmetric(eps),
        "pinv(L(a)) = L(a+)": close(mat_mp_inverse(la, eps), lp),
        "pinv(R(a)) = R(a+)": close(mat_mp_inverse(ra, eps), rp),
        "pinv(L(a)R(b)) = L(a+)R(b+)": close(mat_mp_inverse(lr, eps), lp @ right_matrix(pb)),
    }
    return checks
