"""Consimilarity: x*a = b*conj(x), witnesses and solution spaces.

Two non-real split quaternions are consimilar exactly when conj(a)+b = 0
or their quadratic forms agree and conj(a)+b is not lightlike.  The
element w = conj(a)+b satisfies w*a = b*conj(w) whenever Ia = Ib (the
residual of that substitution is exactly Ia - Ib), and it is invertible
precisely when its own quadratic form is nonzero; the rank-3 lightlike
cases are therefore solvable-but-not-consimilar, which is why the
predicate and the solver are separate operations.  When conj(a)+b = 0
the witness is the closed-form solution of largest |quadratic form|
among three, which is invertible, so the predicate ends with an answer
on every non-real pair.
"""

from __future__ import annotations

from .core import SplitQuaternion, ZERO
from .errors import RealInputError
from .matrices import Mat4, mat_mp_inverse, s_matrix
from .scalars import DEFAULT_EPS, scalar_is_zero, scalars_close
from .solvers import SolutionFamily, Verdict


def solve_xa_bxbar(
    a: SplitQuaternion, b: SplitQuaternion, eps: float = DEFAULT_EPS
) -> SolutionFamily:
    """Full solution space of x*a = b*conj(x), as a homogeneous family.

    The space is the kernel of s_matrix(a, b); the family's linear part
    is the exact kernel projector E - S+ S, so its dimension is
    4 - rank(s_matrix(a, b)) (0, 1, or 3).
    """
    s = s_matrix(a, b)
    projector = Mat4.identity() - mat_mp_inverse(s, eps) @ s
    return SolutionFamily.from_matrix(ZERO, projector)


def is_consimilar(
    a: SplitQuaternion, b: SplitQuaternion, eps: float = DEFAULT_EPS
) -> Verdict:
    """Decide consimilarity of non-real a, b; returns an invertible witness when true.

    When conj(a)+b != 0 the witness is conj(a)+b itself.  When
    conj(a)+b = 0 every element of the fixed list a3*i + a1*k,
    a2*i + a1*j, a1 + a0*i solves x*a = b*conj(x), and the witness is
    the one of largest |quadratic form|, which is nonzero for non-real
    a: it is a1^2 + a0^2 for the last, and a3^2 or a2^2 for the first
    two when a1 = 0.
    """
    if a.is_real(eps) or b.is_real(eps):
        raise RealInputError("consimilarity is only defined here for non-real elements")
    w = a.conjugate() + b
    if w.is_zero(eps):
        candidates = (
            SplitQuaternion(0, a.q3, 0, a.q1),
            SplitQuaternion(0, a.q2, a.q1, 0),
            SplitQuaternion(a.q1, a.q0, 0, 0),
        )
        return Verdict(True, max(candidates, key=lambda x: abs(x.quadratic_form)))
    if scalars_close(a.quadratic_form, b.quadratic_form, eps) and not scalar_is_zero(
        w.quadratic_form, eps
    ):
        return Verdict(True, w)
    return Verdict(False, None)
