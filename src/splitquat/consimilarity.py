"""Consimilarity: x*a = b*conj(x), witnesses and solution spaces.

Two non-real split quaternions are consimilar exactly when conj(a)+b = 0
or their quadratic forms agree and conj(a)+b is not lightlike.  The
element w = conj(a)+b satisfies w*a = b*conj(w) whenever Ia = Ib (the
residual of that substitution is exactly Ia - Ib), and it is invertible
precisely when its own quadratic form is nonzero; the pairs with
conj(a)+b nonzero lightlike (S of rank 3, or of rank 2 when b*a = 0) are
therefore solvable-but-not-consimilar, which is why the predicate and
the solver are separate operations.  When conj(a)+b = 0 the witness is
the closed-form solution of largest |quadratic form| among three, which
is invertible, so the predicate ends with an answer on every non-real
pair.
"""

from __future__ import annotations

from .core import I, J, K, ONE, SplitQuaternion, ZERO
from .errors import RealInputError
from .matrices import nullspace_basis, s_matrix
from .scalars import DEFAULT_EPS, scalar_is_zero, scalars_close
from .solvers import SolutionFamily, Verdict


#: e^-1 * q on the coefficients of q, for the units e = 1, i, j, k.
_INVERSE_TIMES = (
    lambda q0, q1, q2, q3: (q0, q1, q2, q3),
    lambda q0, q1, q2, q3: (q1, -q0, q3, -q2),
    lambda q0, q1, q2, q3: (q2, -q3, q0, -q1),
    lambda q0, q1, q2, q3: (q3, q2, q1, q0),
)


def solve_xa_bxbar(
    a: SplitQuaternion, b: SplitQuaternion, eps: float = DEFAULT_EPS
) -> SolutionFamily:
    """Full solution space of x*a = b*conj(x), as a homogeneous family.

    The space is the kernel of s_matrix(a, b), of dimension 4 - rank: 0
    when S is nonsingular, 1 at rank 3, 2 when b*a = 0 and conj(a)+b != 0,
    3 when conj(a)+b = 0 for a != 0, and 4 at a = b = 0.  With n_t the
    kernel basis, the family is x(y) = sum_t re(y e_t^-1) n_t over the
    units e_t = 1, i, j, k, so its basis is n_t.  As re(z) = (z - i z i
    + j z j + k z k)/4, that is at most four terms e y r_e, one per unit
    e, with r_e = sum_t e_t^-1 e^-1 n_t / 4; a zero r_e is no term.
    """
    # m_t = e_t^-1 n_t
    m = [_INVERSE_TIMES[t](*n) for t, n in enumerate(nullspace_basis(s_matrix(a, b), eps))]
    if not m:
        return SolutionFamily(ZERO, ())
    terms = []
    for e, unit in enumerate((ONE, I, J, K)):
        # e_t^-1 e^-1 = -e^-1 e_t^-1 exactly when e and e_t are distinct imaginary units
        signed = [v if e in (0, t) or t == 0 else [-x for x in v] for t, v in enumerate(m)]
        right = SplitQuaternion(*_INVERSE_TIMES[e](*map(sum, zip(*signed)))) / 4
        if not right.is_zero(0.0):
            terms.append((unit, right))
    return SolutionFamily(ZERO, tuple(terms))


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
