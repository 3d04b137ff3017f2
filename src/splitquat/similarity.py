"""Similarity of split quaternions: x*a = b*x, witnesses, canonical forms.

Two non-real split quaternions are similar (conjugate by an invertible
element) exactly when their real parts and their im_squared invariants
agree.  The solution space of x*a = b*x is the kernel of
t_matrix(a, b); it degenerates in two ways:

* equal real parts and equal im_squared: rank 2, solved in closed form
  by x(y) = y - (y*a*a' - b*y*a' - b'*y*a + b'*b*y) / (2*(|im a|^2 + |im b|^2));
* distinct real parts with vanishing determinant: rank 3, solved through
  the auxiliary zero divisor p = (Ib - Ia) + 2*(a0 - b0)*a, whose
  quadratic form equals det(t_matrix(a, b)).

Every non-real element is conjugate to one of three targets depending on
the sign of its im_squared invariant k: a0 + sqrt(k)*j, a0 + sqrt(-k)*i,
or a0 + i + j when k = 0.

Witnesses and conjugators come from one closed form in the 2x2 real
matrix model phi(q) = [[q0+q2, q3-q1], [q1+q3, q0-q2]], an isomorphism
under which the quadratic form is the determinant and 2*q0 the trace.
For X = phi(x) and a vector v that is no eigenvector of X, the basis
P_X = [v, X*v] takes X to its companion matrix, which trace and
determinant fix; similar a and b share both, so q = phi^-1(P_B * P_A^-1)
satisfies q*a = b*q (Hoffman-Kunze, Linear Algebra, ch. 7).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from .core import J, ONE, SplitQuaternion, ZERO
from .errors import CaseMismatchError, ExactnessWarning, RealInputError
from .matrices import t_matrix, t_rank_case, TRankCase
from .scalars import DEFAULT_EPS, exact_sqrt, scalar_is_zero, scalar_sqrt, scalars_close
from .solvers import SolutionFamily

@dataclass(frozen=True)
class Verdict:
    """Boolean answer plus, when true, an invertible witness."""

    verdict: bool
    witness: Optional[SplitQuaternion]

    def __bool__(self) -> bool:
        return self.verdict


@dataclass(frozen=True)
class CanonicalForm:
    """Conjugacy normal form: target = conjugator * a * conjugator^-1.

    ``exact`` is False when the square root forced an escalation from
    rationals to floats; the conjugation identity then holds to within
    the working tolerance instead of bit-exactly.
    """

    target: SplitQuaternion
    conjugator: SplitQuaternion
    exact: bool


def _require_nonreal(q: SplitQuaternion, eps: float, name: str = "input") -> None:
    if q.is_real(eps):
        raise RealInputError(f"{name} must have a nonzero imaginary part")


def solve_sim_rank2(
    a: SplitQuaternion, b: SplitQuaternion, eps: float = DEFAULT_EPS
) -> SolutionFamily:
    """All solutions of x*a = b*x when a0 = b0 and im_squared agree.

    The family x(y) = y - (y*a*a' - b*y*a' - b'*y*a + b'*b*y)/D with
    D = 2*(|im a|^2 + |im b|^2) has dimension 2.
    """
    _require_nonreal(a, eps, "a")
    _require_nonreal(b, eps, "b")
    if not (
        scalars_close(a.q0, b.q0, eps) and scalars_close(a.im_squared, b.im_squared, eps)
    ):
        raise CaseMismatchError("requires equal real parts and equal im_squared invariants")
    d = 2 * (a.im_norm_sq + b.im_norm_sq)
    ap, bp = a.prime(), b.prime()
    terms = (
        (ONE, ONE),
        (-(ONE / d), a * ap),
        (b / d, ap),
        (bp / d, a),
        (-(bp * b) / d, ONE),
    )
    return SolutionFamily(ZERO, terms)


def solve_sim_rank3(
    a: SplitQuaternion, b: SplitQuaternion, eps: float = DEFAULT_EPS
) -> SolutionFamily:
    """All solutions of x*a = b*x when a0 != b0 and t_matrix is singular.

    Writes p = (Ib - Ia) + 2*(a0 - b0)*a, which is a nonzero zero divisor
    because its quadratic form equals det(t_matrix(a, b)) = 0.  With
    m = 1 - (p2/conj(p1))*j built from the complex pair of p, the family
    is x(y) = y*m*a - conj(b)*y*m; it has dimension 1.
    """
    _require_nonreal(a, eps, "a")
    _require_nonreal(b, eps, "b")
    if scalars_close(a.q0, b.q0, eps):
        raise CaseMismatchError("requires distinct real parts")
    if not scalar_is_zero(t_matrix(a, b).det(eps), eps):
        raise CaseMismatchError("requires a singular t_matrix")
    shift = b.quadratic_form - a.quadratic_form
    p = shift + 2 * (a.q0 - b.q0) * a
    p1_conj = SplitQuaternion(p.q0, -p.q1, 0, 0)
    p2 = SplitQuaternion(p.q2, p.q3, 0, 0)
    m = ONE - p2 * p1_conj.inverse(eps) * J
    return SolutionFamily(ZERO, ((ONE, m * a), (-b.conjugate(), m)))


def solve_xa_bx(
    a: SplitQuaternion, b: SplitQuaternion, eps: float = DEFAULT_EPS
) -> SolutionFamily:
    """Full solution set of x*a = b*x for non-real a, b, any degeneration."""
    _require_nonreal(a, eps, "a")
    _require_nonreal(b, eps, "b")
    case = t_rank_case(a, b, eps)
    if case is TRankCase.RANK2:
        return solve_sim_rank2(a, b, eps)
    if case is TRankCase.RANK3:
        return solve_sim_rank3(a, b, eps)
    return SolutionFamily(ZERO, ())


def _cyclic_basis(x: SplitQuaternion):
    """Rows of P = [v, phi(x)*v], with v among e1, e2, e1 + e2 giving the largest |det P|.

    phi(x) of a non-real x is not scalar, so it has at most two
    eigenvector directions, and one of the three v is no eigenvector.
    """
    m00, m01, m10, m11 = x.q0 + x.q2, x.q3 - x.q1, x.q1 + x.q3, x.q0 - x.q2
    columns = (((1, 0), (m00, m10)), ((0, 1), (m01, m11)), ((1, 1), (m00 + m01, m10 + m11)))
    (v0, v1), (w0, w1) = max(columns, key=lambda c: abs(c[0][0] * c[1][1] - c[1][0] * c[0][1]))
    return (v0, w0), (v1, w1)


def _cyclic_witness(a: SplitQuaternion, b: SplitQuaternion) -> SplitQuaternion:
    """Invertible q with q*a = b*q for similar non-real a and b: phi^-1(P_B * P_A^-1)."""
    (a00, a01), (a10, a11) = _cyclic_basis(a)
    (b00, b01), (b10, b11) = _cyclic_basis(b)
    det = a00 * a11 - a01 * a10
    # P_B * adj(P_A) / det(P_A); on is_similar(x, x) this is the identity bit for bit
    m00 = (b00 * a11 - b01 * a10) / det
    m01 = (b01 * a00 - b00 * a01) / det
    m10 = (b10 * a11 - b11 * a10) / det
    m11 = (b11 * a00 - b10 * a01) / det
    return SplitQuaternion((m00 + m11) / 2, (m10 - m01) / 2, (m00 - m11) / 2, (m01 + m10) / 2)


def is_similar(a: SplitQuaternion, b: SplitQuaternion, eps: float = DEFAULT_EPS) -> Verdict:
    """Decide similarity and, when similar, return an invertible q with q*a = b*q.

    Non-real pairs are similar exactly when real parts and im_squared
    invariants match; real numbers are similar only to themselves, and a
    real number is never similar to a non-real one (conjugation fixes
    the reals).  The witness of a non-real pair is the closed form
    phi^-1(P_B * P_A^-1) of the module docstring, so it is deterministic,
    and is_similar(a, a) gives ONE.
    """
    a_real, b_real = a.is_real(eps), b.is_real(eps)
    if a_real and b_real:
        same = a.isclose(b, eps)
        return Verdict(same, ONE if same else None)
    if a_real or b_real:
        return Verdict(False, None)
    if not (
        scalars_close(a.q0, b.q0, eps) and scalars_close(a.im_squared, b.im_squared, eps)
    ):
        return Verdict(False, None)
    return Verdict(True, _cyclic_witness(a, b))


def canonical_form(a: SplitQuaternion, eps: float = DEFAULT_EPS) -> CanonicalForm:
    """Conjugacy normal form of a non-real element with an explicit conjugator.

    k = im_squared(a) > 0 maps to a0 + sqrt(k)*j, k < 0 to a0 + sqrt(-k)*i,
    and k = 0 to a0 + i + j.  The conjugator is the closed-form witness
    phi^-1(P_target * P_a^-1) of the module docstring on every branch.
    When k is not a perfect rational square the computation escalates to
    floats and the result is flagged inexact.
    """
    _require_nonreal(a, eps, "a")
    k = a.im_squared
    exact = a.is_exact
    if scalar_is_zero(k, eps):
        target = SplitQuaternion(a.q0, 1, 1, 0)
    else:
        if exact and exact_sqrt(abs(k)) is None:
            warnings.warn(
                "im_squared is not a perfect rational square; escalating to floats",
                ExactnessWarning,
                stacklevel=2,
            )
            a = a.to_float()
            k = a.im_squared
            exact = False
        root = scalar_sqrt(abs(k))
        if k > 0:
            target = SplitQuaternion(a.q0, 0, root, 0)
        else:
            target = SplitQuaternion(a.q0, root, 0, 0)
    return CanonicalForm(target, _cyclic_witness(a, target), exact)
