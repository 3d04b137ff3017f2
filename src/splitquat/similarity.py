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

Witnesses are deterministic: the first invertible value of the rank-2
family at the fixed points PROBE_YS.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from .core import I, J, K, ONE, SplitQuaternion, ZERO
from .errors import (
    CaseMismatchError,
    ExactnessWarning,
    RealInputError,
    WitnessSearchExhaustedError,
)
from .matrices import t_matrix, t_rank_case, TRankCase
from .scalars import DEFAULT_EPS, exact_sqrt, scalar_is_zero, scalar_sqrt, scalars_close
from .solvers import SolutionFamily

#: Instantiation points of a witness family, tried in order: the four
#: units and their six pairwise sums.  The family's image is spanned by
#: the images x(e_a), x(e_b) of two units; a quadratic form vanishing on
#: x(e_a), x(e_b) and x(e_a + e_b) vanishes on their whole span by
#: polarization, so when the span holds an invertible element one of
#: these points reaches one.
PROBE_YS = (ONE, I, J, K, ONE + I, ONE + J, ONE + K, I + J, I + K, J + K)


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
    return _rank2_family(a, b)


def _rank2_family(a: SplitQuaternion, b: SplitQuaternion) -> SolutionFamily:
    """The rank-2 family of solve_sim_rank2, for a pair already known to qualify."""
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


def _search_invertible(family: SolutionFamily, eps: float) -> SplitQuaternion:
    """First invertible family.at(y) over PROBE_YS, in order."""
    for y in PROBE_YS:
        x = family.at(y)
        if not scalar_is_zero(x.quadratic_form, eps):
            return x
    raise WitnessSearchExhaustedError(
        f"no invertible element among the {len(PROBE_YS)} probe instantiations"
    )


def is_similar(a: SplitQuaternion, b: SplitQuaternion, eps: float = DEFAULT_EPS) -> Verdict:
    """Decide similarity and, when similar, return an invertible q with q*a = b*q.

    Non-real pairs are similar exactly when real parts and im_squared
    invariants match; real numbers are similar only to themselves, and a
    real number is never similar to a non-real one (conjugation fixes
    the reals).  The witness is the first invertible element of the
    rank-2 solution family at the points PROBE_YS, so it is deterministic.
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
    witness = _search_invertible(solve_sim_rank2(a, b, eps), eps)
    return Verdict(True, witness)


def _reduce_lightlike_im(a: SplitQuaternion, eps: float) -> SplitQuaternion:
    """Step-one conjugator taking a (with im_squared = 0) to a0 + m*i - m*j."""
    if scalar_is_zero(a.q3, eps):
        # |a1| = |a2| here; a unit conjugation fixes or flips the j part
        if scalars_close(a.q2, -a.q1, eps):
            return ONE
        if scalars_close(a.q2, a.q1, eps):
            return I
        raise CaseMismatchError("im_squared is not zero")
    p = (a.q1 - a.q2) + a.q3 * I
    # quadratic form of p is 2*a1*(a1 - a2), nonzero whenever a3 != 0
    return p


def canonical_form(a: SplitQuaternion, eps: float = DEFAULT_EPS) -> CanonicalForm:
    """Conjugacy normal form of a non-real element with an explicit conjugator.

    k = im_squared(a) > 0 maps to a0 + sqrt(k)*j, k < 0 to a0 + sqrt(-k)*i,
    and k = 0 to a0 + i + j.  The k = 0 reduction is fully rational; for
    k != 0 the conjugator comes from probing the rank-2 solution family
    of x*a = target*x.  When k is not a perfect rational square the
    computation escalates to floats and the result is flagged inexact.
    """
    _require_nonreal(a, eps, "a")
    k = a.im_squared
    if scalar_is_zero(k, eps):
        p = _reduce_lightlike_im(a, eps)
        reduced = p * a * p.inverse(eps)
        m = reduced.q1
        if scalars_close(m, 1, eps):
            step2 = I
        elif scalars_close(m, -1, eps):
            step2 = J
        else:
            step2 = (1 + m) * I + (1 - m) * J
        conjugator = step2 * p
        target = SplitQuaternion(a.q0, 1, 1, 0)
        return CanonicalForm(target, conjugator, a.is_exact)

    exact = a.is_exact
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
    # the target has a's real part and im_squared by construction; a float
    # re-check of that with the absolute eps fails at large scale
    conjugator = _search_invertible(_rank2_family(a, target), eps)
    return CanonicalForm(target, conjugator, exact)
