"""Similarity of split quaternions: x*a = b*x, witnesses, canonical forms.

Two non-real split quaternions are similar (conjugate by an invertible
element) exactly when their real parts and their im_squared invariants
agree.  The solution space of x*a = b*x is the kernel of
t_matrix(a, b).  solve_xa_bx decides once which of three cases holds
and builds that case's family in closed form:

* equal real parts and equal im_squared: rank 2, solved with
  A = im(a) and B = im(b) by
  x(y) = y - (y*A*A' - B*y*A' - B'*y*A + B'*B*y) / (2*(|A|^2 + |B|^2));
* distinct real parts and a singular t_matrix(a, b): rank 3, solved through
  the auxiliary zero divisor p = (Ib - Ia) + 2*(a0 - b0)*a, whose
  quadratic form equals det(t_matrix(a, b));
* otherwise t_matrix(a, b) is nonsingular and x = 0 is the only solution.

solve_xa_bx takes one _ratio of a and b, decides on those numerators,
and hands over the matrix of its terms and a recipe that builds them.

Every non-real element is conjugate to one of three targets depending on
the sign of its im_squared invariant k: a0 + sqrt(k)*j, a0 + sqrt(-k)*i,
or a0 + i + j when k = 0.

is_similar and canonical_form decide on the numerators of one _ratio:
is_similar compares the real parts and the im_squared numerators of a
and b over their common denominator d, and canonical_form reads
k = -n1^2 + n2^2 + n3^2 over d^2.  As d^2 is a square, k/d^2 has a
rational root exactly when the int k does, and that root is
math.isqrt(|k|)/d; the target is built once from its numerators over d.

Witnesses and conjugators come from one closed form in the 2x2 real
matrix model phi(q) = [[q0+q2, q3-q1], [q1+q3, q0-q2]], an isomorphism
under which the quadratic form is the determinant and 2*q0 the trace.
For X = phi(x) and a vector v that is no eigenvector of X, the basis
P_X = [v, X*v] takes X to its companion matrix, which trace and
determinant fix; similar a and b share both, so q = phi^-1(P_B * P_A^-1)
satisfies q*a = b*q (Hoffman-Kunze, Linear Algebra, ch. 7).  The basis
is built on phi(im x) = X - x0*I, which has the eigenvectors of X and
stays well apart from 0 in floats however large x0 is.
"""

from __future__ import annotations

import math
import warnings

from .core import Frozen, ONE, SplitQuaternion, _form, _from_ratio, _im_squared, _mul, _require_nonreal
from .errors import ExactnessWarning, NonFiniteError, NotInvertibleError
from .matrices import _dot, _family_sum, _mat, _zero, t_matrix
from .scalars import DEFAULT_EPS, _floats, _over, _ratio, scalar_is_zero
from .solvers import _UNITS, _ZEROS, SolutionFamily, Verdict, _family


class CanonicalForm(Frozen):
    """Conjugacy normal form: target = conjugator * a * conjugator^-1.

    ``exact`` is False when the square root forced an escalation from
    rationals to floats; the conjugation identity then holds to within
    the working tolerance instead of bit-exactly.
    """

    __slots__ = _fields = ("target", "conjugator", "exact")

    def __init__(self, target: SplitQuaternion, conjugator: SplitQuaternion, exact: bool):
        self._assign(target, conjugator, exact)


def solve_xa_bx(
    a: SplitQuaternion, b: SplitQuaternion, eps: float = DEFAULT_EPS
) -> SolutionFamily:
    """Full solution set of x*a = b*x for non-real a and b (core._require_nonreal), in the case that holds.

    The rank-2 family has dimension 2.  The rank-3 family is
    x(y) = y*m*a - conj(b)*y*m with m = 1 - (p2/conj(p1))*j, where
    p = p1 + p2*j is the zero divisor of the module docstring; it has
    dimension 1.  The nonsingular case gives the zero family.
    """
    _require_nonreal(a, eps, "a")
    _require_nonreal(b, eps, "b")
    n, e = _ratio(a.coeffs, b.coeffs)
    na, nb = n[:4], n[4:]
    (one, _, unit), zero = _UNITS[e.__class__], _ZEROS[e.__class__]
    # im(a) and im(b) over e; the form of an imaginary part is -im_squared
    ia, ib = (0 * na[0],) + na[1:], (0 * nb[0],) + nb[1:]
    same_re = scalar_is_zero(na[0] - nb[0], eps)
    if same_re and scalar_is_zero(_form(ia) - _form(ib), eps):
        # with equal real parts x*a = b*x is x*im(a) = im(b)*x: A, B keep a large shared real
        # part from cancelling.  With 1/d = e^2/t the terms (1, 1), (-1/d, A*A'), (B/d, A'),
        # (B'/d, A), (-B'*B/d, 1) have their left sides over t and their right ones over e^2
        ap, bp = (ia[0], -ia[1]) + ia[2:], (ib[0], -ib[1]) + ib[2:]
        e2, z = e * e, 0 * e
        t = 2 * (_dot(ia, ia) + _dot(ib, ib))
        if not t:  # a float sum of squares that underflows; exact non-real A and B give t > 0
            raise NonFiniteError("the rank-2 family is not finite on the float backend: |A|^2 + |B|^2 is 0")
        scaled = tuple(x * e for x in ib + bp + ap + ia)  # B, B', A', A over e^2
        lefts, t = _over((t, z, z, z, -e2, -z, -z, -z) + scaled[:8] + tuple(-x for x in _mul(bp, ib)), t)
        rights = (e2, z, z, z) + _mul(ia, ap) + scaled[8:] + (e2, z, z, z)
        sides = [(lefts[k : k + 4], rights[k : k + 4]) for k in range(0, 20, 4)]
        terms = lambda: ((one, one),) + tuple((_from_ratio(l, t), _from_ratio(r, e2)) for l, r in sides[1:])
        return _family(zero, terms, eps, _mat(_family_sum(sum(sum(sides, ()), ())), t * e2))
    if same_re or t_matrix(a, b).rank(eps) == 4:
        return _family(zero, (), eps, _zero(e))
    # p over e^2, and m = (S, 0, -x, -y)/S with S = |p1|^2 and
    # x + y*i = p2*p1 (p2/conj(p1) scaled by S): the denominator of p cancels in m
    c = 2 * (na[0] - nb[0])
    shift = _form(nb) - _form(na)
    p0, p1, p2, p3 = shift + c * na[0], c * na[1], c * na[2], c * na[3]
    s = p0 * p0 + p1 * p1
    # p = p1 + p2*j is a nonzero zero divisor, so |p1| = |p2| > 0; |p1|^2 has
    # degree 2 and falls under eps on small inputs, so only exact zero is refused
    if scalar_is_zero(s, 0.0):
        raise NotInvertibleError("|p1|^2 is zero; the rank-3 element m is not defined")
    m, s = _over((s, 0, p3 * p1 - p2 * p0, -(p2 * p1 + p3 * p0)), s)
    ma, minus_conj_b = _mul(m, na), (-nb[0],) + nb[1:]  # m*a over s*e, -conj(b) over e
    terms = lambda: ((one, _from_ratio(ma, s * e)), (_from_ratio(minus_conj_b, e), _from_ratio(m, s)))
    return _family(zero, terms, eps, _mat(_family_sum(unit + ma + minus_conj_b + m), s * e))


def _cyclic_basis(x: SplitQuaternion):
    """Rows of P = [v, phi(im x)*v], with v among e1, e2, e1 + e2 giving the largest |det P|.

    phi(im x) of a non-real x is not 0, so it has at most two
    eigenvector directions, and one of the three v is no eigenvector.
    phi(x) = phi(im x) + x0*I would give P*[[1, x0], [0, 1]], of the same
    det, and so the same witness for a pair with equal real parts; but in
    floats a real part that dwarfs im(x) rounds phi(x) to x0*I, and every
    det P to 0.
    """
    m00, m01, m10, m11 = x.q2, x.q3 - x.q1, x.q1 + x.q3, -x.q2
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
    n, _ = _ratio(a.coeffs, b.coeffs)
    if not (scalar_is_zero(n[0] - n[4], eps) and scalar_is_zero(_im_squared(n[1:4]) - _im_squared(n[5:]), eps)):
        return Verdict(False, None)
    return Verdict(True, _cyclic_witness(a, b))


def canonical_form(a: SplitQuaternion, eps: float = DEFAULT_EPS) -> CanonicalForm:
    """Conjugacy normal form of a non-real element (core._require_nonreal), with an explicit conjugator.

    k = im_squared(a) > 0 maps to a0 + sqrt(k)*j, k < 0 to a0 + sqrt(-k)*i,
    and k = 0 to a0 + i + j.  The conjugator is the closed-form witness
    phi^-1(P_target * P_a^-1) of the module docstring on every branch.
    When k is not a perfect rational square the computation escalates to
    floats and the result is flagged inexact: the target is built from a0
    and k, each rounded once from its exact value, so conjugates share it
    bit for bit, and the conjugator from a rounded to floats.
    """
    _require_nonreal(a, eps, "a")
    n, d = _ratio(a.coeffs)
    a0, k, z = n[0], _im_squared(n[1:]), 0 * d  # k over d^2, a square: its root is the root of k over d
    exact = d.__class__ is int
    if scalar_is_zero(k, eps):
        target = (a0, d, d, z)
    else:
        if exact and math.isqrt(abs(k)) ** 2 != abs(k):
            warnings.warn(
                "im_squared is not a perfect rational square; escalating to floats",
                ExactnessWarning,
                stacklevel=2,
            )
            # the target from a0 and k, each rounded once from its exact value: it depends on the class only
            (a0, k), d, z, exact = _floats(x / y for x, y in ((a0, d), (k, d * d))), 1.0, 0.0, False
            if not k:
                raise NonFiniteError("exact value too small for the float backend: im_squared rounds to 0")
            a = a.to_float()  # for the conjugator
        root = math.isqrt(abs(k)) if exact else math.sqrt(abs(k))
        target = (a0, z, root, z) if k > 0 else (a0, root, z, z)
    target = _from_ratio(target, d)
    return CanonicalForm(target, _cyclic_witness(a, target), exact)
