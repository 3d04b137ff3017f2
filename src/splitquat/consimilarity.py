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
pair.  The predicate runs on the numerators of a and b over their
common denominator (ints on the exact backend, the floats themselves
on the float one): w, Ia = Ib and I(w) on the numerators, and one
result built for a witness that is returned.  The three fallback
candidates are compared by the forms of a's own numerators, which
scale every form by the same d^2 > 0 and so keep the argmax and its
tie order, and only the winner is built.  The solution space is
read off one elimination of s_matrix(a, b), whose kernel basis the
family keeps; its printed terms are built on their first read, as
products of units and kernel vectors (core._mul).
"""

from __future__ import annotations

from .core import SplitQuaternion, _form, _from_ratio, _mul, _require_nonreal
from .matrices import _kernel, _mat, _zero, s_matrix
from .scalars import DEFAULT_EPS, _all_zero, _ratio, scalar_is_zero
from .solvers import _UNITS, _ZEROS, SolutionFamily, Verdict, _family


#: The inverses of the units 1, i, j, k: 1, -i, j, k.
_INVERSE_UNITS = ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


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

    S is eliminated once.  Since re(y e_t^-1) = y_t the linear matrix
    has the columns n_t: the family keeps it, and the n_t as its basis.
    The r_e are summed on the kernel's numerators when the family's
    terms are first read; a float sum that is zero is +0.0.
    """
    kernel, d = _kernel(s_matrix(a, b), eps)
    zero = _ZEROS[d.__class__]
    if not kernel:
        return _family(zero, (), eps, _zero(d), ())

    def terms():
        out = []
        for e, unit in enumerate(_UNITS[d.__class__][1]):
            products = (_mul(_INVERSE_UNITS[t], _INVERSE_UNITS[e], tuple(n)) for t, n in enumerate(kernel))
            right = tuple(map(sum, zip(*products)))  # 4 * r_e over d
            if not _all_zero(right, 0.0):
                out.append((unit, _from_ratio(right, 4 * d)))
        return tuple(out)

    columns = kernel + [[0 * d] * 4] * (4 - len(kernel))
    matrix = _mat(tuple(c[i] for i in range(4) for c in columns), d)
    return _family(zero, terms, eps, matrix, tuple(_from_ratio(n, d) for n in kernel))


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
    _require_nonreal(a, eps, "a")
    _require_nonreal(b, eps, "b")
    n, d = _ratio(a.coeffs, b.coeffs)
    na, nb = n[:4], n[4:]
    w = (na[0] + nb[0], nb[1] - na[1], nb[2] - na[2], nb[3] - na[3])  # conj(a) + b over d
    if not _all_zero(w, eps):
        if scalar_is_zero(_form(na) - _form(nb), eps) and not scalar_is_zero(_form(w), eps):
            return Verdict(True, _from_ratio(w, d))
        return Verdict(False, None)
    # the candidates on a's own numerators, so that an exact a keeps an exact witness
    (a0, a1, a2, a3), d = _ratio(a.coeffs)
    z = 0 * d
    candidates = ((z, a3, z, a1), (z, a2, a1, z), (a1, a0, z, z))
    return Verdict(True, _from_ratio(max(candidates, key=lambda x: abs(_form(x))), d))
