"""Linear equations with zero-divisor coefficients.

The equations a*x*b = d, a*x = d and x*a = d with nonzero lightlike
coefficients are decided through the Moore-Penrose projectors: a*x*b = d
is solvable exactly when a*a+*d*b+*b = d, and then the full solution set
is the affine family

    x(y) = a+*d*b+  +  y - (a+*a)*y*(b*b+)        over all y.

Each solver takes one _ratio of its operands, numerators n over e, and
a+ is e*prime(n)/(4*(n0^2 + n1^2)) by core._lightlike_inverse, the one
body of a+.  The tests, the chain and every result are computed on
numerators, each result built once, and the family gets the matrix of
its terms from those numerators, its constant as numerators, built on
each read, and its terms as a recipe, built when first read.  Floats
are their own numerators over 1.0, multiplied in the order of the float
products they replaced, so they keep their bits.  solve_ax0 is the case d = 0 of solve_axd.

core._zero_divisor refuses a zero or invertible coefficient on those
numerators.  Invertible ones are refused on purpose: plain division solves
them, and one return type for both regimes would hide the structure.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .core import I, J, K, ONE, Frozen, SplitQuaternion, ZERO, _from_ratio, _lightlike_inverse, _mul, _zero_divisor
from .matrices import _dot, _family_sum, _mat, _zero, family_matrix, image_basis
from .scalars import DEFAULT_EPS, _all_zero, _common, _ratio

Term = Tuple[SplitQuaternion, SplitQuaternion]

#: 1, the units (1, i, j, k) and the numerators of 1 on each backend, by the class of a denominator
_UNITS = {
    int: (ONE, (ONE, I, J, K), (1, 0, 0, 0)),
    float: (ONE.to_float(), (ONE.to_float(), I.to_float(), J.to_float(), K.to_float()), (1.0, 0.0, 0.0, 0.0)),
}
#: The numerators of 0 over their denominator on each backend, by the class of a denominator
_ZEROS = {int: ((0, 0, 0, 0), 1), float: ((0.0, 0.0, 0.0, 0.0), 1.0)}


class Verdict(Frozen):
    """Boolean answer plus, when true, an invertible witness (is_similar, is_consimilar)."""

    __slots__ = _fields = ("verdict", "witness")

    def __init__(self, verdict: bool, witness: Optional[SplitQuaternion]):
        self._assign(verdict, witness)

    def __bool__(self) -> bool:
        return self.verdict


class SolutionFamily(Frozen):
    """Affine solution set y -> constant + sum_k left_k * y * right_k.

    ``terms`` are the closed form, as printed.  The linear part is one
    4x4 matrix, ``linear_matrix`` = sum_k L(left_k) R(right_k), built
    once here; ``at`` applies it to y.coeffs, and its image is the set
    of directions, so ``basis()`` eliminates it and ``dimension`` counts
    that basis.  A family records the ``eps`` its solver ran at, and
    ``basis()`` eliminates at it, once, and keeps the result (an exact
    matrix ignores ``eps``), so ``dimension == len(basis())``.  Every
    solver hands over the matrix it built from the numerators of its
    terms, and solve_xa_bxbar its basis too (see ``_family``); copies
    keep both.  A solver hands over the constant's numerators, which ``at``
    reads and ``constant`` builds on each read, and a recipe for the terms,
    which are built on their first read (printing, ``==``, ``hash``,
    ``repr``, pickling) and kept.
    """

    __slots__ = ("_constant_ratio", "_terms", "_eps", "linear_matrix", "_basis")
    _fields = ("constant", "terms")

    def __init__(self, constant: SplitQuaternion, terms: Tuple[Term, ...]):
        ratio = _ratio(constant.coeffs)
        matrix = family_matrix(terms) if terms else _zero(ratio[1])  # the zero of the constant's backend
        _fill(self, ratio, terms, DEFAULT_EPS, matrix, None)

    def __reduce__(self):
        return (_family, (self._constant_ratio, self.terms, self._eps, self.linear_matrix, self._basis))

    @property
    def constant(self) -> SplitQuaternion:
        return _from_ratio(*self._constant_ratio)

    @property
    def terms(self) -> Tuple[Term, ...]:
        terms = self._terms  # read once: another thread may build it meanwhile, to an equal value
        if callable(terms):
            terms = terms()
            object.__setattr__(self, "_terms", terms)
        return terms

    def at(self, y) -> SplitQuaternion:
        """The solution at y: a SplitQuaternion, or an int, Fraction or float as a real one, as * takes it."""
        if not isinstance(y, SplitQuaternion):
            y = SplitQuaternion(y, 0, 0, 0)  # TypeError unless y is a real scalar
        # constant + m . y.coeffs on numerators, over one denominator
        m = self.linear_matrix
        (e, d), (ny, dy) = _common((m._e, m._d), _ratio(y.coeffs))
        column = tuple(_dot(e[i : i + 4], ny) for i in (0, 4, 8, 12))
        (nums, d), (nc, dc) = _common((column, d * dy), self._constant_ratio)
        return _from_ratio(tuple(x * dc + k * d for x, k in zip(nums, nc)), d * dc)

    __call__ = at

    @property
    def dimension(self) -> int:
        return len(self.basis())

    def basis(self) -> List[SplitQuaternion]:
        """A basis of the linear part's image at the family's eps: the directions of the solution set."""
        if self._basis is None:
            object.__setattr__(self, "_basis", tuple(image_basis(self.linear_matrix, self._eps)))
        return list(self._basis)


def _fill(family: SolutionFamily, *values) -> None:
    for name, value in zip(SolutionFamily.__slots__, values):
        object.__setattr__(family, name, value)


def _family(ratio, terms, eps: float, matrix, basis=None) -> SolutionFamily:
    """The family a solver found at eps, with the matrix of its terms and any basis found.

    ratio is the constant's numerators over their denominator, and terms the terms or a recipe that
    builds them on first read.
    """
    family = object.__new__(SolutionFamily)
    _fill(family, ratio, terms, eps, matrix, basis)
    return family


class SolveOutcome(Frozen):
    """Either a SolutionFamily or an unsolvability certificate.

    The certificate is the residual (projected d) - d, which is nonzero
    exactly when the equation has no solution.
    """

    __slots__ = _fields = ("family", "certificate")

    def __init__(self, family: Optional[SolutionFamily], certificate: Optional[SplitQuaternion]):
        self._assign(family, certificate)

    @property
    def solvable(self) -> bool:
        return self.family is not None

    def __bool__(self) -> bool:
        return self.solvable

    @classmethod
    def solved(cls, family: SolutionFamily) -> "SolveOutcome":
        return cls(family, None)

    @classmethod
    def unsolvable(cls, certificate: SplitQuaternion) -> "SolveOutcome":
        return cls(None, certificate)


def solve_axb(
    a: SplitQuaternion, b: SplitQuaternion, d: SplitQuaternion, eps: float = DEFAULT_EPS
) -> SolveOutcome:
    """General solution of a*x*b = d for nonzero lightlike a and b."""
    n, e = _ratio(a.coeffs, b.coeffs, d.coeffs)
    na, nb, nd = n[:4], n[4:8], n[8:]
    pa, sa = _lightlike_inverse(_zero_divisor(na, eps, "coefficient a"))
    pb, sb = _lightlike_inverse(_zero_divisor(nb, eps, "coefficient b"))
    s = sa * sb
    residual = tuple(x - y * s for x, y in zip(_mul(na, pa, nd, pb, nb), nd))  # over e*s
    if not _all_zero(residual, eps):
        return SolveOutcome.unsolvable(_from_ratio(residual, e * s))
    one, _, unit = _UNITS[e.__class__]
    left = tuple(-x for x in _mul(pa, na))  # -a+*a over sa
    right = _mul(nb, pb)  # b*b+ over sb
    matrix = _mat(_family_sum(tuple(x * y for y in (sa, sb) for x in unit) + left + right), s)
    constant = tuple(x * e for x in _mul(pa, nd, pb)), s  # a+*d*b+
    terms = lambda: ((one, one), (_from_ratio(left, sa), _from_ratio(right, sb)))
    return SolveOutcome.solved(_family(constant, terms, eps, matrix))


def solve_ax0(a: SplitQuaternion, eps: float = DEFAULT_EPS) -> SolutionFamily:
    """Right kernel of a nonzero lightlike a: x(y) = (1 - a+*a)*y, dimension 2; solve_axd(a, 0).family."""
    return _solve_one_sided(a, ZERO, eps, lambda x: x).family


def solve_axd(a: SplitQuaternion, d: SplitQuaternion, eps: float = DEFAULT_EPS) -> SolveOutcome:
    """a*x = d for nonzero lightlike a; solvable iff a*a+ fixes d."""
    return _solve_one_sided(a, d, eps, lambda x: x)


def solve_xad(a: SplitQuaternion, d: SplitQuaternion, eps: float = DEFAULT_EPS) -> SolveOutcome:
    """x*a = d for nonzero lightlike a; mirror image of solve_axd."""
    return _solve_one_sided(a, d, eps, lambda x: x[::-1])


def _solve_one_sided(a, d, eps: float, order) -> SolveOutcome:
    """a*x = d, each product's factors and each term's sides in the given order; reversed,
    x*a = d, which is a*x = d in the opposite algebra (product q*p)."""
    n, e = _ratio(a.coeffs, d.coeffs)
    na, nd = n[:4], n[4:]
    pa, sa = _lightlike_inverse(_zero_divisor(na, eps, "coefficient a"))
    residual = tuple(x - y * sa for x, y in zip(_mul(*order((na, pa, nd))), nd))  # over e*sa
    if not _all_zero(residual, eps):
        return SolveOutcome.unsolvable(_from_ratio(residual, e * sa))
    one, _, unit = _UNITS[e.__class__]
    k = tuple(u * sa - x for u, x in zip(unit, _mul(*order((pa, na)))))  # 1 - a+*a over sa
    constant = tuple(x + 0 * sa for x in _mul(*order((pa, nd)))), sa  # a+*d, a float -0.0 made 0.0
    matrix = _mat(_family_sum(sum(order((k, unit)), ())), sa)
    terms = lambda: (order((_from_ratio(k, sa), one)),)
    return SolveOutcome.solved(_family(constant, terms, eps, matrix))
