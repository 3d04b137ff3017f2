"""Linear equations with zero-divisor coefficients.

The equations a*x*b = d, a*x = d and x*a = d with nonzero lightlike
coefficients are decided through the Moore-Penrose projectors: a*x*b = d
is solvable exactly when a*a+*d*b+*b = d, and then the full solution set
is the affine family

    x(y) = a+*d*b+  +  y - (a+*a)*y*(b*b+)        over all y.

Invertible coefficients are rejected on purpose: those equations are
solved by plain division and mixing the two regimes in one return type
would hide the structure.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .core import ONE, Frozen, SplitQuaternion, ZERO, _from_ratio
from .errors import NotLightlikeError, ZeroCoefficientError
from .matrices import family_matrix, image_basis
from .pinv import mp_inverse
from .scalars import DEFAULT_EPS, _common, _ratio

Term = Tuple[SplitQuaternion, SplitQuaternion]


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
    once here; ``at`` applies it to vec(y), and its image is the set of
    directions, so ``basis()`` eliminates it and ``dimension`` counts
    that basis.  A family records the ``eps`` its solver ran at, and
    ``dimension`` and a bare ``basis()`` read it.  The basis at that
    ``eps`` is found once and kept (an exact matrix ignores ``eps``); a
    float one is eliminated again at each other ``basis(eps)``.  A
    solver that already holds the matrix and its basis hands them over
    (see ``_family``), so reading the family eliminates nothing.
    """

    __slots__ = ("constant", "terms", "linear_matrix", "_basis", "_eps")
    _fields = ("constant", "terms")

    def __init__(self, constant: SplitQuaternion, terms: Tuple[Term, ...]):
        _fill(self, constant, terms, DEFAULT_EPS, family_matrix(terms), None)

    def __reduce__(self):
        return (_family, (self.constant, self.terms, self._eps))

    def at(self, y: SplitQuaternion) -> SplitQuaternion:
        if not self.terms:
            return self.constant
        # constant + m . vec(y) on numerators, over one denominator
        (nums, d), (nc, dc) = _common(
            self.linear_matrix._apply_ratio(y.coeffs), _ratio(self.constant.coeffs)
        )
        return _from_ratio(tuple(x * dc + k * d for x, k in zip(nums, nc)), d * dc)

    __call__ = at

    @property
    def dimension(self) -> int:
        return len(self.basis())

    def basis(self, eps: Optional[float] = None) -> List[SplitQuaternion]:
        """A basis of the linear part's image: the directions of the solution set."""
        m = self.linear_matrix
        if eps is not None and eps != self._eps and not m.is_exact:
            return image_basis(m, eps)
        if self._basis is None:
            object.__setattr__(self, "_basis", tuple(image_basis(m, self._eps)))
        return list(self._basis)


def _fill(family: SolutionFamily, constant, terms, eps: float, matrix, basis) -> None:
    for name, value in zip(SolutionFamily.__slots__, (constant, terms, matrix, basis, eps)):
        object.__setattr__(family, name, value)


def _family(constant, terms, eps: float, matrix=None, basis=None) -> SolutionFamily:
    """SolutionFamily(constant, terms) solved at eps; a linear matrix or basis given is kept."""
    family = object.__new__(SolutionFamily)
    _fill(family, constant, terms, eps, family_matrix(terms) if matrix is None else matrix, basis)
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


def _require_lightlike(name: str, q: SplitQuaternion, eps: float) -> None:
    if q.is_zero(eps):
        raise ZeroCoefficientError(f"coefficient {name} must be nonzero")
    if not q.is_lightlike(eps):
        raise NotLightlikeError(
            f"coefficient {name} is invertible; solve by direct division instead"
        )


def solve_axb(
    a: SplitQuaternion, b: SplitQuaternion, d: SplitQuaternion, eps: float = DEFAULT_EPS
) -> SolveOutcome:
    """General solution of a*x*b = d for nonzero lightlike a and b."""
    _require_lightlike("a", a, eps)
    _require_lightlike("b", b, eps)
    pa = mp_inverse(a, eps)
    pb = mp_inverse(b, eps)
    projected = a * pa * d * pb * b
    if not projected.isclose(d, eps):
        return SolveOutcome.unsolvable(projected - d)
    family = _family(pa * d * pb, ((ONE, ONE), (-(pa * a), b * pb)), eps)
    return SolveOutcome.solved(family)


def solve_ax0(a: SplitQuaternion, eps: float = DEFAULT_EPS) -> SolutionFamily:
    """Right kernel of a nonzero lightlike a: x(y) = (1 - a+*a)*y, dimension 2."""
    _require_lightlike("a", a, eps)
    pa = mp_inverse(a, eps)
    return _family(ZERO, ((ONE - pa * a, ONE),), eps)


def solve_axd(a: SplitQuaternion, d: SplitQuaternion, eps: float = DEFAULT_EPS) -> SolveOutcome:
    """a*x = d for nonzero lightlike a; solvable iff a*a+ fixes d."""
    _require_lightlike("a", a, eps)
    pa = mp_inverse(a, eps)
    projected = a * pa * d
    if not projected.isclose(d, eps):
        return SolveOutcome.unsolvable(projected - d)
    return SolveOutcome.solved(_family(pa * d, ((ONE - pa * a, ONE),), eps))


def solve_xad(a: SplitQuaternion, d: SplitQuaternion, eps: float = DEFAULT_EPS) -> SolveOutcome:
    """x*a = d for nonzero lightlike a; mirror image of solve_axd."""
    _require_lightlike("a", a, eps)
    pa = mp_inverse(a, eps)
    projected = d * pa * a
    if not projected.isclose(d, eps):
        return SolveOutcome.unsolvable(projected - d)
    return SolveOutcome.solved(_family(d * pa, ((ONE, ONE - a * pa),), eps))
