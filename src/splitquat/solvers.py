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

from .core import ONE, Frozen, SplitQuaternion, ZERO
from .errors import NotLightlikeError, ZeroCoefficientError
from .matrices import (
    Mat4,
    image_basis,
    left_matrix,
    quaternion_term_decomposition,
    right_matrix,
)
from .pinv import mp_inverse
from .scalars import DEFAULT_EPS, scalar_is_zero

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

    The linear part is a real-linear map on the algebra; its matrix,
    ``linear_matrix``, is sum_k L(left_k) R(right_k), built on first
    read and kept, and its rank is the dimension of the solution set.
    """

    __slots__ = ("constant", "terms", "linear_matrix")
    _fields = ("constant", "terms")

    def __init__(self, constant: SplitQuaternion, terms: Tuple[Term, ...]):
        self._assign(constant, terms)

    def at(self, y: SplitQuaternion) -> SplitQuaternion:
        x = self.constant
        for left, right in self.terms:
            x = x + left * y * right
        return x

    __call__ = at

    def __getattr__(self, name):
        # reached only while the linear_matrix slot is empty
        if name != "linear_matrix":
            raise AttributeError(f"{self.__class__.__name__!r} object has no attribute {name!r}")
        m = Mat4.zero()
        for left, right in self.terms:
            m = m + left_matrix(left) @ right_matrix(right)
        object.__setattr__(self, "linear_matrix", m)
        return m

    def __reduce__(self):
        # the matrix travels along, so a from_matrix family keeps its own
        return (SolutionFamily, (self.constant, self.terms), self.linear_matrix)

    def __setstate__(self, matrix: Mat4):
        object.__setattr__(self, "linear_matrix", matrix)

    @property
    def dimension(self) -> int:
        return len(self.basis())

    def basis(self, eps: float = DEFAULT_EPS) -> List[SplitQuaternion]:
        """A basis of the linear part's image: the directions of the solution set."""
        return image_basis(self.linear_matrix, eps)

    @classmethod
    def from_matrix(cls, constant: SplitQuaternion, matrix: Mat4) -> "SolutionFamily":
        """Build a family whose linear part is a given vec-matrix.

        The matrix itself becomes ``linear_matrix``; it is never rebuilt
        from the decomposed terms.
        """
        family = cls(constant, quaternion_term_decomposition(matrix))
        object.__setattr__(family, "linear_matrix", matrix)
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
    if not scalar_is_zero(q.quadratic_form, eps):
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
    family = SolutionFamily(pa * d * pb, ((ONE, ONE), (-(pa * a), b * pb)))
    return SolveOutcome.solved(family)


def solve_ax0(a: SplitQuaternion, eps: float = DEFAULT_EPS) -> SolutionFamily:
    """Right kernel of a nonzero lightlike a: x(y) = (1 - a+*a)*y, dimension 2."""
    _require_lightlike("a", a, eps)
    pa = mp_inverse(a, eps)
    return SolutionFamily(ZERO, ((ONE - pa * a, ONE),))


def solve_axd(a: SplitQuaternion, d: SplitQuaternion, eps: float = DEFAULT_EPS) -> SolveOutcome:
    """a*x = d for nonzero lightlike a; solvable iff a*a+ fixes d."""
    _require_lightlike("a", a, eps)
    pa = mp_inverse(a, eps)
    projected = a * pa * d
    if not projected.isclose(d, eps):
        return SolveOutcome.unsolvable(projected - d)
    return SolveOutcome.solved(SolutionFamily(pa * d, ((ONE - pa * a, ONE),)))


def solve_xad(a: SplitQuaternion, d: SplitQuaternion, eps: float = DEFAULT_EPS) -> SolveOutcome:
    """x*a = d for nonzero lightlike a; mirror image of solve_axd."""
    _require_lightlike("a", a, eps)
    pa = mp_inverse(a, eps)
    projected = d * pa * a
    if not projected.isclose(d, eps):
        return SolveOutcome.unsolvable(projected - d)
    return SolveOutcome.solved(SolutionFamily(d * pa, ((ONE, ONE - a * pa),)))
