"""4x4 real matrix tools for the regular representations.

``left_matrix(q)`` and ``right_matrix(q)`` are the matrices of ``x -> q*x``
and ``x -> x*q`` acting on coefficient columns.  ``t_matrix`` and
``s_matrix`` are the operator matrices whose kernels carry the solutions
of ``x*a = b*x`` and ``x*a = b*conj(x)``.

An exact :class:`Mat4` holds sixteen ``int`` numerators over one
positive ``int`` denominator, reduced by their ``gcd``; ``rows`` builds
the Fractions on first read.  A float matrix holds sixteen floats.
Rank, determinant, nullspace, column basis and Moore-Penrose inverse
come from the elimination kernel of the matrix's backend (see
:mod:`.elimination`): fraction-free on the numerators, or with partial
pivoting and the tolerance ``eps`` on floats.  Elimination is the
source of truth for every rank decision taken elsewhere in the library;
the closed-form spectra and determinants of ``t_matrix`` and
``s_matrix`` are test oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, neg, sub
from typing import Iterable, List, Optional, Sequence, Tuple

from . import elimination
from .core import SplitQuaternion
from .scalars import (
    DEFAULT_EPS,
    Scalar,
    as_scalar,
    format_scalar,
    scalars_close,
)

Vec4 = Tuple[Scalar, Scalar, Scalar, Scalar]


def vec(q: SplitQuaternion) -> Vec4:
    """Coefficient column of a quaternion."""
    return q.coeffs


def unvec(v: Sequence[Scalar]) -> SplitQuaternion:
    return SplitQuaternion(*v)


class Mat4:
    """Immutable 4x4 matrix over the scalar backends, row-major."""

    # _e: the sixteen entries, row-major: int numerators, or floats
    # _d: the positive int denominator, or None on the float backend
    # _rows: the entries as Fractions or floats, built on first read
    __slots__ = ("_e", "_d", "_rows")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        rows = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("Mat4 requires 4 rows of 4 entries")
        flat = [x for row in rows for x in row]
        if any(isinstance(x, float) for x in flat):
            self._e, self._d = tuple(map(float, flat)), None
        else:
            self._e, self._d = _ratio(flat)
        self._rows = None

    @classmethod
    def identity(cls) -> "Mat4":
        return _mat(tuple(int(i == j) for i in range(4) for j in range(4)), 1)

    @classmethod
    def zero(cls) -> "Mat4":
        return _mat((0,) * 16, 1)

    @classmethod
    def diagonal(cls, entries: Sequence) -> "Mat4":
        return cls(tuple(tuple(entries[i] if i == j else 0 for j in range(4)) for i in range(4)))

    @property
    def rows(self) -> Tuple[Tuple[Scalar, ...], ...]:
        if self._rows is None:
            d = self._d
            flat = self._e if d is None else [Fraction(x, d) for x in self._e]
            self._rows = tuple(tuple(flat[i : i + 4]) for i in (0, 4, 8, 12))
        return self._rows

    @property
    def is_exact(self) -> bool:
        return self._d is not None

    def _floats(self) -> Tuple[float, ...]:
        """The entries as floats; n/d rounds as float(Fraction(n, d)) does."""
        d = self._d
        return self._e if d is None else tuple(x / d for x in self._e)

    def _lists(self) -> List[list]:
        """The entries (numerators on the exact backend) as fresh row lists."""
        e = self._e
        return [list(e[i : i + 4]) for i in (0, 4, 8, 12)]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._d is None or other._d is None:
            return self.rows == other.rows
        return self._d == other._d and self._e == other._e

    def __hash__(self):
        return hash((self.rows,))

    def __reduce__(self):
        return (Mat4, (self.rows,))

    def __repr__(self) -> str:
        return f"Mat4(rows={self.rows!r})"

    def _entrywise(self, other: "Mat4", op) -> "Mat4":
        d, e = self._d, other._d
        if d is None or e is None:
            return _mat(tuple(map(op, self._floats(), other._floats())), None)
        if d == e:
            return _mat(tuple(map(op, self._e, other._e)), d)
        return _mat(tuple(op(x * e, y * d) for x, y in zip(self._e, other._e)), d * e)

    def __add__(self, other: "Mat4") -> "Mat4":
        return self._entrywise(other, add)

    def __sub__(self, other: "Mat4") -> "Mat4":
        return self._entrywise(other, sub)

    def __neg__(self) -> "Mat4":
        return _mat(tuple(map(neg, self._e)), self._d)

    def __matmul__(self, other: "Mat4") -> "Mat4":
        if self._d is None or other._d is None:
            return _mat(_product(self._floats(), other._floats()), None)
        return _mat(_product(self._e, other._e), self._d * other._d)

    def __truediv__(self, s) -> "Mat4":
        s = as_scalar(s)
        return Mat4(tuple(tuple(a / s for a in row) for row in self.rows))

    def apply(self, v: Sequence[Scalar]) -> Vec4:
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.rows)

    def transpose(self) -> "Mat4":
        e = self._e
        return _mat(tuple(e[i + j] for j in range(4) for i in (0, 4, 8, 12)), self._d)

    def isclose(self, other: "Mat4", eps: float = DEFAULT_EPS) -> bool:
        if self._d is not None and other._d is not None:
            return self == other
        return all(scalars_close(a, b, eps) for a, b in zip(self._floats(), other._floats()))

    def is_symmetric(self, eps: float = DEFAULT_EPS) -> bool:
        return self.isclose(self.transpose(), eps)

    def rank(self, eps: float = DEFAULT_EPS) -> int:
        return len(_pivots(self, eps))

    def det(self, eps: float = DEFAULT_EPS) -> Scalar:
        if self._d is None:
            return elimination.det(self._lists(), eps)
        pivots, last, sign = elimination.eliminate(self._lists())
        return Fraction(sign * last if len(pivots) == 4 else 0, self._d**4)

    def __str__(self) -> str:
        widths = [max(len(format_scalar(self.rows[r][c])) for r in range(4)) for c in range(4)]
        return "\n".join(
            "[ " + "  ".join(format_scalar(x).rjust(w) for x, w in zip(row, widths)) + " ]"
            for row in self.rows
        )


def _ratio(values: Iterable[Fraction]) -> Tuple[Tuple[int, ...], int]:
    """Exact scalars as int numerators over their least common denominator.

    That is already reduced: a prime dividing the denominator does not
    divide the numerator of the value whose denominator it divides most.
    """
    values = tuple(values)
    d = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (d // x.denominator) for x in values), d


def _mat(e: Tuple, d: Optional[int]) -> Mat4:
    """Matrix of entries e over the int d != 0, reduced here, or of floats when d is None."""
    if d is not None:
        g = -gcd(d, *e) if d < 0 else gcd(d, *e)
        if g != 1:
            e, d = tuple(x // g for x in e), d // g
    m = object.__new__(Mat4)
    m._e, m._d, m._rows = e, d, None
    return m


def _dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def _product(a: Sequence, b: Sequence) -> tuple:
    """Row-major product of two flat 4x4 matrices, one dot product per entry."""
    cols = (b[0::4], b[1::4], b[2::4], b[3::4])
    return tuple(_dot(a[i : i + 4], col) for i in (0, 4, 8, 12) for col in cols)


def _matmul(a: List[list], b: List[list]) -> List[list]:
    return [[_dot(row, col) for col in zip(*b)] for row in a]


def _transpose(a: List[list]) -> List[list]:
    return [list(col) for col in zip(*a)]


def _pivots(m: Mat4, eps: float) -> List[int]:
    if m._d is None:
        return elimination.rref(m._lists(), eps)[1]
    return elimination.eliminate(m._lists())[0]


# ----------------------------------------------------------------------
# representations
# ----------------------------------------------------------------------


def _coeffs(q: SplitQuaternion):
    """A quaternion's coefficients as the entries of a matrix: (numerators, d) or (floats, None)."""
    return _ratio(q.coeffs) if q.is_exact else (q.coeffs, None)


def left_matrix(q: SplitQuaternion) -> Mat4:
    """Matrix of x -> q*x on coefficient columns."""
    (q0, q1, q2, q3), d = _coeffs(q)
    return _mat((q0, -q1, q2, q3, q1, q0, q3, -q2, q2, q3, q0, -q1, q3, -q2, q1, q0), d)


def right_matrix(q: SplitQuaternion) -> Mat4:
    """Matrix of x -> x*q on coefficient columns."""
    (q0, q1, q2, q3), d = _coeffs(q)
    return _mat((q0, -q1, q2, q3, q1, q0, -q3, q2, q2, -q3, q0, q1, q3, q2, -q1, q0), d)


#: Conjugation sign matrix: vec(conj(x)) = F_MATRIX . vec(x).
F_MATRIX = Mat4.diagonal((1, -1, -1, -1))


def t_matrix(a: SplitQuaternion, b: SplitQuaternion) -> Mat4:
    """Matrix whose kernel is the solution space of x*a = b*x."""
    return right_matrix(a) - left_matrix(b)


def s_matrix(a: SplitQuaternion, b: SplitQuaternion) -> Mat4:
    """Matrix whose kernel is the solution space of x*a = b*conj(x)."""
    return right_matrix(a) - left_matrix(b) @ F_MATRIX


# ----------------------------------------------------------------------
# Moore-Penrose inverse and nullspaces
# ----------------------------------------------------------------------


def mat_mp_inverse(m: Mat4, eps: float = DEFAULT_EPS) -> Mat4:
    """Moore-Penrose inverse by full-rank factorization m = B C.

    B is the pivot columns of m and C the nonzero rows of its reduced
    echelon form, so the inverse is C^T (C C^T)^-1 (B^T B)^-1 B^T.  That
    equals E^T (B^T m E^T)^-1 B^T for any E whose rows span the row
    space of m, so the exact backend takes the integer echelon rows as E
    and needs one fraction-free r x r inverse.  The zero matrix maps to
    itself.
    """
    a = m._lists()
    reduced = m._lists()
    if m._d is None:
        _, pivots = elimination.rref(reduced, eps)
    else:
        pivots, _, _ = elimination.eliminate(reduced)
    r = len(pivots)
    if r == 0:
        return Mat4.zero()
    c_block = reduced[:r]
    bt = [[row[p] for row in a] for p in pivots]
    ct = _transpose(c_block)
    if m._d is None:
        cct_inv = elimination.inverse(_matmul(c_block, ct))
        btb_inv = elimination.inverse(_matmul(bt, _transpose(bt)))
        x = _matmul(_matmul(ct, cct_inv), _matmul(btb_inv, bt))
        return _mat(tuple(v for row in x for v in row), None)
    gram = _matmul(bt, _matmul(a, ct))
    augmented = [row + [int(i == j) for j in range(r)] for i, row in enumerate(gram)]
    _, det, _ = elimination.eliminate(augmented)  # leaves det * gram^-1 on the right
    x = _matmul(_matmul(ct, [row[r:] for row in augmented]), bt)
    return _mat(tuple(v * m._d for row in x for v in row), det)


def nullspace_basis(m: Mat4, eps: float = DEFAULT_EPS) -> List[Vec4]:
    """Exact kernel basis; one vector per free column, dimension 4 - rank."""
    reduced = m._lists()
    if m._d is None:
        _, pivots = elimination.rref(reduced, eps)
        zero, one, scale = 0.0, 1.0, None
    else:
        pivots, scale, _ = elimination.eliminate(reduced)
        zero, one = Fraction(0), Fraction(1)
    basis = []
    for f in range(4):
        if f in pivots:
            continue
        v = [zero] * 4
        v[f] = one
        for row_idx, p in enumerate(pivots):
            x = -reduced[row_idx][f]
            v[p] = x if scale is None else Fraction(x, scale)
        basis.append(tuple(v))
    return basis


def image_basis(m: Mat4, eps: float = DEFAULT_EPS) -> List[SplitQuaternion]:
    """The pivot columns of m, as quaternions: a basis of its image."""
    cols = list(zip(*m.rows))
    return [unvec(cols[p]) for p in _pivots(m, eps)]


def linear_system_consistent(m: Mat4, rhs: Sequence[Scalar], eps: float = DEFAULT_EPS) -> bool:
    """Whether m . x = rhs has a solution: the rhs column is not a pivot.

    Pivot choice in the columns of m never reads the rhs column, so one
    elimination of the augmented matrix decides it.  Scaling a column or
    the whole matrix moves no pivot, so the exact kernel takes the
    numerators of m and of rhs.
    """
    rhs = [as_scalar(v) for v in rhs]
    if m._d is None or any(isinstance(v, float) for v in rhs):
        _, pivots = elimination.rref([list(row) + [v] for row, v in zip(m.rows, rhs)], eps)
    else:
        nums, _ = _ratio(rhs)
        pivots, _, _ = elimination.eliminate([row + [v] for row, v in zip(m._lists(), nums)])
    return 4 not in pivots
