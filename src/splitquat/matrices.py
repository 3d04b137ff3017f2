"""4x4 real matrix tools for the regular representations.

``left_matrix(q)`` and ``right_matrix(q)`` are the matrices of ``x -> q*x``
and ``x -> x*q`` acting on coefficient columns.  ``t_matrix`` and
``s_matrix`` are the operator matrices whose kernels carry the solutions
of ``x*a = b*x`` and ``x*a = b*conj(x)``.

Rank, determinant, nullspaces, and the Moore-Penrose inverse (by
full-rank factorization) are computed by Gaussian elimination, exactly
over rationals; elimination is the source of truth for every rank
decision taken elsewhere in the library.  The closed-form spectra and
determinants of ``t_matrix`` and ``s_matrix`` live in the test suite,
as oracles checked against elimination.

The sixteen products ``L(e_i) R(e_j)`` of the basis units are signed
permutation matrices, pairwise orthogonal with squared Frobenius norm
4, so splitting a matrix into two-sided terms is one inner product per
term.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple

from .core import I, J, K, ONE, SplitQuaternion
from .scalars import (
    DEFAULT_EPS,
    Scalar,
    as_scalar,
    format_scalar,
    scalar_is_zero,
    scalars_close,
)

Vec4 = Tuple[Scalar, Scalar, Scalar, Scalar]


def vec(q: SplitQuaternion) -> Vec4:
    """Coefficient column of a quaternion."""
    return q.coeffs


def unvec(v: Sequence[Scalar]) -> SplitQuaternion:
    return SplitQuaternion(*v)


@dataclass(frozen=True)
class Mat4:
    """Immutable 4x4 matrix over the scalar backends, row-major."""

    rows: Tuple[Tuple[Scalar, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(as_scalar(x) for x in row) for row in self.rows)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("Mat4 requires 4 rows of 4 entries")
        if any(isinstance(x, float) for row in rows for x in row):
            rows = tuple(tuple(float(x) for x in row) for row in rows)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls) -> "Mat4":
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)))

    @classmethod
    def zero(cls) -> "Mat4":
        return cls(tuple(tuple(Fraction(0) for _ in range(4)) for _ in range(4)))

    @classmethod
    def diagonal(cls, entries: Sequence) -> "Mat4":
        return cls(tuple(tuple(entries[i] if i == j else 0 for j in range(4)) for i in range(4)))

    @property
    def is_exact(self) -> bool:
        return not isinstance(self.rows[0][0], float)

    def __add__(self, other: "Mat4") -> "Mat4":
        return Mat4(tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "Mat4") -> "Mat4":
        return Mat4(tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self) -> "Mat4":
        return Mat4(tuple(tuple(-a for a in row) for row in self.rows))

    def __matmul__(self, other: "Mat4") -> "Mat4":
        cols = list(zip(*other.rows))
        return Mat4(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.rows)
        )

    def __truediv__(self, s) -> "Mat4":
        s = as_scalar(s)
        return Mat4(tuple(tuple(a / s for a in row) for row in self.rows))

    def apply(self, v: Sequence[Scalar]) -> Vec4:
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.rows)

    def transpose(self) -> "Mat4":
        return Mat4(tuple(zip(*self.rows)))

    def isclose(self, other: "Mat4", eps: float = DEFAULT_EPS) -> bool:
        return all(
            scalars_close(a, b, eps)
            for ra, rb in zip(self.rows, other.rows)
            for a, b in zip(ra, rb)
        )

    def is_symmetric(self, eps: float = DEFAULT_EPS) -> bool:
        return self.isclose(self.transpose(), eps)

    def rank(self, eps: float = DEFAULT_EPS) -> int:
        _, pivots = _rref([list(r) for r in self.rows], eps)
        return len(pivots)

    def det(self, eps: float = DEFAULT_EPS) -> Scalar:
        return _det([list(r) for r in self.rows], eps)

    def __str__(self) -> str:
        widths = [max(len(format_scalar(self.rows[r][c])) for r in range(4)) for c in range(4)]
        return "\n".join(
            "[ " + "  ".join(format_scalar(x).rjust(w) for x, w in zip(row, widths)) + " ]"
            for row in self.rows
        )


# ----------------------------------------------------------------------
# elimination primitives (work on lists of lists, any m x n shape)
# ----------------------------------------------------------------------


def _rref(rows: List[List[Scalar]], eps: float) -> Tuple[List[List[Scalar]], List[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: List[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        best_row = None
        best = None
        for rr in range(r, m):
            v = rows[rr][c]
            if not scalar_is_zero(v, eps) and (best is None or abs(v) > best):
                best, best_row = abs(v), rr
        if best_row is None:
            continue
        rows[r], rows[best_row] = rows[best_row], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for rr in range(m):
            if rr != r and rows[rr][c] != 0:
                f = rows[rr][c]
                rows[rr] = [x - f * y for x, y in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _det(rows: List[List[Scalar]], eps: float) -> Scalar:
    n = len(rows)
    exact = not any(isinstance(x, float) for row in rows for x in row)
    det: Scalar = Fraction(1) if exact else 1.0
    for c in range(n):
        best_row = None
        best = None
        for rr in range(c, n):
            v = rows[rr][c]
            if not scalar_is_zero(v, eps) and (best is None or abs(v) > best):
                best, best_row = abs(v), rr
        if best_row is None:
            return Fraction(0) if exact else 0.0
        if best_row != c:
            rows[c], rows[best_row] = rows[best_row], rows[c]
            det = -det
        piv = rows[c][c]
        det = det * piv
        for rr in range(c + 1, n):
            if rows[rr][c] != 0:
                f = rows[rr][c] / piv
                rows[rr] = [x - f * y for x, y in zip(rows[rr], rows[c])]
    return det


def _matmul(a: List[List[Scalar]], b: List[List[Scalar]]) -> List[List[Scalar]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _transpose(a: List[List[Scalar]]) -> List[List[Scalar]]:
    return [list(col) for col in zip(*a)]


def _inverse(rows: List[List[Scalar]]) -> List[List[Scalar]]:
    """Inverse of a small square matrix by Gauss-Jordan; raises if singular.

    Pivots are tested against zero, not a tolerance: the callers pass
    Gram blocks that are nonsingular by construction and whose entries
    scale as the square of the input, so any absolute cutoff would
    misjudge small inputs.
    """
    n = len(rows)
    exact = not any(isinstance(x, float) for row in rows for x in row)
    one: Scalar = Fraction(1) if exact else 1.0
    aug = [list(row) + [one * (i == j) for j in range(n)] for i, row in enumerate(rows)]
    reduced, pivots = _rref(aug, 0.0)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in reduced]


# ----------------------------------------------------------------------
# representations
# ----------------------------------------------------------------------


def left_matrix(q: SplitQuaternion) -> Mat4:
    """Matrix of x -> q*x on coefficient columns."""
    q0, q1, q2, q3 = q.coeffs
    return Mat4(
        (
            (q0, -q1, q2, q3),
            (q1, q0, q3, -q2),
            (q2, q3, q0, -q1),
            (q3, -q2, q1, q0),
        )
    )


def right_matrix(q: SplitQuaternion) -> Mat4:
    """Matrix of x -> x*q on coefficient columns."""
    q0, q1, q2, q3 = q.coeffs
    return Mat4(
        (
            (q0, -q1, q2, q3),
            (q1, q0, -q3, q2),
            (q2, -q3, q0, q1),
            (q3, q2, -q1, q0),
        )
    )


#: Conjugation sign matrix: vec(conj(x)) = F_MATRIX . vec(x).
F_MATRIX = Mat4.diagonal((1, -1, -1, -1))


def t_matrix(a: SplitQuaternion, b: SplitQuaternion) -> Mat4:
    """Matrix whose kernel is the solution space of x*a = b*x."""
    return right_matrix(a) - left_matrix(b)


def s_matrix(a: SplitQuaternion, b: SplitQuaternion) -> Mat4:
    """Matrix whose kernel is the solution space of x*a = b*conj(x)."""
    return right_matrix(a) - left_matrix(b) @ F_MATRIX


# ----------------------------------------------------------------------
# rank cases
# ----------------------------------------------------------------------


class TRankCase(enum.Enum):
    """Degeneration taxonomy for t_matrix on non-real inputs."""

    NONSINGULAR = "nonsingular"
    RANK2 = "rank2"  # equal real parts and equal im_squared
    RANK3 = "rank3"  # distinct real parts with vanishing determinant

    @property
    def rank(self) -> int:
        return {"nonsingular": 4, "rank2": 2, "rank3": 3}[self.value]


def t_rank_case(a: SplitQuaternion, b: SplitQuaternion, eps: float = DEFAULT_EPS) -> TRankCase:
    """Classify the degeneration of t_matrix(a, b).

    The advertised ranks hold for non-real a and b; the elimination rank
    is always available via ``t_matrix(a, b).rank()``.
    """
    if scalars_close(a.q0, b.q0, eps) and scalars_close(a.im_squared, b.im_squared, eps):
        return TRankCase.RANK2
    if not scalars_close(a.q0, b.q0, eps) and scalar_is_zero(t_matrix(a, b).det(eps), eps):
        return TRankCase.RANK3
    return TRankCase.NONSINGULAR


# ----------------------------------------------------------------------
# Moore-Penrose inverse and nullspaces
# ----------------------------------------------------------------------


def mat_mp_inverse(m: Mat4, eps: float = DEFAULT_EPS) -> Mat4:
    """Moore-Penrose inverse by full-rank factorization m = B C.

    With C the nonzero rows of the reduced echelon form and B the pivot
    columns of m, the inverse is C^T (C C^T)^-1 (B^T B)^-1 B^T.  Exact
    over rationals; the zero matrix maps to itself.
    """
    reduced, pivots = _rref([list(r) for r in m.rows], eps)
    r = len(pivots)
    if r == 0:
        return Mat4.zero()
    c_block = [reduced[i] for i in range(r)]
    b_block = [[m.rows[i][p] for p in pivots] for i in range(4)]
    ct = _transpose(c_block)
    bt = _transpose(b_block)
    cct_inv = _inverse(_matmul(c_block, ct))
    btb_inv = _inverse(_matmul(bt, b_block))
    x = _matmul(_matmul(ct, cct_inv), _matmul(btb_inv, bt))
    return Mat4(tuple(tuple(row) for row in x))


def nullspace_basis(m: Mat4, eps: float = DEFAULT_EPS) -> List[Vec4]:
    """Exact kernel basis; one vector per free column, dimension 4 - rank."""
    reduced, pivots = _rref([list(r) for r in m.rows], eps)
    free = [c for c in range(4) if c not in pivots]
    exact = m.is_exact
    zero: Scalar = Fraction(0) if exact else 0.0
    one: Scalar = Fraction(1) if exact else 1.0
    basis = []
    for f in free:
        v = [zero] * 4
        v[f] = one
        for row_idx, p in enumerate(pivots):
            v[p] = -reduced[row_idx][f]
        basis.append(tuple(v))
    return basis


def linear_system_consistent(m: Mat4, rhs: Sequence[Scalar], eps: float = DEFAULT_EPS) -> bool:
    """Whether m . x = rhs has a solution: the rhs column is not a pivot.

    Pivot choice in the columns of m never reads the rhs column, so one
    elimination of the augmented matrix decides it.
    """
    augmented = [list(row) + [as_scalar(v)] for row, v in zip(m.rows, rhs)]
    _, pivots = _rref(augmented, eps)
    return 4 not in pivots


# ----------------------------------------------------------------------
# writing a linear map as a sum of two-sided multiplications
# ----------------------------------------------------------------------

_BASIS = (ONE, I, J, K)


@lru_cache(maxsize=1)
def _product_patterns() -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Nonzero (flat index, sign) entries of each L(e_i) R(e_j), row-major.

    The sixteen products span all 4x4 real matrices, so any linear map
    on the algebra can be rewritten as a finite sum of maps
    y -> l * y * r.
    """
    patterns = []
    for bi, bj in itertools.product(_BASIS, _BASIS):
        prod = left_matrix(bi) @ right_matrix(bj)
        flat = [x for row in prod.rows for x in row]
        patterns.append(tuple((idx, int(x)) for idx, x in enumerate(flat) if x != 0))
    return tuple(patterns)


def quaternion_term_decomposition(
    m: Mat4,
) -> Tuple[Tuple[SplitQuaternion, SplitQuaternion], ...]:
    """Express the linear map of ``m`` as a sum of terms y -> l*y*r.

    The coefficient of L(e_i) R(e_j) is the inner product
    <m, L(e_i) R(e_j)> / 4; summing in flat-index order and dividing
    last fixes the float rounding.
    """
    flat = [x for row in m.rows for x in row]
    terms = []
    for (bi, bj), pattern in zip(itertools.product(_BASIS, _BASIS), _product_patterns()):
        c = sum(sign * flat[idx] for idx, sign in pattern) / 4
        if c != 0:
            terms.append((bi * c, bj))
    return tuple(terms)
