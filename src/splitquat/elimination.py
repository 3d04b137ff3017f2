"""Gaussian elimination on row lists of any m x n shape: one kernel per backend.

:func:`eliminate` is the exact kernel.  It runs fraction-free
Gauss-Jordan elimination on integer rows (Bareiss 1968, *Sylvester's
identity and multistep integer-preserving Gaussian elimination*,
Math. Comp. 22), so exact matrices are eliminated on the integer
numerators of their entries, with no rational arithmetic.
:func:`rref`, :func:`det` and :func:`inverse` are the float kernel:
elimination with partial pivoting, where an entry within the absolute
tolerance ``eps`` of zero counts as zero.
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import NotInvertibleError
from .scalars import Scalar, scalar_is_zero


def eliminate(rows: List[List[int]]) -> Tuple[List[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Each step takes the first row with a nonzero entry p in the next
    column and replaces every other row by (p*row - f*pivot_row) / prev,
    with f the row's entry in that column and prev the previous pivot.
    By Sylvester's identity the division is exact and every entry stays
    a minor of the input (Bareiss 1968).  The first r rows end as the
    reduced echelon rows times the last pivot.  Returns (pivot columns,
    last pivot, sign of the row permutation): a nonsingular square
    matrix has determinant sign * last pivot.
    """
    m, n = len(rows), len(rows[0])
    pivots: List[int] = []
    prev = sign = 1
    for c in range(n):
        r = len(pivots)
        p = next((p for p in range(r, m) if rows[p][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        top = rows[r]
        piv = top[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and (f or piv != prev):
                rows[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
        prev = piv
        if r + 1 == m:
            break
    return pivots, prev, sign


def rref(rows: List[List[Scalar]], eps: float) -> Tuple[List[List[Scalar]], List[int]]:
    """In-place reduced row echelon form with partial pivoting; returns (rows, pivot columns)."""
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


def det(rows: List[List[float]], eps: float) -> float:
    """Determinant of a square float matrix, in place; 0.0 when a column has no pivot."""
    n = len(rows)
    det = 1.0
    for c in range(n):
        best_row = None
        best = None
        for rr in range(c, n):
            v = rows[rr][c]
            if not scalar_is_zero(v, eps) and (best is None or abs(v) > best):
                best, best_row = abs(v), rr
        if best_row is None:
            return 0.0
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


def inverse(rows: List[List[float]]) -> List[List[float]]:
    """Inverse of a small square float matrix by Gauss-Jordan; NotInvertibleError if singular.

    Pivots are tested against zero, not a tolerance: the callers pass a
    matrix already found to have full rank at their ``eps``, or Gram
    blocks that are nonsingular by construction and whose entries scale
    as the square of the input, so any absolute cutoff would misjudge
    small inputs.
    """
    n = len(rows)
    aug = [list(row) + [1.0 * (i == j) for j in range(n)] for i, row in enumerate(rows)]
    reduced, pivots = rref(aug, 0.0)
    if pivots != list(range(n)):
        raise NotInvertibleError("matrix is singular")
    return [row[n:] for row in reduced]
