"""Gaussian elimination on row lists of any m x n shape: one kernel per backend.

:func:`eliminate` is the exact kernel: fraction-free elimination on
integer rows (Bareiss 1968, *Sylvester's identity and multistep
integer-preserving Gaussian elimination*, Math. Comp. 22); :func:`rref`
is the float kernel: Gauss-Jordan elimination with partial pivoting,
where an entry within the absolute tolerance ``eps`` of zero counts as
zero.  Rank, determinant, column basis and consistency stop both at
echelon form; the nullspace, the block inverse and the first pass of the
float pseudoinverse, whose bits depend on its reduced rows, reduce the
rows above each pivot too.  Both return the same (pivots, pivot scale, sign) triple.
"""

from __future__ import annotations

from typing import List, Tuple

from .scalars import scalar_is_zero


def eliminate(rows: List[List[int]], reduce: bool) -> Tuple[List[int], int, int]:
    """Fraction-free elimination of integer rows, in place.

    Each step takes the first row with a nonzero entry p in the next
    column and replaces each row below it (and above it with ``reduce``)
    by (p*row - f*pivot_row) / prev, f the row's entry in that column and
    prev the previous pivot, 1 at first.  By Sylvester's identity the
    division is exact and every entry stays a minor of the input (Bareiss
    1968).  Rows above a pivot never reach those below, so ``reduce``
    moves no pivot.  The first r rows end as echelon rows, reduced and
    times the last pivot with ``reduce``; the rest end zero.  Returns
    (pivot columns, last pivot, sign of the row permutation): a
    nonsingular square matrix has determinant sign * last pivot.
    """
    m, n = len(rows), len(rows[0])
    pivots: List[int] = []
    prev = sign = 1
    for c in range(n):
        r = len(pivots)
        for p in range(r, m):
            if rows[p][c]:
                break
        else:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        top = rows[r]
        piv = top[c]
        for i in range(0 if reduce else r + 1, m):
            row = rows[i]
            f = row[c]
            if f and i != r:
                if prev == 1:
                    rows[i] = [piv * x - f * y for x, y in zip(row, top)]
                else:
                    rows[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
            elif not f and piv != prev:
                rows[i] = [piv * x // prev for x in row]
        pivots.append(c)
        prev = piv
        if r + 1 == m:
            break
    return pivots, prev, sign


def rref(rows: List[List[float]], eps: float, reduce: bool) -> Tuple[List[int], float, int]:
    """Row echelon form in place, pivoting on the largest |entry| (first row on ties).

    The first r rows end as the echelon rows with unit pivots, and reduced
    with ``reduce``, which moves no pivot.  Returns (pivot columns, product
    of the pivots, sign of the row permutation), as :func:`eliminate` does:
    a nonsingular matrix has determinant sign * product.
    """
    m, n = len(rows), len(rows[0])
    pivots: List[int] = []
    product, sign = 1.0, 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        best_row = best = None
        for rr in range(r, m):
            v = rows[rr][c]
            if not scalar_is_zero(v, eps) and (best is None or abs(v) > best):
                best, best_row = abs(v), rr
        if best_row is None:
            continue
        if best_row != r:
            rows[r], rows[best_row] = rows[best_row], rows[r]
            sign = -sign
        piv = rows[r][c]
        product *= piv
        top = rows[r] = [x / piv for x in rows[r]]
        for rr in range(0 if reduce else r + 1, m):
            f = rows[rr][c]
            if rr != r and f != 0:
                rows[rr] = [x - f * y for x, y in zip(rows[rr], top)]
        pivots.append(c)
    return pivots, product, sign
