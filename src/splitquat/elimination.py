"""Gaussian elimination on row lists of any m x n shape: one kernel per backend.

:func:`eliminate` is the exact kernel: fraction-free elimination on
integer rows (Bareiss 1968, *Sylvester's identity and multistep
integer-preserving Gaussian elimination*, Math. Comp. 22); :func:`rref`
is the float kernel: Gauss-Jordan elimination with partial pivoting,
where an entry within the absolute tolerance ``eps`` of zero counts as
zero.  Rank, determinant, column basis and consistency stop both at
echelon form; the nullspace, the float block inverse and the first pass
of the float pseudoinverse, whose bits depend on its reduced rows, reduce
the rows above each pivot too.  Both return the same (pivots, pivot
scale, sign) triple.

:func:`adjugate` is the exact backend's inverse of a 4 x 4 integer
matrix of full rank: its adjugate and determinant in straight-line code,
with no division and no pivot search.  The exact pseudoinverse of a
singular matrix eliminates nothing either: it reads the rank off the
adjugate and the Gram matrix (see :mod:`.matrices`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

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
                rows[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
            elif not f and piv != prev:
                rows[i] = [piv * x // prev for x in row]
        pivots.append(c)
        prev = piv
        if r + 1 == m:
            break
    return pivots, prev, sign


def adjugate(e: Sequence[int]) -> Tuple[tuple, int]:
    """(adjugate, determinant) of a flat row-major 4 x 4 integer matrix.

    The adjugate comes back flat and row-major as well.  det * m^-1 = adj
    takes no division, and the exact backend's pseudoinverse inverts with
    it.  Its entries are the 3 x 3 minors, up to sign, so it is 0 exactly
    when the rank is below 3.  The determinant is a straight-line Laplace
    expansion by complementary minors: the six 2 x 2 minors of rows 0-1
    and the six of rows 2-3 give it, and each cofactor is three products
    of an entry with one of them.
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = e
    s0, s1, s2 = a0 * a5 - a4 * a1, a0 * a6 - a4 * a2, a0 * a7 - a4 * a3
    s3, s4, s5 = a1 * a6 - a5 * a2, a1 * a7 - a5 * a3, a2 * a7 - a6 * a3
    c0, c1, c2 = a8 * a13 - a12 * a9, a8 * a14 - a12 * a10, a8 * a15 - a12 * a11
    c3, c4, c5 = a9 * a14 - a13 * a10, a9 * a15 - a13 * a11, a10 * a15 - a14 * a11
    det = s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
    adj = (
        a5 * c5 - a6 * c4 + a7 * c3,
        -a1 * c5 + a2 * c4 - a3 * c3,
        a13 * s5 - a14 * s4 + a15 * s3,
        -a9 * s5 + a10 * s4 - a11 * s3,
        -a4 * c5 + a6 * c2 - a7 * c1,
        a0 * c5 - a2 * c2 + a3 * c1,
        -a12 * s5 + a14 * s2 - a15 * s1,
        a8 * s5 - a10 * s2 + a11 * s1,
        a4 * c4 - a5 * c2 + a7 * c0,
        -a0 * c4 + a1 * c2 - a3 * c0,
        a12 * s4 - a13 * s2 + a15 * s0,
        -a8 * s4 + a9 * s2 - a11 * s0,
        -a4 * c3 + a5 * c1 - a6 * c0,
        a0 * c3 - a1 * c1 + a2 * c0,
        -a12 * s3 + a13 * s1 - a14 * s0,
        a8 * s3 - a9 * s1 + a10 * s0,
    )
    return adj, det


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
