"""Closed-form spectra, determinants and S-rank cases, and Fraction elimination, used as test oracles.

The library decides ranks and determinants of ``t_matrix`` and
``s_matrix`` by elimination; the closed forms below are independent
derivations that the tests compare against it.  The library eliminates
exact matrices fraction-free on integer numerators; the Gauss-Jordan
elimination over Fractions below is the rational path it replaced, and
the tests require bit-equal results from both.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import List, Tuple

from splitquat import SplitQuaternion
from splitquat.scalars import (
    DEFAULT_EPS,
    Scalar,
    is_exact,
    scalar_is_zero,
    scalar_sqrt,
    scalars_close,
)

Complexish = Tuple[Scalar, Scalar]  # (real, imaginary) parts


def _sqrt_signed(x: Scalar) -> Complexish:
    """Square root of a scalar as a (re, im) pair; im > 0 when x < 0."""
    if x < 0:
        root = scalar_sqrt(-x)
        zero: Scalar = Fraction(0) if is_exact(root) else 0.0
        return (zero, root)
    root = scalar_sqrt(x)
    zero = Fraction(0) if is_exact(root) else 0.0
    return (root, zero)


class SRankCase(enum.Enum):
    """Degeneration taxonomy for s_matrix."""

    NONSINGULAR = "nonsingular"
    RANK1 = "rank1"  # conj(a) + b = 0
    RANK3A = "rank3a"  # equal quadratic forms, conj(a)+b non-lightlike
    RANK3B = "rank3b"  # equal quadratic forms, conj(a)+b nonzero lightlike
    RANK3C = "rank3c"  # distinct quadratic forms, conj(a)+b nonzero lightlike

    @property
    def rank(self) -> int:
        return {"nonsingular": 4, "rank1": 1, "rank3a": 3, "rank3b": 3, "rank3c": 3}[self.value]


def t_eigenvalues(a: SplitQuaternion, b: SplitQuaternion) -> Tuple[Complexish, ...]:
    """The four eigenvalues (a0 +/- sqrt(Ka)) - (b0 +/- sqrt(Kb)) as (re, im) pairs."""
    sa = _sqrt_signed(a.im_squared)
    sb = _sqrt_signed(b.im_squared)
    d = a.q0 - b.q0
    return tuple(
        (d + s1 * sa[0] - s2 * sb[0], s1 * sa[1] - s2 * sb[1])
        for s1 in (1, -1)
        for s2 in (1, -1)
    )


def t_det(a: SplitQuaternion, b: SplitQuaternion) -> Scalar:
    """Closed-form determinant d^4 - 2d^2(Ka+Kb) + (Ka-Kb)^2, d = a0-b0."""
    d = a.q0 - b.q0
    ka, kb = a.im_squared, b.im_squared
    d2 = d * d
    return d2 * d2 - 2 * d2 * (ka + kb) + (ka - kb) * (ka - kb)


def s_eigenvalues(a: SplitQuaternion, b: SplitQuaternion) -> Tuple[Complexish, ...]:
    """Eigenvalues a0 +/- sqrt(Ka + Ib) and a0+b0 +/- sqrt(Ka+Kb+2(a1b1-a2b2-a3b3))."""
    r1 = a.im_squared + b.quadratic_form
    r2 = a.im_squared + b.im_squared + 2 * (a.q1 * b.q1 - a.q2 * b.q2 - a.q3 * b.q3)
    s1 = _sqrt_signed(r1)
    s2 = _sqrt_signed(r2)
    a0, ab0 = a.q0, a.q0 + b.q0
    return (
        (a0 + s1[0], s1[1]),
        (a0 - s1[0], -s1[1]),
        (ab0 + s2[0], s2[1]),
        (ab0 - s2[0], -s2[1]),
    )


def s_det(a: SplitQuaternion, b: SplitQuaternion) -> Scalar:
    """Closed-form determinant (Ia - Ib) * I(conj(a) + b)."""
    return (a.quadratic_form - b.quadratic_form) * (a.conjugate() + b).quadratic_form


def s_rank_case(a: SplitQuaternion, b: SplitQuaternion, eps: float = DEFAULT_EPS) -> SRankCase:
    w = a.conjugate() + b
    forms_equal = scalars_close(a.quadratic_form, b.quadratic_form, eps)
    w_lightlike = scalar_is_zero(w.quadratic_form, eps)
    if forms_equal:
        if w.is_zero(eps):
            return SRankCase.RANK1
        if not w_lightlike:
            return SRankCase.RANK3A
        return SRankCase.RANK3B
    if w_lightlike:
        return SRankCase.RANK3C
    return SRankCase.NONSINGULAR


# ----------------------------------------------------------------------
# Gauss-Jordan elimination over Fractions, on row lists
# ----------------------------------------------------------------------

Rows = List[List[Fraction]]


def fraction_rref(rows) -> Tuple[Rows, List[int]]:
    """Reduced row echelon form of a copy, pivoting on the largest entry; (rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    m, n = len(rows), len(rows[0])
    pivots: List[int] = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        candidates = [rr for rr in range(r, m) if rows[rr][c] != 0]
        if not candidates:
            continue
        best = max(candidates, key=lambda rr: abs(rows[rr][c]))
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for rr in range(m):
            f = rows[rr][c]
            if rr != r and f != 0:
                rows[rr] = [x - f * y for x, y in zip(rows[rr], rows[r])]
        pivots.append(c)
    return rows, pivots


def fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        p = next((p for p in range(c, n) if rows[p][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        piv = rows[c][c]
        det *= piv
        for rr in range(c + 1, n):
            f = rows[rr][c] / piv
            rows[rr] = [x - f * y for x, y in zip(rows[rr], rows[c])]
    return det


def _matmul(a, b) -> Rows:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _transpose(a) -> Rows:
    return [list(col) for col in zip(*a)]


def fraction_inverse(rows) -> Rows:
    n = len(rows)
    augmented = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    reduced, pivots = fraction_rref(augmented)
    assert pivots == list(range(n)), "singular"
    return [row[n:] for row in reduced]


def fraction_mp_inverse(rows) -> Rows:
    """Moore-Penrose inverse C^T (C C^T)^-1 (B^T B)^-1 B^T from the full-rank factorization B C."""
    reduced, pivots = fraction_rref(rows)
    r = len(pivots)
    if r == 0:
        return [[Fraction(0)] * 4 for _ in range(4)]
    c_block = reduced[:r]
    b_block = [[Fraction(row[p]) for p in pivots] for row in rows]
    ct, bt = _transpose(c_block), _transpose(b_block)
    cct_inv = fraction_inverse(_matmul(c_block, ct))
    btb_inv = fraction_inverse(_matmul(bt, b_block))
    return _matmul(_matmul(ct, cct_inv), _matmul(btb_inv, bt))


def fraction_nullspace(rows) -> List[Tuple[Fraction, ...]]:
    """One kernel vector per free column, read off the reduced echelon form."""
    reduced, pivots = fraction_rref(rows)
    basis = []
    for f in (c for c in range(len(rows[0])) if c not in pivots):
        v = [Fraction(0)] * len(rows[0])
        v[f] = Fraction(1)
        for row_idx, p in enumerate(pivots):
            v[p] = -reduced[row_idx][f]
        basis.append(tuple(v))
    return basis


def fraction_consistent(rows, rhs) -> bool:
    """Whether rows . x = rhs is solvable: the rhs column of the augmented matrix is no pivot."""
    _, pivots = fraction_rref([list(row) + [v] for row, v in zip(rows, rhs)])
    return len(rows[0]) not in pivots
