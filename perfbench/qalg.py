"""Reference split-quaternion algebra on plain 4-tuples.

The benchmark builds its inputs and checks the library's outputs with
these few lines of tuple arithmetic and Gaussian elimination, so that no
check runs through the code it is checking.  Every function works on
Fractions; the arithmetic ones also accept floats, which the float
workload's residual checks rely on.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

ZERO = (Fraction(0),) * 4
BASIS = tuple(tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4))


def qmul(p, q):
    """Product under i*i = -1, j*j = k*k = 1, i*j = k = -j*i."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return (
        p0 * q0 - p1 * q1 + p2 * q2 + p3 * q3,
        p0 * q1 + p1 * q0 - p2 * q3 + p3 * q2,
        p0 * q2 + p2 * q0 - p1 * q3 + p3 * q1,
        p0 * q3 + p3 * q0 + p1 * q2 - p2 * q1,
    )


def qadd(p, q):
    return tuple(x + y for x, y in zip(p, q))


def qsub(p, q):
    return tuple(x - y for x, y in zip(p, q))


def qscale(q, s):
    return tuple(x * s for x in q)


def qconj(q):
    return (q[0], -q[1], -q[2], -q[3])


def qform(q):
    """Multiplicative quadratic form q0^2 + q1^2 - q2^2 - q3^2."""
    return q[0] * q[0] + q[1] * q[1] - q[2] * q[2] - q[3] * q[3]


def qk(q):
    """Similarity invariant im(q)^2 = -q1^2 + q2^2 + q3^2."""
    return -q[1] * q[1] + q[2] * q[2] + q[3] * q[3]


def qinv(q):
    return qscale(qconj(q), 1 / Fraction(qform(q)))


def conjugate_by(c, q):
    """c * q * c^-1."""
    return qmul(qmul(c, q), qinv(c))


def is_real(q) -> bool:
    return q[1] == 0 and q[2] == 0 and q[3] == 0


def norm(q) -> float:
    return max(abs(x) for x in q)


def exact_sqrt(x: Fraction):
    """Rational square root of a nonnegative Fraction, or None."""
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    return Fraction(rn, rd) if rn * rn == n and rd * rd == d else None


# ----------------------------------------------------------------------
# 4x4 matrices as tuples of rows
# ----------------------------------------------------------------------


def linmap(f):
    """Matrix of a linear map on the algebra, column j = f(e_j)."""
    cols = [f(e) for e in BASIS]
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))


def matmul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def transpose(a):
    return tuple(zip(*a))


def apply(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def mat_norm(m) -> float:
    return max(abs(x) for row in m for x in row)


def rref(rows):
    """Exact reduced row echelon form of a list of rows; returns (rows, pivots)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows) -> int:
    return len(rref(rows)[1]) if rows else 0


def kernel(m):
    """Exact basis of the kernel of a 4x4 matrix."""
    reduced, pivots = rref(m)
    basis = []
    for f in (c for c in range(4) if c not in pivots):
        v = [Fraction(0)] * 4
        v[f] = Fraction(1)
        for row, p in enumerate(pivots):
            v[p] = -reduced[row][f]
        basis.append(tuple(v))
    return basis


def consistent(m, rhs) -> bool:
    """Whether m . x = rhs has a solution."""
    return rank(m) == rank([list(row) + [v] for row, v in zip(m, rhs)])


def has_invertible(vectors) -> bool:
    """Whether the span holds an element of nonzero quadratic form.

    A form that vanishes on every v_i and every v_i + v_j vanishes on the
    whole span, so these finitely many probes decide the question.
    """
    if any(qform(v) != 0 for v in vectors):
        return True
    return any(
        qform(qadd(u, v)) != 0 for i, u in enumerate(vectors) for v in vectors[i + 1:]
    )


def t_mat(a, b):
    """Matrix of x -> x*a - b*x."""
    return linmap(lambda x: qsub(qmul(x, a), qmul(b, x)))


def s_mat(a, b):
    """Matrix of x -> x*a - b*conj(x)."""
    return linmap(lambda x: qsub(qmul(x, a), qmul(b, qconj(x))))


def axb_mat(a, b):
    """Matrix of x -> a*x*b."""
    return linmap(lambda x: qmul(qmul(a, x), b))
