"""4x4 real matrix tools for the regular representations.

``left_matrix(q)`` and ``right_matrix(q)`` are the matrices of ``x -> q*x``
and ``x -> x*q`` acting on coefficient columns, and ``family_matrix`` sums
their products over a solution family's terms.  ``t_matrix`` and
``s_matrix`` are the operator matrices whose kernels carry the solutions
of ``x*a = b*x`` and ``x*a = b*conj(x)``.

A :class:`Mat4` holds sixteen numerators over one denominator: ``int``
numerators over a positive ``int`` reduced by their ``gcd`` on the exact
backend, floats over ``1.0`` on the float one (see
:func:`~.scalars._ratio`).  Outside numbers (entries, and the vectors of
``apply`` and ``linear_system_consistent``) enter by
:func:`~.scalars._admit`, and every matrix the library computes leaves
by ``_mat``, which refuses a non-finite float entry; every scalar it
returns (``rows``, ``apply``, ``det``, ``nullspace_basis``) is built by
:func:`~.scalars._quotient`, which refuses one too.  Sums, products,
division by a scalar, ``apply`` and the representations have one body
on the numerators, and ``rows`` builds the entries on each read.  Float
sums are added left to right as written (``_dot``, ``_product``), never
by ``sum()``, which Python 3.12 made compensated, so float bits do not
depend on the interpreter.  An exact matrix meeting a
float one is rounded to floats once (:func:`~.scalars._common`).  The
sign patterns of L(q) and R(q) are written once (``_left``, ``_right``);
``t_matrix`` and ``s_matrix`` are built from them in one step on the
numerators of both quaternions, with no intermediate matrix, and
``family_matrix`` from quaternion products on the numerators of all its
terms (``_family_sum``, the columns of L(l) times r, which solvers call
on their numerators).  Rank, nullspace, column basis and consistency
come from the elimination kernel of the matrix's backend (see
:mod:`.elimination`): fraction-free on the numerators, or with partial
pivoting and the tolerance ``eps`` on floats, picked in one place,
``_eliminate``, which also returns the common denominator of the rows it
leaves.  The exact determinant and Moore-Penrose inverse eliminate
nothing: both start from the adjugate (:func:`~.elimination.adjugate`),
and a singular matrix is inverted by Decell's Cayley-Hamilton formula on
its Gram matrix.  The float determinant is the signed product of the
pivots, and the float inverse factors by rank through Gauss-Jordan
elimination, with its products on ``_product``.  Elimination is the
source of truth for every rank decision taken elsewhere in the library;
the closed-form spectra and determinants of ``t_matrix`` and
``s_matrix`` are test oracles.
"""

from __future__ import annotations

from math import gcd, isfinite
from operator import add, mul, neg, sub
from typing import List, Sequence, Tuple, Union

from . import elimination
from .core import SplitQuaternion, _from_ratio, _quat_product
from .errors import NonFiniteError, NotInvertibleError
from .scalars import (
    DEFAULT_EPS,
    Scalar,
    _admit,
    _all_zero,
    _common,
    _over,
    _quotient,
    _ratio,
    format_scalar,
)

Vec4 = Tuple[Scalar, Scalar, Scalar, Scalar]


class Mat4:
    """Immutable 4x4 matrix over the scalar backends, row-major."""

    # _e: the sixteen numerators, row-major: ints, or floats
    # _d: their denominator: a positive int, or 1.0 on the float backend
    __slots__ = ("_e", "_d")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        rows = tuple(map(tuple, rows))
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("Mat4 requires 4 rows of 4 entries")
        self._e, self._d = _ratio(_admit([x for row in rows for x in row], "matrix entry"))

    @classmethod
    def identity(cls) -> "Mat4":
        return _mat(tuple(int(i == j) for i in range(4) for j in range(4)), 1)

    @classmethod
    def zero(cls) -> "Mat4":
        return _zero(1)

    @classmethod
    def diagonal(cls, entries: Sequence) -> "Mat4":
        if len(entries) != 4:
            raise ValueError("Mat4.diagonal requires 4 entries")
        return cls(tuple(tuple(entries[i] if i == j else 0 for j in range(4)) for i in range(4)))

    @property
    def rows(self) -> Tuple[Tuple[Scalar, ...], ...]:
        d = self._d
        flat = [_quotient(x, d) for x in self._e]
        return tuple(tuple(flat[i : i + 4]) for i in (0, 4, 8, 12))

    @property
    def is_exact(self) -> bool:
        return self._d.__class__ is not float

    def _lists(self) -> List[list]:
        """The numerators as fresh row lists."""
        e = self._e
        return [list(e[i : i + 4]) for i in (0, 4, 8, 12)]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._d.__class__ is not other._d.__class__:
            return self.rows == other.rows
        return self._d == other._d and self._e == other._e

    def __hash__(self):
        return hash((self.rows,))

    def __reduce__(self):
        return (Mat4, (self.rows,))

    def __repr__(self) -> str:
        return f"Mat4(rows={self.rows!r})"

    def _entrywise(self, other: "Mat4", op) -> "Mat4":
        (a, d), (b, e) = _common((self._e, self._d), (other._e, other._d))
        return _mat(tuple(op(x * e, y * d) for x, y in zip(a, b)), d * e)

    def __add__(self, other: "Mat4") -> "Mat4":
        return self._entrywise(other, add)

    def __sub__(self, other: "Mat4") -> "Mat4":
        return self._entrywise(other, sub)

    def __neg__(self) -> "Mat4":
        return _mat(tuple(map(neg, self._e)), self._d)

    def __matmul__(self, other: "Mat4") -> "Mat4":
        (a, d), (b, e) = _common((self._e, self._d), (other._e, other._d))
        return _mat(_product(a, b), d * e)

    def __truediv__(self, s) -> "Mat4":
        (e, d), ((n,), t) = _common((self._e, self._d), _ratio(_admit((s,), "scalar divisor")))
        if not n:
            raise ZeroDivisionError("Mat4 division by zero")
        return _mat(*_over(tuple(x * t for x in e), d * n))

    def apply(self, v: Sequence[Scalar]) -> Vec4:
        """The column m . v: exact on int numerators, or in floats once any entry is a float."""
        if len(v) != 4:
            raise ValueError("Mat4.apply requires 4 entries")
        (e, d), (nums, dv) = _common((self._e, self._d), _ratio(_admit(v, "vector entry")))
        return tuple(_quotient(_dot(e[i : i + 4], nums), d * dv) for i in (0, 4, 8, 12))

    def transpose(self) -> "Mat4":
        e = self._e
        return _mat(e[0::4] + e[1::4] + e[2::4] + e[3::4], self._d)

    def isclose(self, other: "Mat4", eps: float = DEFAULT_EPS) -> bool:
        return self == other or _all_zero((self - other)._e, eps)

    def is_symmetric(self, eps: float = DEFAULT_EPS) -> bool:
        return self.isclose(self.transpose(), eps)

    def rank(self, eps: float = DEFAULT_EPS) -> int:
        return len(_pivots(self, eps))

    def det(self, eps: float = DEFAULT_EPS) -> Scalar:
        if self._d.__class__ is float:
            pivots, product, sign = elimination.rref(self._lists(), eps, False)
            return _quotient(sign * product, 1.0) if len(pivots) == 4 else 0.0
        return _quotient(elimination.adjugate(self._e)[1], self._d**4)

    def __str__(self) -> str:
        rows = self.rows
        widths = [max(len(format_scalar(rows[r][c])) for r in range(4)) for c in range(4)]
        return "\n".join(
            "[ " + "  ".join(format_scalar(x).rjust(w) for x, w in zip(row, widths)) + " ]"
            for row in rows
        )


def _mat(e: Tuple, d: Union[int, float]) -> Mat4:
    """Matrix of numerators e over d: ints over an int d != 0, reduced here, or floats over 1.0, each finite."""
    if d.__class__ is float:
        if not (isfinite(sum(e)) or all(map(isfinite, e))):  # a sum of floats is finite only if each is
            raise NonFiniteError("matrix entry is not finite on the float backend")
    else:
        g = -gcd(d, *e) if d < 0 else gcd(d, *e)
        if g != 1:
            e, d = tuple(x // g for x in e), d // g
    m = object.__new__(Mat4)
    m._e, m._d = e, d
    return m


def _dot(u: Sequence, v: Sequence):
    """u . v of two 4-vectors, added left to right from int 0, as sum() added floats before Python 3.12."""
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    return 0 + u0 * v0 + u1 * v1 + u2 * v2 + u3 * v3


def _product(a: Sequence, b: Sequence) -> tuple:
    """Row-major product of two flat 4x4 numerator matrices, written out row by row."""
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = b
    out = []
    for i in (0, 4, 8, 12):
        x0, x1, x2, x3 = a[i : i + 4]
        out += (
            x0 * b0 + x1 * b4 + x2 * b8 + x3 * b12,
            x0 * b1 + x1 * b5 + x2 * b9 + x3 * b13,
            x0 * b2 + x1 * b6 + x2 * b10 + x3 * b14,
            x0 * b3 + x1 * b7 + x2 * b11 + x3 * b15,
        )
    return tuple(out)


def _eliminate(rows: List[list], d, eps: float, reduce: bool) -> Tuple[List[int], Union[int, float]]:
    """Eliminate the numerator rows of a matrix over d with its backend's kernel, in place.

    Returns (pivot columns, common denominator of the rows left).  Both
    kernels leave echelon rows, reduced with ``reduce``: the exact kernel
    ignores eps and leaves them times the last pivot, and the float kernel
    leaves them with unit pivots, over 1.0.
    """
    if d.__class__ is float:
        return elimination.rref(rows, eps, reduce)[0], 1.0
    return elimination.eliminate(rows, reduce)


def _zero(d) -> Mat4:
    """The zero matrix of the backend of a denominator d."""
    return _mat((0 * d,) * 16, d)


def _pivots(m: Mat4, eps: float) -> List[int]:
    return _eliminate(m._lists(), m._d, eps, False)[0]


# ----------------------------------------------------------------------
# representations
# ----------------------------------------------------------------------


def _left(q0, q1, q2, q3) -> tuple:
    """Entries of L(q), row-major, from q's coefficients or numerators."""
    return (q0, -q1, q2, q3, q1, q0, q3, -q2, q2, q3, q0, -q1, q3, -q2, q1, q0)


def _right(q0, q1, q2, q3) -> tuple:
    """Entries of R(q), row-major, from q's coefficients or numerators."""
    return (q0, -q1, q2, q3, q1, q0, -q3, q2, q2, -q3, q0, q1, q3, q2, -q1, q0)


def left_matrix(q: SplitQuaternion) -> Mat4:
    """Matrix of x -> q*x on coefficient columns."""
    c, d = _ratio(q.coeffs)
    return _mat(_left(*c), d)


def right_matrix(q: SplitQuaternion) -> Mat4:
    """Matrix of x -> x*q on coefficient columns."""
    c, d = _ratio(q.coeffs)
    return _mat(_right(*c), d)


#: Column signs of -F, entry by entry, for F = diag(1, -1, -1, -1), the matrix of conj:
#: -L(b) F is L(b) times these.
_MINUS_F = (-1, 1, 1, 1) * 4


def family_matrix(terms: Sequence[Tuple[SplitQuaternion, SplitQuaternion]]) -> Mat4:
    """sum_k L(left_k) R(right_k), the matrix of y -> sum_k left_k * y * right_k, over one d^2."""
    if not terms:
        return Mat4.zero()
    n, d = _ratio(*(q.coeffs for term in terms for q in term))
    return _mat(_family_sum(n), d * d)


def _family_sum(n: Sequence) -> tuple:
    """The sixteen numerators of sum_k L(l_k) R(r_k), from l_k's and r_k's numerators in turn.

    Column c of L(l) R(r) is (l * e_c * r).coeffs, with e_c the units
    1, i, j, k: four quaternion products, each of l * e_c, column c of
    L(l), by r.  The sum is over the product of the denominators of l_k
    and r_k, which must be one product for every k.
    """
    total = (0,) * 16
    for k in range(0, len(n), 8):
        left, r = _left(*n[k : k + 4]), n[k + 4 : k + 8]
        cols = map(_quat_product, (left[0::4] + r, left[1::4] + r, left[2::4] + r, left[3::4] + r))
        total = tuple(map(add, total, sum(zip(*cols), ())))  # row-major: zip(*cols) gives the rows
    return total


def t_matrix(a: SplitQuaternion, b: SplitQuaternion) -> Mat4:
    """Matrix whose kernel is the solution space of x*a = b*x: R(a) - L(b)."""
    n, d = _ratio(a.coeffs, b.coeffs)
    return _mat(tuple(map(sub, _right(*n[:4]), _left(*n[4:]))), d)


def s_matrix(a: SplitQuaternion, b: SplitQuaternion) -> Mat4:
    """Matrix whose kernel is the solution space of x*a = b*conj(x): R(a) - L(b) F.

    F = diag(1, -1, -1, -1) is the matrix of conj, so that is R(a) - L(b)
    with columns 1-3 of L(b) negated, built once on the numerators of both.
    """
    n, d = _ratio(a.coeffs, b.coeffs)
    return _mat(tuple(map(add, _right(*n[:4]), map(mul, _left(*n[4:]), _MINUS_F))), d)


# ----------------------------------------------------------------------
# Moore-Penrose inverse and nullspaces
# ----------------------------------------------------------------------


def mat_mp_inverse(m: Mat4, eps: float = DEFAULT_EPS) -> Mat4:
    """Moore-Penrose inverse: adjugate or Decell's formula if exact, rank factorization on floats.

    An exact matrix m = e/d is inverted by the adjugate over the
    determinant (:func:`~.elimination.adjugate`), or, when that is 0, by
    Decell's Cayley-Hamilton formula (H. P. Decell, *An application of
    the Cayley-Hamilton theorem to generalized matrix inversion*, SIAM
    Review 7(4), 1965), with no elimination.  The characteristic
    polynomial x^4 + c1 x^3 + ... + c4 of the Gram matrix G = e^T e has
    c_k != 0 exactly for k <= rank r, as G is positive semidefinite.
    Newton's identities give c1 = -tr G and c2 = (tr(G)^2 - tr G^2)/2,
    an exact division on ints, and Cauchy-Binet gives c3 as minus the sum
    of the squared 3 x 3 minors of e, the entries of adj(e): so rank 3 is
    read off the adjugate, and rank 2 needs no G^2.  Then
    m+ = -d (G^(r-1) + c1 G^(r-2) + ... + c_(r-1) I) e^T / c_r.
    Floats take E^T (B^T m E^T)^-1 B^T, the full-rank factorization
    m = B C with B the pivot columns of m and E the reduced echelon rows
    of one elimination at eps, and one more elimination, of [block | d I]
    at eps 0, for the r x r inverse: Cayley-Hamilton and Cramer-type
    formulas are not backward stable in floating point (Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 14).  A float matrix of
    full rank is inverted directly, since the Gram matrix squares its
    condition number.  The products run on :func:`_product`, padded with
    int 0 so that a float zero sums to 0.0, never -0.0.  The zero matrix
    maps to the zero matrix of its backend.
    """
    e, d = m._e, m._d
    if d.__class__ is not float:
        adj, det = elimination.adjugate(e)
        if det:
            return _mat(tuple(x * d for x in adj), det)
        et = e[0::4] + e[1::4] + e[2::4] + e[3::4]
        g = _product(et, e)
        p1, p2 = g[0] + g[5] + g[10] + g[15], sum(map(mul, g, g))
        if not p1:
            return _zero(d)
        c2 = (p1 * p1 - p2) // 2
        if not c2:  # rank 1: e+ = e^T / tr G
            return _mat(tuple(x * d for x in et), p1)
        if any(adj):  # rank 3
            p, c = [x - p1 * y for x, y in zip(_product(g, g), g)], -sum(map(mul, adj, adj))
            for i in (0, 5, 10, 15):
                p[i] += c2
        else:
            p, c = list(g), c2
            for i in (0, 5, 10, 15):
                p[i] -= p1
        return _mat(tuple(x * d for x in _product(p, et)), -c)
    echelon = m._lists()
    pivots = _eliminate(echelon, d, eps, True)[0]
    r = len(pivots)
    if r == 0:
        return _zero(d)
    pad, zero_rows = (0,) * (4 - r), [0] * (16 - 4 * r)
    if r == 4:
        block = e
    else:
        bt = [x for p in pivots for x in e[p::4]] + zero_rows
        et = [x for col in zip(*echelon[:r]) for x in (*col, *pad)]
        block = _product(bt, _product(e, et))
    # x / scale is d times the inverse of the block: the d cancels the 1/d of m's numerators
    rows = [list(block[i : i + r]) for i in range(0, 4 * r, 4)]
    augmented = [row + [d if i == j else 0.0 for j in range(r)] for i, row in enumerate(rows)]
    pivots, scale = _eliminate(augmented, d, 0.0, True)
    if pivots != list(range(r)):
        raise NotInvertibleError("matrix is singular")
    x = [v for row in augmented for v in (*row[r:], *pad)] + zero_rows
    if r < 4:
        x = _product(_product(et, x), bt)
    return _mat(tuple(x), scale)


def _kernel(m: Mat4, eps: float) -> Tuple[List[list], Union[int, float]]:
    """Kernel basis of m from one elimination, one vector per free column.

    The vectors are numerators over one denominator, returned with it:
    ints over the last pivot, or floats over 1.0.
    """
    reduced = m._lists()
    pivots, d = _eliminate(reduced, m._d, eps, True)
    basis = []
    for f in range(4):
        if f in pivots:
            continue
        v = [0 * d] * 4
        v[f] = d
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis, d


def nullspace_basis(m: Mat4, eps: float = DEFAULT_EPS) -> List[Vec4]:
    """Exact kernel basis; one vector per free column, dimension 4 - rank."""
    basis, d = _kernel(m, eps)
    return [tuple(_quotient(x, d) for x in v) for v in basis]


def image_basis(m: Mat4, eps: float = DEFAULT_EPS) -> List[SplitQuaternion]:
    """The pivot columns of m, as quaternions: a basis of its image."""
    e, d = m._e, m._d
    return [_from_ratio(e[p::4], d) for p in _pivots(m, eps)]


def linear_system_consistent(m: Mat4, rhs: Sequence[Scalar], eps: float = DEFAULT_EPS) -> bool:
    """Whether m . x = rhs has a solution: the rhs column is not a pivot.

    Pivot choice in the columns of m never reads the rhs column, so one
    elimination of the augmented matrix decides it.  Scaling a column or
    the whole matrix moves no pivot, so the kernel takes the numerators
    of m and of rhs.  A float in rhs makes the system a float one, on m's
    float entries, as in :meth:`Mat4.apply`.
    """
    if len(rhs) != 4:
        raise ValueError("linear_system_consistent requires 4 right-hand entries")
    (e, d), (rhs, _) = _common((m._e, m._d), _ratio(_admit(rhs, "right-hand entry")))
    rows = [list(e[i : i + 4]) + [v] for i, v in zip((0, 4, 8, 12), rhs)]
    return 4 not in _eliminate(rows, d, eps, False)[0]
