"""Closed-form spectra, determinants and S-rank cases, the Fraction product, inverse, powers and elimination, family matrices and the 2x2 matrix model, used as test oracles.

The library decides ranks and determinants of ``t_matrix`` and
``s_matrix`` by elimination; the closed forms below are independent
derivations that the tests compare against it.  The library eliminates
exact matrices fraction-free on integer numerators; the Gauss-Jordan
elimination over Fractions below is the rational path it replaced, and
the tests require bit-equal results from both;
``rank_factor_mp_inverse`` is the matrix pseudoinverse on row lists,
whose float bits the library's flat products must keep.  Likewise the
library multiplies exact quaternions on integer numerators over one
denominator; ``coeff_product``, run on the Fractions (or floats)
themselves, is the body it replaced, and ``quat_mp_inverse`` is the
same for the quaternion Moore-Penrose inverse, ``coeff_forms`` for the
three quadratic forms, ``xa_bx_rank2_terms``/``xa_bx_rank3_terms`` for
the closed-form families of ``solve_xa_bx``, ``consimilar_verdict``
for ``is_consimilar`` (its fallback witness the largest-form of three
SplitQuaternions), and ``axb_outcome``, ``ax0_terms``,
``axd_outcome`` and ``xad_outcome`` for the quaternion chains of the
four lightlike solvers.  ``square_and_multiply_power``,
``projector_pair`` and ``canonical_target`` are the quaternion-level
bodies of ``power``, ``projectors`` and ``canonical_form``'s target
that the numerator bodies replaced.  ``xa_bx_rank2_image`` and ``xa_bx_rank3_image``
derive the images of those families in the 2x2 model alone.  A
solution family's linear matrix and values are rebuilt from its terms
by quaternion products, and ``rows_apply`` is the row-by-row
matrix-vector product that ``Mat4.apply`` replaced.  :class:`M2` is the
isomorphism onto the 2x2 real matrices, which shares no code with the
library's 4x4 machinery.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import List, Optional, Tuple

from splitquat import Mat4, NotInvertibleError, SplitQuaternion, mp_inverse
from splitquat.matrices import _eliminate, _mat
from splitquat.scalars import (
    DEFAULT_EPS,
    Scalar,
    scalar_is_zero,
)

Complexish = Tuple[Scalar, Scalar]  # (real, imaginary) parts


def exact_sqrt(x: Fraction) -> Optional[Fraction]:
    """Rational square root of a nonnegative Fraction, or None."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def scalar_sqrt(x: Scalar) -> Scalar:
    """Square root of a nonnegative scalar, exact whenever possible."""
    if isinstance(x, float):
        return math.sqrt(x)
    root = exact_sqrt(x)
    return root if root is not None else math.sqrt(x)


def _sqrt_signed(x: Scalar) -> Complexish:
    """Square root of a scalar as a (re, im) pair; im > 0 when x < 0."""
    if x < 0:
        root = scalar_sqrt(-x)
        zero: Scalar = 0.0 if isinstance(root, float) else Fraction(0)
        return (zero, root)
    root = scalar_sqrt(x)
    zero = 0.0 if isinstance(root, float) else Fraction(0)
    return (root, zero)


class SRankCase(enum.Enum):
    """Degeneration taxonomy for s_matrix."""

    NONSINGULAR = "nonsingular"
    ZERO = "zero"  # a = b = 0
    RANK1 = "rank1"  # conj(a) + b = 0, a != 0
    RANK2 = "rank2"  # b*a = 0, conj(a)+b != 0: a, b lightlike or zero
    RANK3A = "rank3a"  # equal quadratic forms, conj(a)+b non-lightlike
    RANK3B = "rank3b"  # equal quadratic forms, conj(a)+b nonzero lightlike, b*a != 0
    RANK3C = "rank3c"  # distinct quadratic forms, conj(a)+b nonzero lightlike

    @property
    def rank(self) -> int:
        return _S_RANKS[self.value]


_S_RANKS = {"nonsingular": 4, "zero": 0, "rank1": 1, "rank2": 2, "rank3a": 3, "rank3b": 3, "rank3c": 3}


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
    forms_equal = scalar_is_zero(a.quadratic_form - b.quadratic_form, eps)
    w_lightlike = scalar_is_zero(w.quadratic_form, eps)
    if forms_equal:
        if w.is_zero(eps):
            return SRankCase.ZERO if a.is_zero(eps) else SRankCase.RANK1
        if not w_lightlike:
            return SRankCase.RANK3A
        if (b * a).is_zero(eps):
            return SRankCase.RANK2
        return SRankCase.RANK3B
    if w_lightlike:
        return SRankCase.RANK3C
    return SRankCase.NONSINGULAR


# ----------------------------------------------------------------------
# the quaternion product, coefficient by coefficient
# ----------------------------------------------------------------------


def coeff_product(p: SplitQuaternion, q: SplitQuaternion) -> Tuple[Scalar, ...]:
    """Coefficients of p*q, each one sum of four products of coefficients."""
    return (
        p.q0 * q.q0 - p.q1 * q.q1 + p.q2 * q.q2 + p.q3 * q.q3,
        p.q0 * q.q1 + p.q1 * q.q0 - p.q2 * q.q3 + p.q3 * q.q2,
        p.q0 * q.q2 + p.q2 * q.q0 - p.q1 * q.q3 + p.q3 * q.q1,
        p.q0 * q.q3 + p.q3 * q.q0 + p.q1 * q.q2 - p.q2 * q.q1,
    )


def quat_mp_inverse(a: SplitQuaternion, eps: float = DEFAULT_EPS) -> SplitQuaternion:
    """0, conj(a)/I(a), or prime(a)/(4*(a0^2 + a1^2)) for a zero divisor, on the coefficients."""
    if a.is_zero(eps):
        return SplitQuaternion(0, 0, 0, 0)
    form = a.quadratic_form
    if scalar_is_zero(form, eps):
        return a.prime() / (4 * (a.q0 * a.q0 + a.q1 * a.q1))
    return a.conjugate() / form


# ----------------------------------------------------------------------
# forms, the solve_xa_bx terms and consimilarity, on the coefficients
# ----------------------------------------------------------------------


def coeff_forms(q: SplitQuaternion) -> Tuple[Scalar, Scalar, Scalar]:
    """(quadratic_form, im_squared, im_norm_sq), each a sum of products of coefficients."""
    return (
        q.q0 * q.q0 + q.q1 * q.q1 - q.q2 * q.q2 - q.q3 * q.q3,
        -q.q1 * q.q1 + q.q2 * q.q2 + q.q3 * q.q3,
        q.q1 * q.q1 + q.q2 * q.q2 + q.q3 * q.q3,
    )


def _times(p: SplitQuaternion, q: SplitQuaternion) -> SplitQuaternion:
    return SplitQuaternion(*coeff_product(p, q))


def xa_bx_rank2_terms(a: SplitQuaternion, b: SplitQuaternion) -> tuple:
    """Terms of the rank-2 family of x*a = b*x: A = im(a), B = im(b), d = 2(|A|^2 + |B|^2)."""
    one = SplitQuaternion(1, 0, 0, 0)
    a, b = a.im, b.im
    d = 2 * (coeff_forms(a)[2] + coeff_forms(b)[2])
    ap, bp = a.prime(), b.prime()
    return (
        (one, one),
        (-(one / d), _times(a, ap)),
        (b / d, ap),
        (bp / d, a),
        (-_times(bp, b) / d, one),
    )


def xa_bx_rank3_terms(a: SplitQuaternion, b: SplitQuaternion) -> tuple:
    """Terms (1, m*a), (-conj(b), m) with m = 1 - (p2/conj(p1))*j, p = (Ib - Ia) + 2(a0 - b0)*a."""
    one, j = SplitQuaternion(1, 0, 0, 0), SplitQuaternion(0, 0, 1, 0)
    p = (coeff_forms(b)[0] - coeff_forms(a)[0]) + 2 * (a.q0 - b.q0) * a
    p1_conj = SplitQuaternion(p.q0, -p.q1, 0, 0)
    p2 = SplitQuaternion(p.q2, p.q3, 0, 0)
    p1_conj_inverse = p1_conj.conjugate() / coeff_forms(p1_conj)[0]
    m = one - _times(_times(p2, p1_conj_inverse), j)
    return ((one, _times(m, a)), (-b.conjugate(), m))


# ----------------------------------------------------------------------
# the lightlike solvers as quaternion chains: (constant, terms) of a
# solvable equation with None, or None with the certificate
# ----------------------------------------------------------------------

_ONE = SplitQuaternion(1, 0, 0, 0)


def axb_outcome(a: SplitQuaternion, b: SplitQuaternion, d: SplitQuaternion, eps: float = DEFAULT_EPS):
    """a*x*b = d: solvable iff a*a+*d*b+*b = d; constant a+*d*b+, terms (1, 1), (-a+*a, b*b+)."""
    pa, pb = quat_mp_inverse(a, eps), quat_mp_inverse(b, eps)
    projected = _times(_times(_times(_times(a, pa), d), pb), b)
    if not projected.isclose(d, eps):
        return None, projected - d
    return (_times(_times(pa, d), pb), ((_ONE, _ONE), (-_times(pa, a), _times(b, pb)))), None


def ax0_terms(a: SplitQuaternion, eps: float = DEFAULT_EPS) -> tuple:
    """The one term (1 - a+*a, 1) of a*x = 0."""
    return ((_ONE - _times(quat_mp_inverse(a, eps), a), _ONE),)


def axd_outcome(a: SplitQuaternion, d: SplitQuaternion, eps: float = DEFAULT_EPS):
    """a*x = d: solvable iff a*a+*d = d; constant a+*d, term (1 - a+*a, 1)."""
    pa = quat_mp_inverse(a, eps)
    projected = _times(_times(a, pa), d)
    if not projected.isclose(d, eps):
        return None, projected - d
    return (_times(pa, d), ax0_terms(a, eps)), None


def xad_outcome(a: SplitQuaternion, d: SplitQuaternion, eps: float = DEFAULT_EPS):
    """x*a = d: solvable iff d*a+*a = d; constant d*a+, term (1, 1 - a*a+)."""
    pa = quat_mp_inverse(a, eps)
    projected = _times(_times(d, pa), a)
    if not projected.isclose(d, eps):
        return None, projected - d
    return (_times(d, pa), ((_ONE, _ONE - _times(a, pa)),)), None


def consimilar_verdict(a: SplitQuaternion, b: SplitQuaternion, eps: float = DEFAULT_EPS):
    """(verdict, witness) of x*a = b*conj(x): w = conj(a)+b, or the fallback list when w = 0."""
    w = a.conjugate() + b
    if w.is_zero(eps):
        candidates = (
            SplitQuaternion(0, a.q3, 0, a.q1),
            SplitQuaternion(0, a.q2, a.q1, 0),
            SplitQuaternion(a.q1, a.q0, 0, 0),
        )
        return True, max(candidates, key=lambda x: abs(coeff_forms(x)[0]))
    forms_equal = scalar_is_zero(coeff_forms(a)[0] - coeff_forms(b)[0], eps)
    if forms_equal and not scalar_is_zero(coeff_forms(w)[0], eps):
        return True, w
    return False, None


# ----------------------------------------------------------------------
# power, projectors and the canonical target, as quaternion expressions
# ----------------------------------------------------------------------


def square_and_multiply_power(q: SplitQuaternion, n: int, eps: float = DEFAULT_EPS) -> SplitQuaternion:
    """q**n: (2*q0)**(n-1) * q for a zero divisor, square-and-multiply of quaternions otherwise."""
    if q.is_lightlike(eps):
        return ((2 * q.q0) ** (n - 1)) * q
    result = _ONE
    base = q
    e = n
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def projector_pair(a: SplitQuaternion, eps: float = DEFAULT_EPS) -> tuple:
    """(a*a+, a+*a) for a nonzero zero divisor a, as two quaternion products."""
    p = mp_inverse(a, eps)
    return (a * p, p * a)


def canonical_target(a: SplitQuaternion, eps: float = DEFAULT_EPS) -> tuple:
    """(target, a, exact) of canonical_form, the target built from Fractions; a as floats if escalated."""
    k = a.im_squared
    exact = a.is_exact
    if scalar_is_zero(k, eps):
        return SplitQuaternion(a.q0, 1, 1, 0), a, exact
    if exact and exact_sqrt(abs(k)) is None:
        a, k, exact = a.to_float(), float(k), False  # a0 and k rounded once from their exact values
    root = scalar_sqrt(abs(k))
    if k > 0:
        return SplitQuaternion(a.q0, 0, root, 0), a, exact
    return SplitQuaternion(a.q0, root, 0, 0), a, exact


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


def rank_factor_mp_inverse(m: Mat4, eps: float = DEFAULT_EPS) -> Mat4:
    """E^T (B^T m E^T)^-1 B^T on row lists by ``_matmul``, with E the reduced echelon rows of m.

    The body of ``mat_mp_inverse`` before its products ran on padded flat
    numerators: float and mixed results must equal it bit for bit, exact
    ones by reduced numerators.
    """
    a = m._lists()
    echelon = m._lists()
    pivots = _eliminate(echelon, m._d, eps, True)[0]
    r = len(pivots)
    if r == 0:
        return _mat((0 * m._d,) * 16, m._d)
    if r == 4:
        block = a
    else:
        bt = [[row[p] for row in a] for p in pivots]
        et = list(zip(*echelon[:r]))
        block = _matmul(bt, _matmul(a, et))
    d, zero = m._d, 0 * m._d
    augmented = [row + [d if i == j else zero for j in range(r)] for i, row in enumerate(block)]
    pivots, scale = _eliminate(augmented, d, 0.0, True)
    if pivots != list(range(r)):
        raise NotInvertibleError("matrix is singular")
    x = [row[r:] for row in augmented]
    if r < 4:
        x = _matmul(_matmul(et, x), bt)
    return _mat(tuple(v for row in x for v in row), scale)


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


# ----------------------------------------------------------------------
# the regular representations and a family's linear matrix, on row lists
# ----------------------------------------------------------------------

_UNITS = tuple(SplitQuaternion(*(int(i == t) for i in range(4))) for t in range(4))

#: Conjugation sign matrix: conj(x).coeffs = F_MATRIX . x.coeffs.
F_MATRIX = Mat4.diagonal((1, -1, -1, -1))


def left_rows(q: SplitQuaternion) -> Rows:
    """Matrix of x -> q*x: column t is q times the t-th unit."""
    return _transpose([(q * e).coeffs for e in _UNITS])


def right_rows(q: SplitQuaternion) -> Rows:
    """Matrix of x -> x*q: column t is the t-th unit times q."""
    return _transpose([(e * q).coeffs for e in _UNITS])


def family_rows(terms) -> Rows:
    """sum_k L(left_k) R(right_k), entry by entry over the terms' own scalars."""
    total = [[0] * 4 for _ in range(4)]
    for left, right in terms:
        product = _matmul(left_rows(left), right_rows(right))
        total = [[x + y for x, y in zip(u, v)] for u, v in zip(total, product)]
    return total


def rows_apply(rows, v) -> tuple:
    """m . v one row at a time: the rows-based body Mat4.apply had before its integer path."""
    return tuple(sum(a * x for a, x in zip(row, v)) for row in rows)


def term_at(constant: SplitQuaternion, terms, y: SplitQuaternion) -> SplitQuaternion:
    """constant + sum_k left_k * y * right_k, two quaternion products per term."""
    x = constant
    for left, right in terms:
        x = x + left * y * right
    return x


# ----------------------------------------------------------------------
# the 2x2 real matrix model
# ----------------------------------------------------------------------


class M2:
    """A 2x2 matrix [[a, b], [c, d]]; phi maps split quaternions onto these."""

    def __init__(self, a, b, c, d):
        self.entries = (a, b, c, d)

    @classmethod
    def phi(cls, q: SplitQuaternion) -> "M2":
        """phi(q) = [[q0+q2, q3-q1], [q1+q3, q0-q2]]."""
        return cls(q.q0 + q.q2, q.q3 - q.q1, q.q1 + q.q3, q.q0 - q.q2)

    @classmethod
    def columns(cls, v, w) -> "M2":
        """The matrix [v, w] with column vectors v and w."""
        return cls(v[0], w[0], v[1], w[1])

    def phi_inverse(self) -> SplitQuaternion:
        a, b, c, d = self.entries
        return SplitQuaternion((a + d) / 2, (c - b) / 2, (a - d) / 2, (b + c) / 2)

    def __add__(self, other: "M2") -> "M2":
        return M2(*(x + y for x, y in zip(self.entries, other.entries)))

    def __sub__(self, other: "M2") -> "M2":
        return M2(*(x - y for x, y in zip(self.entries, other.entries)))

    def __matmul__(self, other: "M2") -> "M2":
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return M2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def apply(self, v):
        a, b, c, d = self.entries
        return (a * v[0] + b * v[1], c * v[0] + d * v[1])

    def __eq__(self, other) -> bool:
        return isinstance(other, M2) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"M2{self.entries}"

    def det(self):
        a, b, c, d = self.entries
        return a * d - b * c

    def trace(self):
        return self.entries[0] + self.entries[3]

    def adj(self) -> "M2":
        a, b, c, d = self.entries
        return M2(d, -b, -c, a)

    def transpose(self) -> "M2":
        a, b, c, d = self.entries
        return M2(a, c, b, d)

    def minus_scalar(self, s) -> "M2":
        a, b, c, d = self.entries
        return M2(a - s, b, c, d - s)

    def divide(self, s) -> "M2":
        return M2(*(x / s for x in self.entries))

    def rank(self) -> int:
        if self.det() != 0:
            return 2
        return 1 if any(x != 0 for x in self.entries) else 0

    def mp_inverse(self) -> "M2":
        """Penrose's inverse: A^-1 at rank 2, A^T / ||A||_F^2 at rank 1, 0 at rank 0."""
        rank = self.rank()
        if rank == 2:
            return self.adj().divide(self.det())
        if rank == 1:
            return self.transpose().divide(sum(x * x for x in self.entries))
        return self


def xa_bx_rank2_image(a: SplitQuaternion, b: SplitQuaternion) -> List[SplitQuaternion]:
    """(w, w*a), w the cyclic witness: both solve x*a = b*x for similar non-real a and b."""
    w = cyclic_witness(a, b)
    return [w, (M2.phi(w) @ M2.phi(a)).phi_inverse()]


def xa_bx_rank3_image(a: SplitQuaternion, b: SplitQuaternion) -> SplitQuaternion:
    """phi^-1(u v^T) for X A = B X, with lam = (det A - det B)/(tr A - tr B) shared by A and B.

    u is a nonzero column of adj(B - lam), so B u = lam u, and v^T a
    nonzero row of adj(A - lam), so v^T A = lam v^T.
    """
    p, q = M2.phi(a), M2.phi(b)
    lam = (p.det() - q.det()) / (p.trace() - q.trace())
    bu, av = q.minus_scalar(lam).adj(), p.minus_scalar(lam).adj()
    u = next(c for c in ((bu.entries[0], bu.entries[2]), (bu.entries[1], bu.entries[3])) if any(c))
    v = next(r for r in (av.entries[:2], av.entries[2:]) if any(r))
    return M2(u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1]).phi_inverse()


def cyclic_basis(x: SplitQuaternion, whole: bool = False) -> M2:
    """[v, phi(im x) v] for the first v among e1, e2, e1+e2 with the largest |det|.

    With ``whole`` the basis is [v, phi(x) v] = [v, phi(im x) v] [[1, x0], [0, 1]]:
    the same det for each v, so the same v.
    """
    m = M2.phi(x) if whole else M2(x.q2, x.q3 - x.q1, x.q1 + x.q3, -x.q2)
    bases = [M2.columns(v, m.apply(v)) for v in ((1, 0), (0, 1), (1, 1))]
    return max(bases, key=lambda p: abs(p.det()))


def cyclic_witness(a: SplitQuaternion, b: SplitQuaternion, whole: bool = False) -> SplitQuaternion:
    """phi^-1(P_B P_A^-1): conjugates a to b when both are non-real and similar.

    With equal real parts the factor [[1, x0], [0, 1]] of ``whole`` bases
    cancels in P_B P_A^-1, so exact witnesses do not depend on ``whole``.
    """
    p_a, p_b = cyclic_basis(a, whole), cyclic_basis(b, whole)
    return (p_b @ p_a.adj()).divide(p_a.det()).phi_inverse()
