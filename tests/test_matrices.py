import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitquat import (
    I,
    J,
    K,
    Mat4,
    NonFiniteError,
    NotInvertibleError,
    ONE,
    SplitQuaternion,
    ZERO,
    left_matrix,
    linear_system_consistent,
    mat_mp_inverse,
    mp_inverse,
    nullspace_basis,
    parse_quat,
    right_matrix,
    s_matrix,
    solve_xa_bx,
    t_matrix,
)
from splitquat.solvers import SolutionFamily

from conftest import lightlike_quats, quats, rand_fraction, rand_quat
from oracles import (
    SRankCase,
    fraction_mp_inverse,
    rank_factor_mp_inverse,
    rows_apply,
    s_det,
    s_eigenvalues,
    s_rank_case,
    t_det,
    t_eigenvalues,
)


def det_by_permutation_expansion(m: Mat4):
    """Independent determinant oracle: signed sum over all permutations."""
    total = Fraction(0)
    for perm in itertools.permutations(range(4)):
        sign = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(4):
            term = term * m.rows[i][perm[i]]
        total += term
    return total


class TestRepresentations:
    def test_left_of_one_is_identity(self):
        assert left_matrix(ONE) == Mat4.identity()
        assert right_matrix(ONE) == Mat4.identity()
        assert (Mat4.identity() == 3) is False

    def test_left_of_i_first_column(self):
        col = [row[0] for row in left_matrix(I).rows]
        assert col == [0, 1, 0, 0]

    @given(quats, quats)
    @settings(max_examples=100)
    def test_vec_identities(self, q, x):
        assert left_matrix(q).apply(x.coeffs) == (q * x).coeffs
        assert right_matrix(q).apply(x.coeffs) == (x * q).coeffs

    @given(quats, quats)
    @settings(max_examples=100)
    def test_homomorphism_laws(self, p, q):
        assert left_matrix(p * q) == left_matrix(p) @ left_matrix(q)
        assert right_matrix(p * q) == right_matrix(q) @ right_matrix(p)
        assert left_matrix(p) @ right_matrix(q) == right_matrix(q) @ left_matrix(p)
        assert left_matrix(p + q) == left_matrix(p) + left_matrix(q)
        assert right_matrix(-p) == -right_matrix(p)


class TestTMatrix:
    def test_kernel_contains_one_when_equal(self):
        rng = random.Random(3)
        for _ in range(20):
            a = rand_quat(rng)
            assert t_matrix(a, a).apply(ONE.coeffs) == (0, 0, 0, 0)

    def test_reference_singular_pair(self):
        a, b = parse_quat("1+5i+5j+2k"), parse_quat("2+i+j+3k")
        m = t_matrix(a, b)
        assert m.det() == 0
        assert m.rank() == 3
        eigs = sorted(float(re) for re, im in t_eigenvalues(a, b))
        assert eigs == [-6.0, -2.0, 0.0, 4.0]
        assert all(im == 0 for _, im in t_eigenvalues(a, b))

    def test_reference_rank_two_pair(self):
        a, b = parse_quat("1+3i+2j+k"), parse_quat("1+3i+j+2k")
        assert t_matrix(a, b).rank() == 2
        assert solve_xa_bx(a, b).dimension == 2
        assert len(nullspace_basis(t_matrix(a, b))) == 2

    def test_reference_rank_three_pair(self):
        a, b = parse_quat("2+i+k"), parse_quat("1+k")
        assert a.im_squared == 0 and b.im_squared == 1
        assert t_matrix(a, b).rank() == 3
        assert solve_xa_bx(a, b).dimension == 1

    def test_nonsingular_pair(self):
        assert solve_xa_bx(I, J).dimension == 0
        assert t_matrix(I, J).rank() == 4

    @given(quats, quats)
    @settings(max_examples=100)
    def test_closed_form_det(self, a, b):
        assert t_det(a, b) == t_matrix(a, b).det()

    @given(quats, quats)
    @settings(max_examples=100)
    def test_eigenvalue_product_is_det(self, a, b):
        prod = complex(1)
        for re, im in t_eigenvalues(a, b):
            prod *= complex(float(re), float(im))
        det = float(t_det(a, b))
        assert abs(prod.imag) <= 1e-6 * (1 + abs(det))
        assert abs(prod.real - det) <= 1e-6 * (1 + abs(det))

    def test_complex_spectrum_when_im_squared_negative(self):
        a = parse_quat("1+3i+2j+k")  # im_squared = -4, so sqrt contributes 2i
        eigs = t_eigenvalues(a, parse_quat("2"))
        assert sorted((float(re), float(im)) for re, im in eigs) == [
            (-1.0, -2.0),
            (-1.0, -2.0),
            (-1.0, 2.0),
            (-1.0, 2.0),
        ]


class TestSMatrix:
    def test_kernel_encodes_conjugate_equation(self):
        rng = random.Random(5)
        for _ in range(30):
            a, b, x = rand_quat(rng), rand_quat(rng), rand_quat(rng)
            lhs = s_matrix(a, b).apply(x.coeffs)
            rhs = (x * a - b * x.conjugate()).coeffs
            assert lhs == rhs

    @pytest.mark.parametrize(
        "b_text,rank,case",
        [
            ("-1+2i+3j+4k", 1, SRankCase.RANK1),
            ("2+i+3j+4k", 3, SRankCase.RANK3A),
            ("-2+i+4j+3k", 3, SRankCase.RANK3B),
            ("2+i+3k", 3, SRankCase.RANK3C),
        ],
    )
    def test_reference_degenerations(self, b_text, rank, case):
        a = parse_quat("1+2i+3j+4k")
        b = parse_quat(b_text)
        assert s_matrix(a, b).rank() == rank
        assert s_rank_case(a, b) == case
        assert case.rank == rank

    def test_rank_cases_match_elimination_on_grid(self):
        """Every pair with coefficients in -2..2, up to two maps that keep both ranks.

        (a, b) -> (-a, -b) negates S, and (a, b) -> (conj b, conj a)
        conjugates x*a = b*conj(x) into x*conj(b) = conj(a)*conj(x), which
        has the same solutions; neither moves the oracle's case.
        """
        seen = set()
        for t in itertools.product(range(-2, 3), repeat=8):
            swapped = (t[4], -t[5], -t[6], -t[7], t[0], -t[1], -t[2], -t[3])
            if t < max(swapped, tuple(-x for x in t), tuple(-x for x in swapped)):
                continue
            a, b = SplitQuaternion(*t[:4]), SplitQuaternion(*t[4:])
            case = s_rank_case(a, b)
            assert case.rank == s_matrix(a, b).rank(), (a, b, case)
            seen.add(case)
        assert seen == set(SRankCase)

    def test_forced_rank1_from_negated_conjugate(self):
        rng = random.Random(9)
        for _ in range(20):
            q = rand_quat(rng)
            assert s_det(q, -q.conjugate()) == 0

    @given(quats, quats)
    @settings(max_examples=100)
    def test_closed_form_det(self, a, b):
        assert s_det(a, b) == s_matrix(a, b).det()

    @given(quats, quats)
    @settings(max_examples=100)
    def test_eigenvalue_product_is_det(self, a, b):
        prod = complex(1)
        for re, im in s_eigenvalues(a, b):
            prod *= complex(float(re), float(im))
        det = float(s_det(a, b))
        assert abs(prod.imag) <= 1e-6 * (1 + abs(det))
        assert abs(prod.real - det) <= 1e-6 * (1 + abs(det))


def _bits(v):
    """A float vector as its exact bit patterns, signed zeros included."""
    assert all(type(x) is float for x in v)
    return [x.hex() for x in v]


class TestApply:
    """Mat4.apply against the rows-based product it replaced (oracles.rows_apply)."""

    @staticmethod
    def _draws(rng):
        for _ in range(300):
            exact = Mat4([[rand_fraction(rng) for _ in range(4)] for _ in range(4)])
            floats = Mat4([[rng.uniform(-9, 9) for _ in range(4)] for _ in range(4)])
            v = tuple(rand_fraction(rng) for _ in range(4))
            w = tuple(rng.choice((rng.uniform(-9, 9), 0.0, -0.0, 1 / 3)) for _ in range(4))
            yield exact, floats, v, w

    def test_exact_times_exact_is_equal(self):
        for m, _, v, _ in self._draws(random.Random(31)):
            result = m.apply(v)
            assert result == rows_apply(m.rows, v)
            assert all(type(x) is Fraction for x in result)

    def test_float_products_are_bit_identical(self):
        for exact, floats, v, w in self._draws(random.Random(32)):
            for m, u in ((floats, w), (exact, w), (floats, v)):
                assert _bits(m.apply(u)) == _bits(rows_apply(m.rows, u))

    def test_int_entries_and_zero_rows(self):
        m = Mat4([[1, 2, 0, 0], [0, 0, 0, 0], [3, 0, 1, 0], [0, 0, 0, 5]])
        assert m.apply((1, 2, 3, 4)) == rows_apply(m.rows, (1, 2, 3, 4)) == (5, 0, 6, 20)
        assert _bits(m.apply((1.5, 0, 0, 0.25))) == _bits(rows_apply(m.rows, (1.5, 0, 0, 0.25)))

    def test_float_sums_add_in_the_written_order(self):
        # left to right from 0 on every interpreter: ((1e16 + 1) - 1e16) + 1 is 1.0,
        # where the compensated sum() of Python 3.12 and later gives 2.0
        row = (1e16, 1.0, -1e16, 1.0)
        assert Mat4([row, [0] * 4, [0] * 4, [0] * 4]).apply((1.0,) * 4)[0] == 1.0
        # L(l) has the row (l0, -l1, l2, l3), so the family's matrix has it too
        family = SolutionFamily(ZERO.to_float(), ((SplitQuaternion(1e16, -1.0, -1e16, 1.0), ONE.to_float()),))
        assert family.linear_matrix.rows[0] == row
        assert family.at(SplitQuaternion(1.0, 1.0, 1.0, 1.0)).q0 == 1.0

    @pytest.mark.parametrize("v", [(), (1, 2, 3), (1, 2, 3, 4, 5), (1.0, 2.0, 3.0)])
    def test_vectors_of_other_lengths_are_rejected(self, v):
        for m in (Mat4.identity(), Mat4.zero(), Mat4.diagonal((1.0, 2.0, 3.0, 4.0))):
            with pytest.raises(ValueError, match="4 entries"):
                m.apply(v)
            with pytest.raises(ValueError, match="4 right-hand entries"):
                linear_system_consistent(m, v)


class TestElimination:
    @given(quats, quats)
    @settings(max_examples=60)
    def test_det_against_permutation_oracle(self, a, b):
        m = t_matrix(a, b)
        assert m.det() == det_by_permutation_expansion(m)

    def test_rank_of_identity_and_zero(self):
        assert Mat4.identity().rank() == 4
        assert Mat4.zero().rank() == 0
        assert nullspace_basis(Mat4.identity()) == []
        assert len(nullspace_basis(Mat4.zero())) == 4

    @given(lightlike_quats())
    @settings(max_examples=60)
    def test_nullspace_members_annihilate(self, a):
        m = left_matrix(a)
        basis = nullspace_basis(m)
        assert len(basis) == 4 - m.rank()
        for v in basis:
            assert m.apply(v) == (0, 0, 0, 0)

    def test_consistency_probe(self):
        a = ONE + J
        m = left_matrix(a)
        assert linear_system_consistent(m, a.coeffs)  # a*x = a has x = 1
        assert not linear_system_consistent(m, ONE.coeffs)  # a*x = 1 does not


def random_matrix_of_rank(rng: random.Random, r: int) -> Mat4:
    while True:
        left = [[Fraction(rng.randint(-4, 4)) for _ in range(r)] for _ in range(4)]
        right = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(r)]
        rows = tuple(
            tuple(sum(left[i][t] * right[t][j] for t in range(r)) for j in range(4))
            for i in range(4)
        )
        m = Mat4(rows) if r else Mat4.zero()
        if m.rank() == r:
            return m


#: Float pseudoinverse of a rank-4 binary-exact matrix against the exact
#: one, relative to the largest exact entry.  Partial pivoting gives at
#: most 7.4e-13 on these draws and the reproducer; through the Gram
#: matrices it gave up to 2.4e-8.
FULL_RANK_BOUND = 1e-11


def _dyadic64(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-64, 64), 2 ** rng.randint(0, 4))


def _relative_gap(x: Mat4, exact: Mat4) -> float:
    scale = max(abs(v) for row in exact.rows for v in row)
    gap = max(abs(Fraction(u) - v) for ru, rv in zip(x.rows, exact.rows) for u, v in zip(ru, rv))
    return float(gap / scale)


def _dyadic_of_rank(rng: random.Random, r: int) -> Mat4:
    """An exact rank-r matrix that floats hold exactly: dyadic, or a product of dyadic factors."""
    while True:
        if r == 4:
            rows = [[_dyadic64(rng) for _ in range(4)] for _ in range(4)]
        else:
            left = [[_dyadic64(rng) for _ in range(r)] for _ in range(4)]
            right = [[_dyadic64(rng) for _ in range(4)] for _ in range(r)]
            rows = [
                [sum((row[t] * right[t][j] for t in range(r)), Fraction(0)) for j in range(4)]
                for row in left
            ]
        m = Mat4(rows)
        if m.rank() == r:
            return m


def _float_copy(m: Mat4) -> Mat4:
    return Mat4([[float(v) for v in row] for row in m.rows])


class TestFloatKernel:
    """Float rank, determinant and pseudoinverse against the exact ones on the same matrices."""

    @pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
    def test_det_against_exact(self, r):
        rng = random.Random(120 + r)
        for _ in range(200 if r == 4 else 40):
            m = _dyadic_of_rank(rng, r)
            det = _float_copy(m).det()
            assert type(det) is float
            if r < 4:
                assert det == 0.0 and m.det() == 0
            else:
                assert abs(Fraction(det) - m.det()) <= 1e-12 * abs(m.det())

    @pytest.mark.parametrize("eps", [1e-9, 1e-6])
    def test_det_is_zero_exactly_when_rank_is_deficient(self, eps):
        # a rank-3 matrix moved off singular by a few eps in one entry:
        # its last pivot lands on either side of eps
        rng = random.Random(125)
        seen = set()
        for _ in range(200):
            rows = [list(row) for row in _float_copy(_dyadic_of_rank(rng, 3)).rows]
            shift = rng.choice((-1, 1)) * rng.uniform(0.25, 4) * eps
            rows[rng.randrange(4)][rng.randrange(4)] += shift
            m = Mat4(rows)
            deficient = m.rank(eps) < 4
            assert (m.det(eps) == 0) == deficient
            seen.add(deficient)
        assert seen == {False, True}

    #: Float pseudoinverse against the exact one, relative to the largest
    #: exact entry, by rank.  Below full rank the r x r block B^T m E^T
    #: squares the condition number; these draws give at most 3.5e-16,
    #: 2.0e-11 and 4.1e-10.
    LOWER_RANK_BOUND = {1: 1e-14, 2: 1e-9, 3: 1e-8}

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_lower_rank_float_inverse_against_exact(self, r):
        rng = random.Random(1)
        worst = 0.0
        for _ in range(150):
            m = _dyadic_of_rank(rng, r)
            x = mat_mp_inverse(_float_copy(m))
            worst = max(worst, _relative_gap(x, mat_mp_inverse(m)))
        assert 0 < worst <= self.LOWER_RANK_BOUND[r]

    def test_non_finite_entries_are_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(NonFiniteError):
                Mat4([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, bad, 0], [0, 0, 0, 1]])
        assert Mat4.diagonal((1.0, 2.0, 3.0, 4.0)).det() == 24.0
        with pytest.raises(ValueError, match="4 rows of 4 entries"):
            Mat4([[1.0, 0, 0, 0]] * 3)

    @pytest.mark.parametrize("entries", [(1, 2, 3), (1, 2, 3, 4, 5), (1.0, 2.0, 3.0), ()])
    def test_diagonal_requires_four_entries(self, entries):
        with pytest.raises(ValueError, match="4 entries"):
            Mat4.diagonal(entries)


def _rank_pairs(num):
    """Pairs (a, b) of coefficients num() whose L, R, L R, T and S take every rank from 0 to 4 between them."""
    a, b = (SplitQuaternion(*(num() for _ in range(4))) for _ in range(2))
    x, y, s, u = num(), num(), num(), num()
    light = SplitQuaternion(x, y, x, -y)
    yield ZERO, ZERO
    yield a, b
    yield light, b
    yield light, SplitQuaternion(s, u, u, s)  # L R of rank 1
    yield a, a  # T of rank 2
    yield a, -a.conjugate()  # S of rank 1
    yield ZERO, light  # S of rank 2
    yield x + s * J, x + s - u + u * J  # T of rank 3: a0 + s = b0 + u
    yield a, I * a * -I  # S of rank 3


def _five(a, b):
    return left_matrix(a), right_matrix(a), left_matrix(a) @ right_matrix(b), t_matrix(a, b), s_matrix(a, b)


def _inverse_bits(inverse, m: Mat4):
    """inverse(m) as reduced numerators if exact or the repr of each entry if float, or the error it raised."""
    try:
        x = inverse(m)
    except NotInvertibleError:
        return "NotInvertibleError"
    return (x._e, x._d) if x.is_exact else [repr(v) for row in x.rows for v in row]


@st.composite
def _factored_rows(draw):
    """Rows of F H, rational F of 4 x r and H of r x 4 with numerators of up to 40 digits.

    The entries of both factors share one denominator, or each has its own.
    """
    r = draw(st.integers(0, 4))
    nums = st.integers(-9, 9) | st.integers(-(10**40), 10**40)
    dens = st.integers(1, 9) | st.integers(1, 10**40)
    shared = draw(dens) if draw(st.booleans()) else None

    def entry():
        return Fraction(draw(nums), shared or draw(dens))

    left = [[entry() for _ in range(r)] for _ in range(4)]
    right = [[entry() for _ in range(4)] for _ in range(r)]
    return [[sum((row[t] * right[t][j] for t in range(r)), Fraction(0)) for j in range(4)] for row in left]


def _lines_run(fn, *args):
    """The line numbers of fn's body that one call fn(*args) runs."""
    lines = set()

    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is fn.__code__ else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return lines


class TestMatrixPseudoInverse:
    def test_identity_and_zero(self):
        assert mat_mp_inverse(Mat4.identity()) == Mat4.identity()
        # the zero matrix maps to the zero matrix of its backend
        for m in (Mat4.zero(), Mat4.diagonal((0.0,) * 4)):
            x = mat_mp_inverse(m)
            assert x == Mat4.zero() and x.is_exact == m.is_exact

    def test_left_matrix_of_zero_divisor(self):
        m = left_matrix(ONE + J)
        assert mat_mp_inverse(m) == left_matrix((ONE + J) / 4)

    @pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
    def test_penrose_equations_all_ranks(self, r):
        rng = random.Random(100 + r)
        for _ in range(20):
            m = random_matrix_of_rank(rng, r)
            x = mat_mp_inverse(m)
            assert m @ x @ m == m
            assert x @ m @ x == x
            assert (m @ x).is_symmetric()
            assert (x @ m).is_symmetric()

    def test_inverse_case(self):
        q = parse_quat("1+3i+2j+k")
        m = left_matrix(q)
        assert mat_mp_inverse(m) @ m == Mat4.identity()

    def test_full_rank_float_inverse_has_no_gram_matrix(self):
        # a float-mixed item at scale 2^1: through the Gram matrices the
        # inverse was 4.5e-8 off L(a+) R(b+), above eps
        a = parse_quat("6-58i-51.5j+26k", backend="approx")
        b = parse_quat("-3+34i+29.25j-16.75k", backend="approx")
        x = mat_mp_inverse(left_matrix(a) @ right_matrix(b))
        assert x.isclose(left_matrix(mp_inverse(a)) @ right_matrix(mp_inverse(b)), 1e-11)
        exact = mat_mp_inverse(left_matrix(a.to_exact()) @ right_matrix(b.to_exact()))
        assert _relative_gap(x, exact) <= FULL_RANK_BOUND

    def test_full_rank_float_inverse_against_exact(self):
        # binary-exact invertible L(a) R(b): the float copy is the same matrix
        rng = random.Random(107)
        worst, seen = 0.0, 0
        while seen < 200:
            a, b = (SplitQuaternion(*(_dyadic64(rng) for _ in range(4))) for _ in range(2))
            if a.quadratic_form == 0 or b.quadratic_form == 0:
                continue
            seen += 1
            exact = left_matrix(a) @ right_matrix(b)
            approx = left_matrix(a.to_float()) @ right_matrix(b.to_float())
            worst = max(worst, _relative_gap(mat_mp_inverse(approx), mat_mp_inverse(exact)))
        assert 0 < worst <= FULL_RANK_BOUND

    def test_float_inverse_keeps_the_row_list_bits(self):
        # the products run on padded flat numerators: float and mixed results
        # must equal the row-list body bit for bit, signs of zeros included
        rng = random.Random(108)
        ranks = set()
        for _ in range(40):
            for num in (lambda: _dyadic64(rng), lambda: rng.uniform(-2, 2)):
                for a, b in _rank_pairs(num):
                    a, b = a.to_float(), b.to_float()
                    exact_a = a.to_exact()
                    mixed = (left_matrix(exact_a) @ right_matrix(b), t_matrix(exact_a, b), s_matrix(b, exact_a))
                    for m in _five(a, b) + mixed:
                        assert not m.is_exact
                        ranks.add(m.rank())
                        assert _inverse_bits(mat_mp_inverse, m) == _inverse_bits(rank_factor_mp_inverse, m), (a, b)
        assert ranks == {0, 1, 2, 3, 4}

    def test_exact_inverse_against_both_oracles(self):
        rng = random.Random(109)
        ranks = set()
        for _ in range(15):
            for num in (lambda: _dyadic64(rng), lambda: rand_fraction(rng)):
                for a, b in _rank_pairs(num):
                    for m in _five(a, b):
                        ranks.add(m.rank())
                        want = _inverse_bits(rank_factor_mp_inverse, m)
                        assert _inverse_bits(mat_mp_inverse, m) == want, (a, b)
                        oracle = Mat4(fraction_mp_inverse(m.rows))
                        assert (oracle._e, oracle._d) == want, (a, b)
        assert ranks == {0, 1, 2, 3, 4}

    @given(_factored_rows())
    @settings(max_examples=150, deadline=None)
    def test_exact_inverse_of_tall_factored_matrices(self, rows):
        m = Mat4(rows)
        x = mat_mp_inverse(m)
        oracle = Mat4(fraction_mp_inverse(m.rows))
        assert (x._e, x._d) == (oracle._e, oracle._d)
        mx, xm = m @ x, x @ m
        assert mx @ m == m and xm @ x == x
        assert mx == mx.transpose() and xm == xm.transpose()

    def test_every_exact_branch_is_reached(self):
        # the exact body has five paths: the zero matrix, Decell's formula at
        # ranks 1, 2 and 3, and the adjugate at full rank; each rank must take
        # one path of its own, on every matrix of that rank
        rng = random.Random(111)
        paths = {r: set() for r in range(5)}
        for r in range(5):
            for _ in range(6):
                m = random_matrix_of_rank(rng, r)
                paths[r].add(frozenset(_lines_run(mat_mp_inverse, m)))
                assert mat_mp_inverse(m) == Mat4(fraction_mp_inverse(m.rows))
        assert all(len(p) == 1 for p in paths.values()), paths
        assert len(set().union(*paths.values())) == 5

    def test_numerically_singular_float_gram_block_is_a_typed_error(self):
        # float-mixed seed 7: the float Gram block of this rank-3 T matrix
        # eliminates to a zero pivot
        a = SplitQuaternion(131072.0, -10158080.0, -5832704.0, -8323072.0)
        b = SplitQuaternion(131072.0, -13434880.0, -7798784.0, -10944512.0)
        with pytest.raises(NotInvertibleError):
            mat_mp_inverse(t_matrix(a, b))


class TestTermDecomposition:
    def test_products_are_orthogonal_with_norm_four(self):
        basis = (ONE, I, J, K)
        products = [
            [x for row in (left_matrix(p) @ right_matrix(q)).rows for x in row]
            for p in basis
            for q in basis
        ]
        for s, u in enumerate(products):
            for t, v in enumerate(products):
                assert sum(x * y for x, y in zip(u, v)) == (4 if s == t else 0)

    def test_linear_matrix_is_built_once(self):
        family = SolutionFamily(ZERO, ((ONE + J, I), (K, ONE)))
        assert family.linear_matrix is family.linear_matrix
        assert family.dimension == len(family.basis()) == family.linear_matrix.rank()
