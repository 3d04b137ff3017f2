import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from splitquat import (
    I,
    J,
    K,
    Mat4,
    NotInvertibleError,
    ONE,
    SplitQuaternion,
    ZERO,
    left_matrix,
    linear_system_consistent,
    mat_mp_inverse,
    nullspace_basis,
    parse_quat,
    right_matrix,
    s_matrix,
    solve_xa_bx,
    t_matrix,
    vec,
)
from splitquat.solvers import SolutionFamily

from conftest import lightlike_quats, quats, rand_quat
from oracles import SRankCase, s_det, s_eigenvalues, s_rank_case, t_det, t_eigenvalues


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

    def test_left_of_i_first_column(self):
        col = [row[0] for row in left_matrix(I).rows]
        assert col == [0, 1, 0, 0]

    @given(quats, quats)
    @settings(max_examples=100)
    def test_vec_identities(self, q, x):
        assert left_matrix(q).apply(vec(x)) == vec(q * x)
        assert right_matrix(q).apply(vec(x)) == vec(x * q)

    @given(quats, quats)
    @settings(max_examples=100)
    def test_homomorphism_laws(self, p, q):
        assert left_matrix(p * q) == left_matrix(p) @ left_matrix(q)
        assert right_matrix(p * q) == right_matrix(q) @ right_matrix(p)
        assert left_matrix(p) @ right_matrix(q) == right_matrix(q) @ left_matrix(p)


class TestTMatrix:
    def test_kernel_contains_one_when_equal(self):
        rng = random.Random(3)
        for _ in range(20):
            a = rand_quat(rng)
            assert t_matrix(a, a).apply(vec(ONE)) == (0, 0, 0, 0)

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
            lhs = s_matrix(a, b).apply(vec(x))
            rhs = vec(x * a - b * x.conjugate())
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
        assert linear_system_consistent(m, vec(a))  # a*x = a has x = 1
        assert not linear_system_consistent(m, vec(ONE))  # a*x = 1 does not


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


class TestMatrixPseudoInverse:
    def test_identity_and_zero(self):
        assert mat_mp_inverse(Mat4.identity()) == Mat4.identity()
        assert mat_mp_inverse(Mat4.zero()) == Mat4.zero()

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
