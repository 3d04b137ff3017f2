"""Value semantics of the library's immutable classes: equality, hashing, freezing, repr, copies."""

import copy
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from splitquat import (
    CanonicalForm,
    LightlikePolar,
    Mat4,
    NonFiniteError,
    ONE,
    SolutionFamily,
    SolveOutcome,
    SplitQuaternion,
    Verdict,
    ZERO,
    from_polar,
    left_matrix,
    linear_system_consistent,
    mat_mp_inverse,
    nullspace_basis,
    parse_quat,
    solve_ax0,
    solve_axb,
    solve_axd,
    solve_xa_bx,
    solve_xa_bxbar,
    solve_xad,
    t_matrix,
)

from conftest import (
    pairs_in_every_s_case,
    rand_lightlike,
    rand_nonreal,
    rand_quat,
    rand_rank3_pair,
    rand_similar_pair,
)
from oracles import term_at

EXACT = SplitQuaternion(Fraction(1, 2), -3, Fraction(5, 8), 0)
Q = parse_quat("1+j")
QF = Q.to_float()
FAMILY = SolutionFamily(ZERO, ((ONE - Q / 2, ONE),))

#: (value, an equal value built separately, a different value, repr of value)
CASES = [
    (EXACT, SplitQuaternion(Fraction(1, 2), -3, Fraction(5, 8), 0), -EXACT,
     "SplitQuaternion('1/2-3i+5/8j')"),
    (Q, QF, Q.conjugate(), "SplitQuaternion('1+j')"),
    (LightlikePolar(1.0, 0.0, 0.5), LightlikePolar(1.0, 0.0, 0.5), LightlikePolar(1.0, 0.0, 1.5),
     "LightlikePolar(r=1.0, alpha=0.0, beta=0.5)"),
    (Verdict(True, Q), Verdict(True, QF), Verdict(False, None),
     "Verdict(verdict=True, witness=SplitQuaternion('1+j'))"),
    (CanonicalForm(Q, ONE, True), CanonicalForm(QF, ONE, True), CanonicalForm(Q, ONE, False),
     "CanonicalForm(target=SplitQuaternion('1+j'), conjugator=SplitQuaternion('1'), exact=True)"),
    (FAMILY, SolutionFamily(ZERO, ((ONE - QF / 2, ONE),)), SolutionFamily(ZERO, ()),
     "SolutionFamily(constant=SplitQuaternion('0'), "
     "terms=((SplitQuaternion('1/2-1/2j'), SplitQuaternion('1')),))"),
    (SolveOutcome(FAMILY, None), SolveOutcome(FAMILY, None), SolveOutcome(None, Q),
     "SolveOutcome(family=SolutionFamily(constant=SplitQuaternion('0'), "
     "terms=((SplitQuaternion('1/2-1/2j'), SplitQuaternion('1')),)), certificate=None)"),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("value, same, other, text", CASES, ids=IDS)
def test_equality_and_hash_agree(value, same, other, text):
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != other
    assert value != text and value != 1


def test_split_quaternion_equality_across_backends():
    assert EXACT == EXACT.to_float() and hash(EXACT) == hash(EXACT.to_float())
    assert len({Q, QF, SplitQuaternion(1, 0, 1, 0)}) == 1


@pytest.mark.parametrize("value, same, other, text", CASES, ids=IDS)
def test_frozen(value, same, other, text):
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == same


@pytest.mark.parametrize("value, same, other, text", CASES, ids=IDS)
def test_repr(value, same, other, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, same, other, text", CASES, ids=IDS)
def test_pickle_and_deepcopy_roundtrip(value, same, other, text):
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)
        assert repr(copied) == text


def test_family_matrix_is_built_once_and_kept_by_copies():
    family = solve_ax0(Q)
    assert family.linear_matrix is family.linear_matrix
    assert pickle.loads(pickle.dumps(family)).linear_matrix == family.linear_matrix
    consim = solve_xa_bxbar(parse_quat("1+2i+3j+4k"), parse_quat("2+i+3j+4k"))
    consim.basis()  # a family keeps its basis, and so do its copies
    for copied in (pickle.loads(pickle.dumps(consim)), copy.deepcopy(consim), copy.copy(consim)):
        assert copied.linear_matrix == consim.linear_matrix and copied.terms == consim.terms
        assert copied.basis() == consim.basis() and copied.dimension == consim.dimension


def test_copies_of_a_float_family_keep_its_matrix_and_basis():
    # the matrix of a float solve_xa_bxbar family is the kernel of S, not family_matrix of its terms
    for a, b in pairs_in_every_s_case(random.Random(5), 30):
        family = solve_xa_bxbar(a.to_float(), b.to_float())
        for copied in (pickle.loads(pickle.dumps(family)), copy.deepcopy(family), copy.copy(family)):
            assert repr(copied.linear_matrix._e) == repr(family.linear_matrix._e)
            assert repr([q.coeffs for q in copied._basis]) == repr([q.coeffs for q in family._basis])
            assert copied._eps == family._eps


def test_copies_of_a_float_family_keep_its_eps():
    # copied before its basis is found, a copy eliminates at the eps it kept:
    # 2 directions at 1e-3, where DEFAULT_EPS would find 4
    for copy_of in (lambda f: pickle.loads(pickle.dumps(f)), copy.deepcopy, copy.copy):
        family = solve_ax0(parse_quat("1+1.0001j"), 1e-3)
        copied = copy_of(family)
        assert copied == family and repr(copied) == repr(family)
        assert copied.dimension == 2 == family.dimension and copied.basis() == family.basis()


def test_missing_attribute_of_a_family_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'SolutionFamily' object has no attribute 'rank'"):
        FAMILY.rank




def _solver_families(rng: random.Random):
    """Families of every solver, on exact inputs and on the same inputs as floats.

    Solvable lightlike equations, x*a = b*x in its three cases and
    x*a = b*conj(x) in every S-rank case.
    """
    cases = []
    for _ in range(10):
        a, b, x = rand_lightlike(rng), rand_lightlike(rng), rand_quat(rng)
        cases += [(solve_axb, a, b, a * x * b), (solve_ax0, a), (solve_axd, a, a * x), (solve_xad, a, x * a)]
        cases += [(solve_xa_bx, *rand_similar_pair(rng)), (solve_xa_bx, *rand_rank3_pair(rng))]
        cases.append((solve_xa_bx, rand_nonreal(rng), rand_nonreal(rng)))
    cases += [(solve_xa_bxbar, a, b) for a, b in pairs_in_every_s_case(rng, 3)]
    for solver, *inputs in cases:
        for values in (inputs, [q.to_float() for q in inputs]):
            answer = solver(*values)
            yield answer.family if isinstance(answer, SolveOutcome) else answer


def test_copies_of_every_solver_family_give_its_values():
    # the constant's numerators are kept on the family for at(y); copies must carry them
    rng = random.Random(6)
    for family in _solver_families(rng):
        copies = (pickle.loads(pickle.dumps(family)), copy.copy(family), copy.deepcopy(family))
        for y in (rand_quat(rng), ZERO, rand_quat(rng).to_float()):
            value = family.at(y)
            assert all(repr(c.at(y).coeffs) == repr(value.coeffs) for c in copies), (family, y)
            expected = term_at(family.constant, family.terms, y)
            if family.constant.is_exact and y.is_exact:
                assert value == expected, (family, y)
            else:
                assert all(abs(u - v) <= 1e-9 * (1 + abs(v)) for u, v in zip(value.coeffs, expected.coeffs))


# ----------------------------------------------------------------------
# one door in, one door out: numbers from outside are admitted by one
# rule, and every value the library computes is finite
# ----------------------------------------------------------------------

M = left_matrix(parse_quat("1+2i+3j+4k"))
#: Each way a number from outside enters a value, called on x
DOORS = {
    "SplitQuaternion": lambda x: SplitQuaternion(x, 0, 0, 0),
    "Mat4": lambda x: Mat4([[x, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    "apply": lambda x: M.apply((x, 0, 0, 0)),
    "linear_system_consistent": lambda x: linear_system_consistent(M, (x, 0, 0, 0)),
    "q*x": lambda x: Q * x,
    "x*q": lambda x: x * Q,
    "q/x": lambda x: Q / x,
    "m/x": lambda x: M / x,
    "from_polar": lambda x: from_polar(x, 0, 0),
}
#: Matrices and scalars computed from finite floats that overflow, each called on an ignored argument
BIG, HUGE = SplitQuaternion(1e200, 1e200, 0, 0), 1e308
OUT = {
    "t_matrix": lambda _: t_matrix(SplitQuaternion(HUGE, 0, 1.0, 0), SplitQuaternion(-HUGE, 0, 1.0, 0)),
    "matmul": lambda _: left_matrix(BIG) @ left_matrix(BIG),
    "mat_mp_inverse": lambda _: mat_mp_inverse(Mat4.diagonal((1e-320, 1, 1, 1.0)), eps=0.0),
    "det": lambda _: Mat4.diagonal((1e200, 1e200, 1.0, 1.0)).det(),
    "apply-result": lambda _: left_matrix(SplitQuaternion(1e200, 0, 0, 0)).apply((1e200, 0, 0, 0)),
    "nullspace_basis": lambda _: nullspace_basis(Mat4([[1e-8, 1e302, 0, 0], [0] * 4, [0] * 4, [0] * 4])),
}
DOOR_CASES = [
    pytest.param(DOORS[door], x, error, id=f"{door}-{x!r}")
    for door in DOORS
    for x, error in ((True, TypeError), (Decimal("0.5"), TypeError), (float("inf"), NonFiniteError),
                     (float("nan"), NonFiniteError))
] + [pytest.param(call, None, NonFiniteError, id=name) for name, call in OUT.items()]


@pytest.mark.parametrize("call, x, error", DOOR_CASES)
def test_every_door_admits_by_one_rule_and_emits_finite_values(call, x, error):
    with pytest.raises(error):
        call(x)
