"""Value semantics of the library's immutable classes: equality, hashing, freezing, repr, copies."""

import copy
import pickle
from fractions import Fraction

import pytest

from splitquat import (
    CanonicalForm,
    LightlikePolar,
    ONE,
    SolutionFamily,
    SolveOutcome,
    SplitQuaternion,
    Verdict,
    ZERO,
    parse_quat,
    solve_ax0,
    solve_xa_bxbar,
)

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
    for copied in (pickle.loads(pickle.dumps(consim)), copy.deepcopy(consim)):
        assert copied.linear_matrix == consim.linear_matrix and copied.terms == consim.terms


def test_missing_attribute_of_a_family_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'SolutionFamily' object has no attribute 'rank'"):
        FAMILY.rank
