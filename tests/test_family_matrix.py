"""A solution family's linear part is one matrix: at, dimension and basis() all read it.

Every exact draw is dyadic, so its float copy is binary-exact and the
float family can be compared with the exact one on the same inputs.
"""

import copy
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest

from splitquat import (
    I,
    J,
    K,
    ONE,
    SolutionFamily,
    SplitQuaternion,
    ZERO,
    parse_quat,
    solve_ax0,
    solve_axb,
    solve_axd,
    solve_xa_bx,
    solve_xa_bxbar,
    solve_xad,
    s_matrix,
    t_matrix,
)
from splitquat import consimilarity, elimination, similarity, solvers

from oracles import SRankCase, family_rows, s_rank_case, term_at

#: The CLI's probes, then a dense one.
PROBES = (ZERO, ONE, I, J, K, ONE + I + J + K)

#: Float at(y) against exact at(y) on binary-exact copies of the same
#: inputs, per coefficient.  Draws have coefficients of at most 6 in size;
#: the largest gap seen over these draws is about 6e-14.
FLOAT_BOUND = 1e-11


def _dyadic(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), 2 ** rng.randint(0, 2))


def _quat(rng: random.Random) -> SplitQuaternion:
    return SplitQuaternion(*(_dyadic(rng) for _ in range(4)))


def _search(rng: random.Random, accept) -> tuple:
    """Small integer quadruples until accept holds."""
    while True:
        c = tuple(rng.randint(-6, 6) for _ in range(4))
        if accept(*c):
            return c


def _lightlike(rng: random.Random) -> SplitQuaternion:
    """Nonzero dyadic zero divisor: x^2 + y^2 = z^2 + w^2."""
    c = _search(rng, lambda x, y, z, w: any((x, y)) and x * x + y * y == z * z + w * w)
    return SplitQuaternion(*c) / 2 ** rng.randint(0, 2)


def _invertible(rng: random.Random) -> SplitQuaternion:
    """A dyadic p whose inverse is dyadic: |quadratic form| a power of two."""
    while True:
        p = _quat(rng)
        form = abs(p.quadratic_form)
        if form and all(n & (n - 1) == 0 for n in (form.numerator, form.denominator)):
            return p


def _with_im_squared(rng: random.Random, s: int) -> SplitQuaternion:
    """Non-real integer element with im_squared = s*s."""
    c = _search(
        rng, lambda a0, a1, a2, a3: any((a1, a2, a3)) and a2 * a2 + a3 * a3 - a1 * a1 == s * s
    )
    return SplitQuaternion(*c)


def _similar_pair(rng: random.Random):
    while True:
        a, p = _quat(rng), _invertible(rng)
        if not a.is_real():
            return a, p * a * p.inverse()


def _rank3_pair(rng: random.Random):
    """Distinct real parts, a0 - b0 = +/-s +/- u with im_squared s^2 and u^2: det T = 0."""
    while True:
        s, u = rng.randint(0, 4), rng.randint(0, 4)
        d = rng.choice((s - u, s + u, u - s, -s - u))
        if d == 0:
            continue
        a, b = _with_im_squared(rng, s), _with_im_squared(rng, u)
        return a, SplitQuaternion(a.q0 - d, b.q1, b.q2, b.q3)


def _nonsingular_pair(rng: random.Random):
    while True:
        a, b = _quat(rng), _quat(rng)
        if not (a.is_real() or b.is_real() or t_matrix(a, b).det() == 0):
            return a, b


def _rank3b_pair(rng: random.Random):
    """Equal forms, conj(a)+b = w nonzero lightlike and b*a != 0; dyadic as |w3| is a power of 2."""
    while True:
        w = _lightlike(rng)
        w3 = abs(w.q3)
        if not w3 or any(n & (n - 1) for n in (w3.numerator, w3.denominator)):
            continue
        a0, a1, a2 = _dyadic(rng), _dyadic(rng), _dyadic(rng)
        a = SplitQuaternion(a0, a1, a2, -(w.q0 * a0 - w.q1 * a1 + w.q2 * a2) / w.q3)
        b = w - a.conjugate()
        if s_rank_case(a, b) is SRankCase.RANK3B:
            return a, b


def _s_pairs(rng: random.Random):
    """One dyadic pair in each S-rank case; a = b = 0 first."""
    a = _quat(rng)
    lightlike = _lightlike(rng)
    yield ZERO, ZERO
    yield _quat(rng), _quat(rng)  # nonsingular, or a degenerate case by chance
    yield a, -a.conjugate()  # rank 1
    yield lightlike, _quat(rng) * lightlike.conjugate()  # rank 2: b*a = 0
    yield ZERO, lightlike  # rank 2
    p = _invertible(rng)
    yield a, p * a * p.inverse()  # rank 3a: conjugation keeps the form
    yield _rank3b_pair(rng)
    yield a, _lightlike(rng) - a.conjugate()  # rank 3c


def _draws(rng: random.Random, rounds: int):
    """(name, solver, exact inputs) covering every exact family shape."""
    for _ in range(rounds):
        a, b, z = _lightlike(rng), _lightlike(rng), _quat(rng)
        yield "axb", solve_axb, (a, b, a * z * b)
        yield "ax0", solve_ax0, (a,)
        yield "axd", solve_axd, (a, a * z)
        yield "xad", solve_xad, (a, z * a)
        yield "xa_bx rank 2", solve_xa_bx, _similar_pair(rng)
        yield "xa_bx rank 3", solve_xa_bx, _rank3_pair(rng)
        yield "xa_bx nonsingular", solve_xa_bx, _nonsingular_pair(rng)
        for pair in _s_pairs(rng):
            yield f"xa_bxbar {s_rank_case(*pair).value}", solve_xa_bxbar, pair


def _family(solver, inputs):
    result = solver(*inputs)
    return result.family if hasattr(result, "family") else result


class TestMatrixFamily:
    def test_matrix_and_values_match_the_terms(self):
        rng = random.Random(11)
        seen = set()
        for name, solver, inputs in _draws(rng, 6):
            seen.add(name)
            family = _family(solver, inputs)
            assert family is not None, name
            assert family.linear_matrix.rows == tuple(map(tuple, family_rows(family.terms))), name
            ys = PROBES + tuple(_quat(rng) for _ in range(4)) + (parse_quat("1/3-2/7i+5/9j+k"),)
            for y in ys:
                x = family.at(y)
                expected = term_at(family.constant, family.terms, y)
                assert x.coeffs == expected.coeffs, (name, inputs, y)
                assert all(type(c) is Fraction for c in x.coeffs), name
        assert {"xa_bx rank 2", "xa_bx rank 3", "xa_bx nonsingular"} <= seen
        assert {f"xa_bxbar {case.value}" for case in SRankCase} <= seen

    def test_dimensions_by_case(self):
        rng = random.Random(12)
        expected = {"ax0": 2, "xa_bx rank 2": 2, "xa_bx rank 3": 1, "xa_bx nonsingular": 0}
        for name, solver, inputs in _draws(rng, 4):
            family = _family(solver, inputs)
            if name in expected:
                assert family.dimension == expected[name], (name, inputs)
            if name.startswith("xa_bxbar"):
                assert family.dimension == 4 - s_rank_case(*inputs).rank, (name, inputs)

    def test_float_copies_agree_with_exact_values(self):
        rng = random.Random(13)
        worst = 0.0
        for name, solver, inputs in _draws(rng, 6):
            exact = _family(solver, inputs)
            approx = _family(solver, tuple(q.to_float() for q in inputs))
            assert approx is not None, name
            assert approx.dimension == exact.dimension, (name, inputs)
            for y in PROBES + tuple(_quat(rng) for _ in range(4)):
                x, expected = approx.at(y.to_float()), exact.at(y)
                assert all(type(c) is float for c in x.coeffs) or not approx.terms, name
                gap = max(abs(Fraction(u) - v) for u, v in zip(x.coeffs, expected.coeffs))
                worst = max(worst, gap)
                assert gap <= FLOAT_BOUND, (name, inputs, y, gap)
        assert worst > 0  # the float path rounds somewhere, so the bound is exercised

    def test_a_family_without_terms_returns_its_constant(self):
        family = solve_xa_bx(parse_quat("1+2i+3j+4k"), parse_quat("5+i"))
        assert family.terms == ()
        assert family.at(parse_quat("1.5+2j")) == family.constant == ZERO
        assert family.basis() == [] and family.dimension == 0


class TestOneElimination:
    def test_exact_family_is_eliminated_once(self, monkeypatch):
        # a solve_xa_bxbar family keeps the kernel basis its solver found,
        # so reading it eliminates nothing; every other family eliminates
        # its matrix exactly once
        rng = random.Random(14)
        families = [(name, _family(solver, inputs)) for name, solver, inputs in _draws(rng, 1)]
        calls = []
        kernel = elimination.eliminate
        monkeypatch.setattr(elimination, "eliminate", lambda *args: calls.append(1) or kernel(*args))
        seen = set()
        for name, family in families:
            calls.clear()
            dimension = family.dimension
            first, second = family.basis(), family.basis()
            assert len(calls) == (0 if name.startswith("xa_bxbar") else 1), name
            assert first == second and dimension == len(first)
            first.append(ONE)  # the kept basis is not the caller's list
            assert family.basis() == second and family.dimension == dimension
            assert len(calls) == (0 if name.startswith("xa_bxbar") else 1), name
            seen.add(name)
        assert {f"xa_bxbar {case.value}" for case in SRankCase} <= seen
        assert {"axb", "ax0", "axd", "xad", "xa_bx rank 2", "xa_bx rank 3"} <= seen

    def test_no_family_is_built_through_family_matrix(self, monkeypatch):
        # every solver hands its family the matrix it built from the numerators
        # of its terms, so none is rebuilt from the term quaternions
        rng = random.Random(16)
        draws = list(_draws(rng, 2))
        calls = []
        build = solvers.family_matrix
        monkeypatch.setattr(solvers, "family_matrix", lambda terms: calls.append(terms) or build(terms))
        seen = set()
        for name, solver, inputs in draws:
            for copy in (inputs, tuple(q.to_float() for q in inputs)):
                family = _family(solver, copy)
                assert family is not None and calls == [], (name, copy)
            seen.add(name)
        assert {"axb", "ax0", "axd", "xad", "xa_bx rank 2", "xa_bx rank 3", "xa_bx nonsingular"} <= seen
        assert {f"xa_bxbar {case.value}" for case in SRankCase} <= seen
        SolutionFamily(ONE, ((I, J),))  # the public constructor still builds it
        assert len(calls) == 1

    def test_float_xa_bxbar_family_is_eliminated_once(self, monkeypatch):
        # a float solve_xa_bxbar family keeps the kernel basis of S too:
        # building it runs one elimination, of S, and reading it runs none
        rng = random.Random(15)
        pairs = [pair for _ in range(2) for pair in _s_pairs(rng)]
        eliminated = []
        kernel = elimination.rref
        monkeypatch.setattr(
            elimination,
            "rref",
            lambda rows, *args: eliminated.append([list(row) for row in rows]) or kernel(rows, *args),
        )
        seen = set()
        for a, b in pairs:
            fa, fb = a.to_float(), b.to_float()
            eliminated.clear()
            family = solve_xa_bxbar(fa, fb)
            assert eliminated == [[list(row) for row in s_matrix(fa, fb).rows]], (a, b)
            dimension = family.dimension
            first, second = family.basis(), family.basis()
            assert first == second and dimension == len(first) == 4 - s_rank_case(a, b).rank
            assert len(eliminated) == 1, (a, b)
            seen.add(s_rank_case(a, b))
        assert seen == set(SRankCase)

    def test_float_family_honours_each_eps(self):
        # twin of the CLI's --eps test: a family solved at each eps eliminates
        # at that eps, and its dimension counts the basis it found there
        # (1+1.0001j is lightlike from eps 2e-4 on, and at 0.9 no pivot survives)
        for eps, dimension in ((3e-4, 2), (1e-3, 2), (1e-1, 2), (0.9, 0)):
            family = solve_ax0(parse_quat("1+1.0001j"), eps)
            assert not family.linear_matrix.is_exact
            assert family.dimension == dimension == len(family.basis()), eps


def _counting_recipes(monkeypatch) -> list:
    """Wrap each recipe a solver hands _family, so that every build of terms is counted."""
    calls = []
    build = solvers._family

    def family(ratio, terms, *rest):
        if callable(terms):
            recipe = terms
            terms = lambda: calls.append(1) or recipe()
        return build(ratio, terms, *rest)

    for module in (solvers, similarity, consimilarity):
        monkeypatch.setattr(module, "_family", family)
    return calls


def _scalars(family) -> list:
    """The repr of every scalar of the constant and the terms, in order."""
    quats = [family.constant] + [q for term in family.terms for q in term]
    return [repr(c) for q in quats for c in q.coeffs]


def _copies(inputs):
    """The exact inputs, then their float copies."""
    return (inputs, tuple(q.to_float() for q in inputs))


class TestDeferredClosedForm:
    """A family builds its terms on their first read and its constant on each read; at, basis() and dimension
    read neither."""

    def test_reading_a_family_builds_no_term(self, monkeypatch):
        calls = _counting_recipes(monkeypatch)
        rng = random.Random(17)
        seen = set()
        for name, solver, inputs in _draws(rng, 2):
            for copy_ in _copies(inputs):
                calls.clear()
                family = _family(solver, copy_)
                family.dimension, family.basis(), family.at(_quat(rng)), family.at(ZERO)
                assert calls == [], (name, copy_)
                terms = family.terms
                assert family.terms is terms and family.constant == family.constant
                built = len(calls)
                assert built == (1 if terms else 0), (name, copy_)
                family.terms, repr(family), family.at(ONE)
                assert len(calls) == built, (name, copy_)
            seen.add(name)
        assert {"axb", "ax0", "axd", "xad", "xa_bx rank 2", "xa_bx rank 3", "xa_bx nonsingular"} <= seen
        assert {f"xa_bxbar {case.value}" for case in SRankCase} <= seen

    def test_terms_read_late_equal_terms_read_first(self):
        rng = random.Random(18)
        for name, solver, inputs in _draws(rng, 3):
            for copy_ in _copies(inputs):
                first = _family(solver, copy_)
                expected = _scalars(first)
                late = _family(solver, copy_)
                ys = (ZERO, ONE, _quat(rng))
                late.dimension, late.basis(), [late.at(y) for y in ys]
                assert _scalars(late) == expected, (name, copy_)
                assert [repr(late.at(y).coeffs) for y in ys] == [repr(first.at(y).coeffs) for y in ys], name

    def test_equality_hash_repr_pickle_and_copies_build_the_terms(self):
        rng = random.Random(19)
        for name, solver, inputs in _draws(rng, 2):
            for copy_ in _copies(inputs):
                read = _family(solver, copy_)
                read.terms, read.constant
                fresh = lambda: _family(solver, copy_)
                assert fresh() == read and read == fresh(), (name, copy_)
                assert hash(fresh()) == hash(read), (name, copy_)
                assert repr(fresh()) == repr(read), (name, copy_)
                assert pickle.dumps(fresh()) == pickle.dumps(read), (name, copy_)
                for clone in (pickle.loads(pickle.dumps(fresh())), copy.deepcopy(fresh()), copy.copy(fresh())):
                    assert clone == read and repr(clone) == repr(read), (name, copy_)
                    assert _scalars(clone) == _scalars(read), (name, copy_)

    def test_threads_reading_one_family_see_one_value(self):
        # two threads may both build the terms; each read still returns equal terms and raises nothing
        rng = random.Random(20)
        draws = [(solver, copy_) for _, solver, inputs in _draws(rng, 2) for copy_ in _copies(inputs)]
        expected = [_scalars(_family(solver, copy_)) for solver, copy_ in draws]
        errors, wrong = [], []

        def read(families):
            try:
                wrong.extend(i for i, family in enumerate(families) if _scalars(family) != expected[i])
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(100):
                families = [_family(solver, copy_) for solver, copy_ in draws]
                threads = [threading.Thread(target=read, args=(families,)) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and wrong == []

class TestAtCoercion:
    """SolutionFamily.at takes what * takes: a SplitQuaternion, or an int, Fraction or float as a real one."""

    def test_reals_are_real_quaternions(self):
        exact = solve_ax0(parse_quat("1+j"))
        approx = solve_ax0(parse_quat("1.0+j"))
        empty = solve_xa_bx(parse_quat("1+2i+3j+4k"), parse_quat("5+i"))
        for family in (exact, approx, empty):
            for y in (1, Fraction(-3, 4), 0.5, -2.0):
                x = family.at(y)
                assert repr(x.coeffs) == repr(family.at(SplitQuaternion(y, 0, 0, 0)).coeffs), (family, y)
            for bad in ("x", None, True, 1j, (1, 0, 0, 0)):
                with pytest.raises(TypeError):
                    family.at(bad)
        assert exact.at(1) == exact.at(ONE) == (ONE - J) / 2
        assert all(type(c) is float for c in approx.at(Fraction(1, 3)).coeffs)
        assert empty.at(7) == empty.constant
