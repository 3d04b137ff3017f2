"""The library against the 2x2 real matrix model phi, which shares no code with it.

phi(q) = [[q0+q2, q3-q1], [q1+q3, q0-q2]] is an isomorphism from the
split quaternions onto the 2x2 real matrices; under it the paper's
generalized inverse must be Penrose's, and the solvers must follow
Penrose's rule for AXB = C, and the eliminated bases of the one-sided
families must span the closed-form solution spaces.  Exact draws only,
lightlike ones included.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from splitquat import (
    ONE,
    SplitQuaternion,
    ZERO,
    SolveOutcome,
    is_similar,
    mp_inverse,
    power,
    solve_ax0,
    solve_axb,
    solve_axd,
    solve_xad,
)

from conftest import (
    lightlike_quats,
    quats,
    rand_conjugate,
    rand_lightlike,
    rand_nonreal,
    rand_quat,
    rand_similar_pair,
)
from oracles import M2, fraction_rref


def _draws(seed: int, count: int = 150):
    rng = random.Random(seed)
    out = [ZERO]
    for idx in range(count):
        out.append(rand_lightlike(rng) if idx % 2 else rand_quat(rng))
    return out


def _penrose_2x2(a: M2, x: M2) -> bool:
    """A X A = A, X A X = X, and A X, X A symmetric."""
    ax, xa = a @ x, x @ a
    return ax @ a == a and xa @ x == x and ax.transpose() == ax and xa.transpose() == xa


class TestModel:
    def test_phi_is_multiplicative(self):
        rng = random.Random(801)
        draws = _draws(802)
        for p in draws:
            q = draws[rng.randrange(len(draws))]
            assert M2.phi(p * q) == M2.phi(p) @ M2.phi(q)
            assert M2.phi(p).phi_inverse() == p

    def test_conjugate_is_adjugate(self):
        for q in _draws(803):
            assert M2.phi(q.conjugate()) == M2.phi(q).adj()
            assert M2.phi(q).det() == q.quadratic_form
            assert M2.phi(q).trace() == 2 * q.q0

    def test_oracle_pinv_satisfies_penrose(self):
        for q in _draws(804):
            a = M2.phi(q)
            assert _penrose_2x2(a, a.mp_inverse())


class TestPenroseCrossCheck:
    def test_mp_inverse_is_matrix_mp_inverse(self):
        ranks = set()
        for q in _draws(805):
            a = M2.phi(q)
            ranks.add(a.rank())
            assert M2.phi(mp_inverse(q)) == a.mp_inverse()
        assert ranks == {0, 1, 2}

    @given(lightlike_quats())
    @settings(max_examples=100)
    def test_mp_inverse_lightlike_property(self, q):
        a = M2.phi(q)
        assert a.rank() == 1
        assert M2.phi(mp_inverse(q)) == a.mp_inverse()


class TestPowerCrossCheck:
    def test_lightlike_power_is_trace_power_times_matrix(self):
        # a rank-1 A satisfies A^2 = tr(A) A, so A^n = tr(A)^(n-1) A
        rng = random.Random(806)
        for _ in range(60):
            q = rand_lightlike(rng)
            a = M2.phi(q)
            assert a.rank() == 1
            for n in range(1, 7):
                want = M2(*(a.trace() ** (n - 1) * x for x in a.entries))
                assert M2.phi(power(q, n)) == want, (q, n)


class TestSimilarityCrossCheck:
    """Non-scalar 2x2 real matrices are similar exactly when trace and det agree."""

    def _pairs(self, seed: int):
        rng = random.Random(seed)
        for idx in range(60):
            a, b = rand_similar_pair(rng, k_zero=idx % 4 == 0)
            yield a, b
            yield a, rand_nonreal(rng)
            yield a, b.q0 + 2 * (b - b.q0)  # same trace, other det unless im_squared = 0
            yield a, -b  # same det, other trace unless b0 = 0
        for _ in range(20):
            q = rand_lightlike(rng)
            yield q, q.conjugate()
            yield q, rand_lightlike(rng)

    def test_similar_exactly_when_trace_and_det_match(self):
        seen = set()
        for a, b in self._pairs(807):
            if a.is_real() or b.is_real():
                continue
            pa, pb = M2.phi(a), M2.phi(b)
            same_trace, same_det = pa.trace() == pb.trace(), pa.det() == pb.det()
            verdict = is_similar(a, b)
            assert bool(verdict) == (same_trace and same_det), (a, b)
            seen.add((same_trace, same_det))
            if verdict:
                w = M2.phi(verdict.witness)
                assert w.det() != 0 and w @ pa == pb @ w
        assert len(seen) == 4


_I2, _Z2 = M2.phi(ONE), M2.phi(ZERO)


def _penrose_rule(outcome, a: M2, b: M2, c: M2, ys) -> bool:
    """Check a solver's outcome of AXB = C against Penrose (1955); returns whether it was solvable.

    AXB = C is solvable exactly when A A+ C B+ B = C, and then its
    solutions are A+ C B+ + Y - A+ A Y B B+ over all Y.  An unsolvable
    outcome's certificate is A A+ C B+ B - C.
    """
    ap, bp = a.mp_inverse(), b.mp_inverse()
    projected = a @ ap @ c @ bp @ b
    assert outcome.solvable == (projected == c)
    if not outcome.solvable:
        assert M2.phi(outcome.certificate) == projected - c
        return False
    for y in ys:
        m = M2.phi(y)
        assert M2.phi(outcome.family.at(y)) == ap @ c @ bp + m - ap @ a @ m @ b @ bp, y
    return True


def _equations(a, b, d):
    """Each one-coefficient solver on (a, d), solve_axb on (a, b, d) and solve_ax0 on a, with its A, B and C."""
    pa, pb, pd = M2.phi(a), M2.phi(b), M2.phi(d)
    yield solve_axb(a, b, d), pa, pb, pd
    yield solve_axd(a, d), pa, _I2, pd
    yield solve_xad(a, d), _I2, pa, pd
    yield SolveOutcome.solved(solve_ax0(a)), pa, _I2, _Z2


class TestPenroseEquationRule:
    """The solvers against Penrose's AXB = C rule, with A = phi(a), B = phi(b) and C = phi(d)."""

    def test_seeded(self):
        rng = random.Random(808)
        verdicts = []
        for idx in range(60):
            a, b = rand_lightlike(rng), rand_lightlike(rng)
            x = rand_quat(rng)
            d = (a * x * b, a * x, x * a, rand_quat(rng), ZERO)[idx % 5]
            ys = [ZERO, rand_quat(rng), rand_lightlike(rng)]
            for outcome, pa, pb, pd in _equations(a, b, d):
                verdicts.append(_penrose_rule(outcome, pa, pb, pd, ys))
        assert set(verdicts) == {True, False}

    @given(lightlike_quats(), lightlike_quats(), quats, quats, st.sampled_from(("axb", "ax", "xa", "free")))
    @settings(max_examples=100, deadline=None)
    def test_property(self, a, b, x, y, kind):
        d = {"axb": a * x * b, "ax": a * x, "xa": x * a, "free": x}[kind]
        for outcome, pa, pb, pd in _equations(a, b, d):
            _penrose_rule(outcome, pa, pb, pd, [y])


def _int_lightlike(p: int, q: int, r: int, s: int) -> SplitQuaternion:
    """q0 + i q1 = (p + iq)(r + is) and q2 + i q3 = (p + iq)(r - is): equal moduli, so I(a) = 0."""
    return SplitQuaternion(p * r - q * s, p * s + q * r, p * r + q * s, q * r - p * s)


def _span_rank(qs) -> int:
    return len(fraction_rref([q.coeffs for q in qs])[1]) if qs else 0


def _same_span(got, want) -> bool:
    return _span_rank(got) == _span_rank(want) == _span_rank(list(got) + list(want))


def _check_one_sided_bases(a: SplitQuaternion, x: SplitQuaternion) -> None:
    """The eliminated bases of a*x = 0, a*x = d and x*a = d, a lightlike, against the kernels of A and of A^T.

    X with A X = 0 has each column in ker A, which the columns u of
    P = I - A+ A span, so its space is spanned by phi^-1(u e1^T) and
    phi^-1(u e2^T).  X with X A = 0 has each row in the left kernel,
    spanned by the rows w of Q = I - A A+: phi^-1(e1 w) and phi^-1(e2 w).
    """
    pa = M2.phi(a)
    pinv = pa.mp_inverse()
    p, q = (_I2 - pinv @ pa).entries, (_I2 - pa @ pinv).entries
    left = [M2(*u) for u in ((p[0], 0, p[2], 0), (0, p[0], 0, p[2]), (p[1], 0, p[3], 0), (0, p[1], 0, p[3]))]
    right = [M2(*w) for w in ((q[0], q[1], 0, 0), (0, 0, q[0], q[1]), (q[2], q[3], 0, 0), (0, 0, q[2], q[3]))]
    left, right = [m.phi_inverse() for m in left], [m.phi_inverse() for m in right]
    axd, xad = solve_axd(a, a * x), solve_xad(a, x * a)
    assert axd.solvable and xad.solvable
    assert _same_span(solve_ax0(a).basis(), left), a
    assert _same_span(axd.family.basis(), left), a
    assert _same_span(xad.family.basis(), right), a
    assert pa.rank() == 1 and _span_rank(left) == _span_rank(right) == 2, a


class TestEliminatedBasesCrossCheck:
    """solve_ax0, solve_axd and solve_xad bases, from elimination, against closed forms in the 2x2 model."""

    def test_seeded(self):
        rng = random.Random(809)
        for _ in range(40):
            draws = (
                _int_lightlike(*(rng.randint(-5, 5) or 1 for _ in range(4))),
                rand_lightlike(rng),
                rand_conjugate(rng, rand_lightlike(rng)),
                rand_conjugate(rng, _int_lightlike(*(rng.randint(1, 5) for _ in range(4)))),
            )
            for a in draws:
                _check_one_sided_bases(a, rand_quat(rng))

    @given(
        st.one_of(
            lightlike_quats(),
            st.builds(_int_lightlike, *[st.integers(1, 6)] * 4),
            st.builds(lambda a, c: c * a * c.inverse(), lightlike_quats(), quats.filter(lambda q: q.quadratic_form != 0)),
        ),
        quats,
    )
    @settings(max_examples=100, deadline=None)
    def test_property(self, a, x):
        _check_one_sided_bases(a, x)


def _check_axb_image(a: SplitQuaternion, b: SplitQuaternion, x: SplitQuaternion) -> None:
    """The eliminated basis of a*x*b = d against the hyperplane P X Q = 0 of the 2x2 model.

    The directions y - a+ a y b b+ satisfy P X Q = 0 with P = A+ A and
    Q = B B+, rank-one idempotents, so they span that 3-dimensional space.
    """
    pa, pb = M2.phi(a), M2.phi(b)
    p, q = pa.mp_inverse() @ pa, pb @ pb.mp_inverse()
    outcome = solve_axb(a, b, a * x * b)
    assert outcome.solvable
    basis = outcome.family.basis()
    assert all(p @ M2.phi(v) @ q == _Z2 for v in basis), (a, b)
    assert len(basis) == _span_rank(basis) == 3, (a, b)


class TestAxbImageCrossCheck:
    """solve_axb's eliminated basis against the kernel of X -> P X Q in the 2x2 model, with no Mat4."""

    def test_seeded(self):
        rng = random.Random(810)
        for _ in range(60):
            a, b = rand_lightlike(rng), rand_conjugate(rng, rand_lightlike(rng))
            _check_axb_image(a, b, rand_quat(rng))
            _check_axb_image(_int_lightlike(*(rng.randint(1, 5) for _ in range(4))), a, rand_quat(rng))

    @given(lightlike_quats(), lightlike_quats(), quats)
    @settings(max_examples=100, deadline=None)
    def test_property(self, a, b, x):
        _check_axb_image(a, b, x)
