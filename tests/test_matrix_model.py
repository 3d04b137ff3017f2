"""The library against the 2x2 real matrix model phi, which shares no code with it.

phi(q) = [[q0+q2, q3-q1], [q1+q3, q0-q2]] is an isomorphism from the
split quaternions onto the 2x2 real matrices; under it the paper's
generalized inverse must be Penrose's.  Exact draws only, lightlike
ones included.
"""

import random

from hypothesis import given, settings

from splitquat import ZERO, is_similar, mp_inverse, power

from conftest import lightlike_quats, rand_lightlike, rand_nonreal, rand_quat, rand_similar_pair
from oracles import M2


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
