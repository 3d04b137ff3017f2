"""Shared strategies and seeded generators for the test suite.

Exact constructions only: lightlike elements come from rational points
on the unit circle, pairs with matched invariants come from conjugation
(which preserves the real part, the quadratic form, and im_squared).
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from splitquat import SplitQuaternion, ZERO

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)

quats = st.builds(SplitQuaternion, rationals, rationals, rationals, rationals)

nonreal_quats = quats.filter(lambda q: not q.is_real())

@st.composite
def lightlike_quats(draw):
    """Nonzero rational zero divisors: c2 = c1 * (rational unit-circle point)."""
    c1re = draw(rationals)
    c1im = draw(rationals)
    if c1re == 0 and c1im == 0:
        c1re = Fraction(1)
    t = draw(rationals)
    negate = draw(st.booleans())
    c, s = _unit_circle_point(t)
    if negate:
        c, s = -c, -s
    return SplitQuaternion(c1re, c1im, c1re * c - c1im * s, c1re * s + c1im * c)


def _unit_circle_point(t: Fraction):
    """Rational (cos, sin) from the tangent half-angle parametrization."""
    denom = 1 + t * t
    return (1 - t * t) / denom, 2 * t / denom


# ----------------------------------------------------------------------
# seeded generators for fixed-count loops
# ----------------------------------------------------------------------


def rand_fraction(rng: random.Random, lo: int = -9, hi: int = 9, den: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_quat(rng: random.Random) -> SplitQuaternion:
    return SplitQuaternion(*(rand_fraction(rng) for _ in range(4)))


def rand_nonreal(rng: random.Random) -> SplitQuaternion:
    while True:
        q = rand_quat(rng)
        if not q.is_real():
            return q


def rand_invertible(rng: random.Random) -> SplitQuaternion:
    while True:
        q = rand_quat(rng)
        if q.quadratic_form != 0:
            return q


def rand_circle(rng: random.Random):
    c, s = _unit_circle_point(rand_fraction(rng, -6, 6, 6))
    if rng.random() < 0.5:
        c, s = -c, -s
    return c, s


def rand_lightlike(rng: random.Random) -> SplitQuaternion:
    """Nonzero rational zero divisor."""
    while True:
        c1re, c1im = rand_fraction(rng), rand_fraction(rng)
        if c1re == 0 and c1im == 0:
            continue
        c, s = rand_circle(rng)
        return SplitQuaternion(c1re, c1im, c1re * c - c1im * s, c1re * s + c1im * c)


def rand_conjugate(rng: random.Random, a: SplitQuaternion) -> SplitQuaternion:
    """q * a * q^-1 for a random invertible q; preserves re, I and im_squared."""
    q = rand_invertible(rng)
    return q * a * q.inverse()


def rand_with_im_squared_plus(rng: random.Random, s: Fraction) -> SplitQuaternion:
    """Random non-real element with im_squared = s*s >= 0, exact."""
    while True:
        a0 = rand_fraction(rng)
        a1 = rand_fraction(rng)
        if s == 0 and a1 == 0:
            continue
        c, sn = rand_circle(rng)
        a2 = s * c - a1 * sn
        a3 = s * sn + a1 * c
        return SplitQuaternion(a0, a1, a2, a3)


def rand_with_im_squared_minus(rng: random.Random, s: Fraction) -> SplitQuaternion:
    """Random non-real element with im_squared = -s*s <= 0, exact; s != 0."""
    a0 = rand_fraction(rng)
    a3 = rand_fraction(rng)
    n = s * s + a3 * a3
    a1 = (n + 1) / 2
    a2 = (n - 1) / 2
    return SplitQuaternion(a0, a1, a2, a3)


def rand_similar_pair(rng: random.Random, k_zero: bool = False):
    """Pair with equal real parts and equal im_squared, by conjugation."""
    if k_zero:
        a = rand_with_im_squared_plus(rng, Fraction(0))
    elif rng.random() < 0.5:
        a = rand_with_im_squared_plus(rng, abs(rand_fraction(rng)))
    else:
        s = rand_fraction(rng)
        a = rand_with_im_squared_minus(rng, s if s != 0 else Fraction(1))
    b = rand_conjugate(rng, a)
    return a, b


def rand_rank3_pair(rng: random.Random):
    """Non-real pair with distinct real parts and singular t_matrix.

    Built from rational square roots s, u of the two im_squared values;
    the determinant vanishes exactly when a0 - b0 is +/-(s - u) or
    +/-(s + u).
    """
    while True:
        s = abs(rand_fraction(rng))
        u = abs(rand_fraction(rng))
        d = rng.choice((s - u, s + u, u - s, -s - u))
        if d == 0:
            continue
        a = rand_with_im_squared_plus(rng, s)
        b_im = rand_with_im_squared_plus(rng, u)
        b = SplitQuaternion(a.q0 - d, b_im.q1, b_im.q2, b_im.q3)
        if b.is_real():
            continue
        return a, b


def rand_consim_pair_rank3b(rng: random.Random):
    """Pair with equal quadratic forms and conj(a)+b nonzero lightlike."""
    while True:
        w = rand_lightlike(rng)
        if w.q3 == 0:
            continue
        a0, a1, a2 = rand_fraction(rng), rand_fraction(rng), rand_fraction(rng)
        # choose a3 so that the symmetric bilinear pairing of w and conj(a) vanishes
        a3 = -(w.q0 * a0 - w.q1 * a1 + w.q2 * a2) / w.q3
        a = SplitQuaternion(a0, a1, a2, a3)
        b = w - a.conjugate()
        if a.is_real() or b.is_real():
            continue
        return a, b


def pairs_in_every_s_case(rng: random.Random, count: int):
    """Exact pairs aimed at each S-rank case in turn; a = b = 0 first."""
    yield ZERO, ZERO
    for _ in range(count):
        a = rand_quat(rng)
        yield a, rand_quat(rng)  # nonsingular
        yield a, -a.conjugate()  # rank 1
        lightlike = rand_lightlike(rng)
        yield lightlike, rand_quat(rng) * lightlike.conjugate()  # rank 2: b*a = 0
        yield ZERO, lightlike  # rank 2
        yield a, rand_conjugate(rng, a)  # rank 3a: conjugation keeps the form
        yield rand_consim_pair_rank3b(rng)
        w = rand_lightlike(rng)
        yield a, w - a.conjugate()  # rank 3c: conj(a)+b = w


def rand_causal(rng: random.Random, kind: str) -> SplitQuaternion:
    """Random element in a prescribed causal class, exact."""
    if kind == "lightlike":
        return rand_lightlike(rng)
    q = rand_quat(rng)
    if kind == "timelike":
        return SplitQuaternion(1 + abs(q.q2) + abs(q.q3), q.q1, q.q2, q.q3)
    if kind == "spacelike":
        return SplitQuaternion(q.q0, q.q1, 1 + abs(q.q0) + abs(q.q1), q.q3)
    raise ValueError(kind)
