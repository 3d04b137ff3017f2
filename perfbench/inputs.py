"""Seeded inputs for every workload.

An item is ``(kind, case, args, k)``: ``kind`` names the operation (see
``ops.RUN``), ``case`` the input structure it was built for, ``args``
holds quaternions as 4-tuples of Fractions plus plain ints and strings,
and ``k`` is the power-of-two scale of a float item (0 for exact ones).
Nothing here imports splitquat: the library only ever receives the
values, never the generator.
"""

from __future__ import annotations

import random
from fractions import Fraction

from qalg import (
    axb_mat,
    conjugate_by,
    consistent,
    exact_sqrt,
    is_real,
    linmap,
    qadd,
    qconj,
    qform,
    qk,
    qmul,
    qsub,
    rank,
    t_mat,
)

_AXES = ((1, 0), (0, 1), (-1, 0), (0, -1))


class Field:
    """Where scalars come from.

    The rational field draws the test suite's small rationals (numerator
    and denominator at most 9).  The dyadic field draws n / 2^e with
    |n| <= 9 and e <= 3, keeps to constructions that stay dyadic, and so
    gives values that floats hold exactly.
    """

    def __init__(self, dyadic: bool):
        self.dyadic = dyadic

    def scalar(self, rng) -> Fraction:
        if self.dyadic:
            return Fraction(rng.randint(-9, 9), 2 ** rng.randint(0, 3))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def nonzero(self, rng) -> Fraction:
        while True:
            x = self.scalar(rng)
            if x != 0:
                return x

    def circle(self, rng):
        """A point (c, s) with c^2 + s^2 = 1."""
        if self.dyadic:
            return tuple(Fraction(x) for x in rng.choice(_AXES))
        t = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        d = 1 + t * t
        c, s = (1 - t * t) / d, 2 * t / d
        return (-c, -s) if rng.random() < 0.5 else (c, s)

    def conjugator(self, rng):
        """An invertible element whose inverse stays in the field."""
        while True:
            if self.dyadic:
                q = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
                if abs(qform(q)) in (1, 2, 4, 8):
                    return q
            else:
                q = quat(self, rng)
                if qform(q) != 0:
                    return q

    def divisor(self, x: Fraction) -> bool:
        """Whether dividing by x keeps values in the field."""
        if x == 0:
            return False
        n = abs(x.numerator)
        return not self.dyadic or n & (n - 1) == 0


RATIONAL = Field(dyadic=False)
DYADIC = Field(dyadic=True)


# ----------------------------------------------------------------------
# elements and pairs
# ----------------------------------------------------------------------


def quat(f, rng):
    return tuple(f.scalar(rng) for _ in range(4))


def nonreal(f, rng):
    while True:
        q = quat(f, rng)
        if not is_real(q):
            return q


def lightlike(f, rng):
    """Nonzero zero divisor c1 + c2*j with c2 = c1 turned by a circle point."""
    while True:
        x, y = f.scalar(rng), f.scalar(rng)
        if x == 0 and y == 0:
            continue
        c, s = f.circle(rng)
        return (x, y, x * c - y * s, x * s + y * c)


def timelike(f, rng):
    q = quat(f, rng)
    return (1 + abs(q[2]) + abs(q[3]), q[1], q[2], q[3])


def spacelike(f, rng):
    q = quat(f, rng)
    return (q[0], q[1], 1 + abs(q[0]) + abs(q[1]), q[3])


def invertible(f, rng):
    while True:
        q = quat(f, rng)
        if qform(q) != 0:
            return q


def k_plus(f, rng, s):
    """Non-real element with im_squared = s^2."""
    while True:
        a0, a1 = f.scalar(rng), f.scalar(rng)
        if s == 0 and a1 == 0:
            continue
        c, sn = f.circle(rng)
        return (a0, a1, s * c - a1 * sn, s * sn + a1 * c)


def k_minus(f, rng, s):
    """Non-real element with im_squared = -s^2, s != 0."""
    a0, a3 = f.scalar(rng), f.scalar(rng)
    n = s * s + a3 * a3
    return (a0, (n + 1) / 2, (n - 1) / 2, a3)


def similar_pair(f, rng, sign):
    """(a, c*a*c^-1) with im_squared of the given sign."""
    if sign > 0:
        a = k_plus(f, rng, abs(f.nonzero(rng)))
    elif sign < 0:
        a = k_minus(f, rng, f.nonzero(rng))
    else:
        a = k_plus(f, rng, Fraction(0))
    return a, conjugate_by(f.conjugator(rng), a)


def rank3_pair(f, rng):
    """Non-real pair with distinct real parts and singular t_matrix."""
    while True:
        s, u = abs(f.nonzero(rng)), abs(f.nonzero(rng))
        d = rng.choice((s - u, s + u, u - s, -s - u))
        if d == 0:
            continue
        a = k_plus(f, rng, s)
        b_im = k_plus(f, rng, u)
        b = (a[0] - d,) + b_im[1:]
        if not is_real(b):
            return a, b


def t_nonsingular_pair(f, rng):
    while True:
        a, b = nonreal(f, rng), nonreal(f, rng)
        if rank(t_mat(a, b)) == 4:
            return a, b


def not_similar_pair(f, rng, same_re):
    while True:
        a = nonreal(f, rng)
        if same_re:
            shifted = qadd(a, (0, 0, f.nonzero(rng), 0))
            if qk(shifted) == qk(a):
                continue
            b = conjugate_by(f.conjugator(rng), shifted)
        else:
            b = qadd(conjugate_by(f.conjugator(rng), a), (f.nonzero(rng), 0, 0, 0))
        if not is_real(b):
            return a, b


def consim_pair(f, rng, case):
    """Pair in one of the five rank cases of s_matrix."""
    while True:
        if case == "rank1":
            a = nonreal(f, rng)
            return a, tuple(-x for x in qconj(a))
        if case == "rank3b":
            w = lightlike(f, rng)
            if not f.divisor(w[3]):
                continue
            a0, a1, a2 = f.scalar(rng), f.scalar(rng), f.scalar(rng)
            # conj(a) orthogonal to w under the polar form keeps I(b) = I(a)
            a = (a0, a1, a2, -(w[0] * a0 - w[1] * a1 + w[2] * a2) / w[3])
            b = qsub(w, qconj(a))
        elif case == "rank3c":
            a, w = nonreal(f, rng), lightlike(f, rng)
            b = qsub(w, qconj(a))
            if qform(a) == qform(b):
                continue
        elif case == "rank3a":
            a = nonreal(f, rng)
            b = conjugate_by(f.conjugator(rng), qconj(a))
            w = qadd(qconj(a), b)
            if qform(w) == 0:
                continue
        else:
            a, b = nonreal(f, rng), nonreal(f, rng)
            w = qadd(qconj(a), b)
            if qform(a) == qform(b) or qform(w) == 0:
                continue
        if not is_real(a) and not is_real(b):
            return a, b


def t_pair(f, rng, case):
    if case == "rank2+":
        return similar_pair(f, rng, 1)
    if case == "rank2-":
        return similar_pair(f, rng, -1)
    if case == "rank3":
        return rank3_pair(f, rng)
    return t_nonsingular_pair(f, rng)


# ----------------------------------------------------------------------
# one generator per (kind, case)
# ----------------------------------------------------------------------


def _solvable_rhs(f, rng, matrix_of, product, solvable):
    """d for a linear equation, consistent or not as asked."""
    while True:
        d = product(quat(f, rng)) if solvable else quat(f, rng)
        if consistent(matrix_of, d) == solvable:
            return d


def _gen_solve(kind, case, f, rng):
    a, y = lightlike(f, rng), quat(f, rng)
    solvable = case == "solvable"
    if kind in ("solve_axb", "family_axb"):
        b = lightlike(f, rng)
        d = _solvable_rhs(f, rng, axb_mat(a, b), lambda x: qmul(qmul(a, x), b), solvable)
        return (a, b, d, y)
    if kind == "solve_axd":
        m = linmap(lambda x: qmul(a, x))
        return (a, _solvable_rhs(f, rng, m, lambda x: qmul(a, x), solvable), y)
    m = linmap(lambda x: qmul(x, a))
    return (a, _solvable_rhs(f, rng, m, lambda x: qmul(x, a), solvable), y)


def _gen_canonical(case, f, rng):
    if case == "K=0":
        return (k_plus(f, rng, Fraction(0)),)
    if case == "K>0 square":
        return (k_plus(f, rng, abs(f.nonzero(rng))),)
    if case == "K<0 square":
        return (k_minus(f, rng, f.nonzero(rng)),)
    while True:
        a = nonreal(f, rng)
        k = qk(a)
        if k != 0 and exact_sqrt(abs(k)) is None:
            return (a,)


def _gen_similar(case, f, rng):
    if case.startswith("similar"):
        return similar_pair(f, rng, {"K>0": 1, "K<0": -1, "K=0": 0}[case.split()[1]])
    return not_similar_pair(f, rng, same_re=case == "not similar, same re")


def generate(kind, case, f, rng):
    """Arguments of one item, in the order ``ops.RUN[kind]`` takes them."""
    if kind == "classify":
        return ({"timelike": timelike, "spacelike": spacelike, "lightlike": lightlike}[case](f, rng),)
    if kind in ("mp_inverse", "penrose"):
        a = lightlike(f, rng) if case == "lightlike" else invertible(f, rng)
        return (a,) if kind == "mp_inverse" else (a, quat(f, rng))
    if kind == "projectors":
        return (lightlike(f, rng),)
    if kind == "power":
        q = lightlike(f, rng) if case == "lightlike" else quat(f, rng)
        return (q, rng.randint(2, 7))
    if kind == "nth_roots":
        return (lightlike(f, rng), rng.randint(2, 5))
    if kind in ("solve_axb", "solve_axd", "solve_xad", "family_axb"):
        return _gen_solve(kind, case, f, rng)
    if kind == "family_ax0":
        return (lightlike(f, rng), quat(f, rng))
    if kind == "is_similar":
        return _gen_similar(case, f, rng)
    if kind == "canonical_form":
        return _gen_canonical(case, f, rng)
    if kind == "is_consimilar":
        return consim_pair(f, rng, case)
    if kind == "family_xa_bx":
        return t_pair(f, rng, case) + (quat(f, rng),)
    if kind == "family_xa_bxbar":
        return consim_pair(f, rng, case) + (quat(f, rng),)
    if kind in ("mat_mp_inverse", "nullspace_basis"):
        which, sub = case.split(" ", 1)
        pair = t_pair(f, rng, sub) if which == "T" else consim_pair(f, rng, sub)
        return (which,) + pair
    raise ValueError(f"unknown kind {kind!r}")


#: Quaternion-level menu: no Mat4 on the path of any op.
ALGEBRA = {
    "classify": ("timelike", "spacelike", "lightlike"),
    "mp_inverse": ("lightlike", "invertible"),
    "projectors": ("lightlike",),
    "power": ("lightlike", "general"),
    "nth_roots": ("lightlike",),
    "solve_axb": ("solvable", "unsolvable"),
    "solve_axd": ("solvable", "unsolvable"),
    "solve_xad": ("solvable", "unsolvable"),
    "is_similar": (
        "similar K>0",
        "similar K<0",
        "similar K=0",
        "not similar, same re",
        "not similar, other re",
    ),
    "canonical_form": ("K=0", "K>0 square", "K<0 square", "K non-square"),
    "is_consimilar": ("nonsingular", "rank1", "rank3a", "rank3b", "rank3c"),
}

_S_CASES = ("nonsingular", "rank1", "rank3a", "rank3b", "rank3c")

#: Complete solution spaces, consumed as the CLI does.
FAMILIES = {
    "family_axb": ("solvable",),
    "family_ax0": ("lightlike",),
    "family_xa_bx": ("rank2+", "rank2-", "rank3", "nonsingular"),
    "family_xa_bxbar": _S_CASES,
    "mat_mp_inverse": ("T rank2+", "T rank3", "S rank1", "S rank3b", "S nonsingular"),
    "nullspace_basis": ("T rank2-", "T rank3", "S rank1", "S rank3a", "S rank3c"),
    "penrose": ("lightlike", "invertible"),
}

#: Items per case in one pool.
PER_CASE = {"algebra-exact": 64, "families-exact": 48, "float-mixed": 32}


def menu(workload: str):
    """{kind: cases} of a library workload."""
    if workload == "float-mixed":
        return {**ALGEBRA, **FAMILIES}
    return ALGEBRA if workload == "algebra-exact" else FAMILIES


def pool(workload: str, seed: int):
    """The seeded, shuffled item list a run cycles through."""
    rng = random.Random(f"{workload}/{seed}")
    f = DYADIC if workload == "float-mixed" else RATIONAL
    items = []
    for kind, cases in menu(workload).items():
        for case in cases:
            for n in range(PER_CASE[workload]):
                args = generate(kind, case, f, rng)
                if n % 4 == 3:
                    # one item in four goes through one extra conjugation,
                    # which keeps its structure and makes its rationals taller
                    c = f.conjugator(rng)
                    args = tuple(
                        conjugate_by(c, x) if isinstance(x, tuple) and i < _SCALED.get(kind, len(args)) else x
                        for i, x in enumerate(args)
                    )
                k = 0
                if workload == "float-mixed":
                    k = rng.randint(-20, 20)
                    args = scale_args(kind, args, k)
                items.append((kind, case, args, k))
    rng.shuffle(items)
    return items


#: How many leading arguments carry the problem (the rest, such as the
#: probe point y of ``family.at``, are free and stay unscaled).
_SCALED = {
    "solve_axb": 3,
    "family_axb": 3,
    "solve_axd": 2,
    "solve_xad": 2,
    "family_ax0": 1,
    "family_xa_bx": 2,
    "family_xa_bxbar": 2,
    "mat_mp_inverse": 3,
    "nullspace_basis": 3,
}


def scale_args(kind, args, k):
    """Multiply the problem's quaternions by 2^k, exactly."""
    s = Fraction(2) ** k
    limit = _SCALED.get(kind, len(args))
    return tuple(
        tuple(c * s for c in x) if isinstance(x, tuple) and i < limit else x
        for i, x in enumerate(args)
    )


# ----------------------------------------------------------------------
# the CLI workload
# ----------------------------------------------------------------------

#: The command lines of the README, verbatim.
README_COMMANDS = (
    ("classify", "1+3i+2j+k"),
    ("pinv", "1+j"),
    ("roots", "1+j", "-n", "2"),
    ("power", "1+j", "-n", "3"),
    ("solve-axb", "1+j", "1+j", "1+j"),
    ("solve-ax0", "1+j"),
    ("solve-axd", "1+j", "1+j"),
    ("solve-xad", "1+j", "0"),
    ("similar", "1+5i+3j+4k", "1+13i+12j+5k"),
    ("sim-solve", "1+5i+5j+2k", "2+i+j+3k"),
    ("canonical", "1+3i+2j+k"),
    ("consimilar", "1+2i+3j+4k", "2+i+3j+4k"),
    ("consim-solve", "1+2i+3j+4k", "2+i+3j+4k"),
    ("matrix", "L", "i"),
    ("matrix", "T", "1+5i+3j+4k", "1+13i+12j+5k"),
)


def literal(q) -> str:
    """A quaternion literal the CLI parses back to q, never starting with '-'."""
    terms = []
    for c, unit in zip(q, ("", "i", "j", "k")):
        if c == 0:
            continue
        body = str(abs(c))
        if unit:
            body = unit if abs(c) == 1 else body + unit
        terms.append(("-" if c < 0 else "+") + body)
    if not terms:
        return "0"
    terms.sort(key=lambda t: t[0] == "-")
    text = "".join(terms)
    return text[1:] if text[0] == "+" else "0" + text


#: Subcommand -> (the kind whose generator builds its inputs, literals it takes).
_CLI_KINDS = {
    "classify": ("classify", 1),
    "pinv": ("mp_inverse", 1),
    "roots": ("nth_roots", 1),
    "power": ("power", 1),
    "solve-axb": ("solve_axb", 3),
    "solve-ax0": ("family_ax0", 1),
    "solve-axd": ("solve_axd", 2),
    "solve-xad": ("solve_xad", 2),
    "similar": ("is_similar", 2),
    "sim-solve": ("family_xa_bx", 2),
    "canonical": ("canonical_form", 1),
    "consimilar": ("is_consimilar", 2),
    "consim-solve": ("family_xa_bxbar", 2),
}


def _seeded_command(cmd, j, f, rng):
    """The j-th seeded command line of a subcommand; cases rotate with j."""
    if cmd == "matrix":
        which = "RSLT"[j % 4]
        return [which] + [literal(nonreal(f, rng)) for _ in range(1 if which in "LR" else 2)]
    kind, count = _CLI_KINDS[cmd]
    cases = menu("float-mixed")[kind]
    args = generate(kind, cases[j % len(cases)], f, rng)
    line = [literal(x) for x in args[:count]]
    if cmd in ("roots", "power"):
        line += ["-n", str(args[1])]
    return line


#: Seeded command lines per subcommand in one pool.
CLI_SEEDED = 4


def cli_pool(seed: int):
    """argv lists: README lines on both backends, seeded lines on exact.

    Seeded lines stay on the exact backend: on the float backend a seeded
    line now and then trips the scale defect (``"verified": false``), and
    no op of this workload may fail.  ``float-mixed`` measures that defect.
    """
    rng = random.Random(f"cli/{seed}")
    argvs = []
    for line in README_COMMANDS:
        argvs.append(list(line) + ["--json"])
        argvs.append(list(line) + ["--json", "--backend", "approx"])
    for cmd in dict.fromkeys(c[0] for c in README_COMMANDS):
        for j in range(CLI_SEEDED):
            argvs.append([cmd] + _seeded_command(cmd, j, RATIONAL, rng) + ["--json"])
    rng.shuffle(argvs)
    return argvs
