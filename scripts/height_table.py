#!/usr/bin/env python3
"""Exact arithmetic by height: microseconds per op on inputs of 1, 30, 100 and 300 digits.

Every coefficient of an input quaternion is a ratio of two random
D-digit integers, each coefficient over its own denominator, so that a
common denominator is as tall as it gets.  A lightlike input is
(cos u, sin u, cos v, sin v), with the cosines and sines built from
rational tangents of the half angles of about D/2 digits over D/2
digits, so that its coefficients have about D digits too.  The ops, all
on the exact backend of the checkout the script lives in:

* ``mul``: ``a * b``;
* ``mp_inverse``: ``mp_inverse(a)``, a invertible;
* ``mat_mp_inverse_r4``: ``mat_mp_inverse(L(a) R(b))``, a and b invertible (rank 4);
* ``mat_mp_inverse_r3``: ``mat_mp_inverse(F @ H)``, F and H of D-digit ratios,
  F with its last column 0 and H with its last row 0: a 4 x 3 by 3 x 4 product (rank 3);
* ``mat_mp_inverse_r2``: ``mat_mp_inverse(L(l) R(a))``, l lightlike (rank 2);
* ``mat_mp_inverse_r1``: ``mat_mp_inverse(F @ H)`` as above, of a 4 x 1 and a 1 x 4 factor (rank 1);
* ``solve_axb``: ``solve_axb(l, l, l a l).family.dimension``, l lightlike.

Each figure is the best of ``--repeat`` timings of one pass over
``--inputs`` seeded inputs, each pass repeated until it takes at least
``--min-time`` seconds, divided by the number of calls.  It prints one
row per op and one column per height::

    python3 scripts/height_table.py
    python3 scripts/height_table.py --digits 1 300 --repeat 3
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))

import splitquat as sq  # noqa: E402

OPS = (
    "mul",
    "mp_inverse",
    "mat_mp_inverse_r4",
    "mat_mp_inverse_r3",
    "mat_mp_inverse_r2",
    "mat_mp_inverse_r1",
    "solve_axb",
)


def _int(rng: random.Random, digits: int) -> int:
    return rng.randint(10 ** (digits - 1), 10**digits - 1)


def _ratio(rng: random.Random, digits: int) -> Fraction:
    return Fraction(rng.choice((1, -1)) * _int(rng, digits), _int(rng, digits))


def _invertible(rng: random.Random, digits: int) -> sq.SplitQuaternion:
    while True:
        q = sq.SplitQuaternion(*(_ratio(rng, digits) for _ in range(4)))
        if q.quadratic_form != 0:
            return q


def _circle(rng: random.Random, digits: int):
    """(cos, sin) from the tangent t of the half angle: ((1 - t^2) / (1 + t^2), 2t / (1 + t^2))."""
    t = _ratio(rng, max(1, digits // 2))
    return (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)


def _lightlike(rng: random.Random, digits: int) -> sq.SplitQuaternion:
    return sq.SplitQuaternion(*_circle(rng, digits), *_circle(rng, digits))


def _factored(rng: random.Random, digits: int, r: int) -> sq.Mat4:
    """F @ H with F of 4 x r and H of r x 4 D-digit ratios, each padded with zeros to 4 x 4."""
    f = [[_ratio(rng, digits) if j < r else 0 for j in range(4)] for _ in range(4)]
    h = [[_ratio(rng, digits) if i < r else 0 for _ in range(4)] for i in range(4)]
    return sq.Mat4(f) @ sq.Mat4(h)


def calls(digits: int, count: int):
    """{op: [zero-argument callables]} on ``count`` seeded inputs of the given height."""
    rng = random.Random(f"height/{digits}")
    out = {op: [] for op in OPS}
    for _ in range(count):
        a, b, l = _invertible(rng, digits), _invertible(rng, digits), _lightlike(rng, digits)
        lr4 = sq.left_matrix(a) @ sq.right_matrix(b)
        lr2 = sq.left_matrix(l) @ sq.right_matrix(a)
        d = l * a * l
        out["mul"].append(lambda a=a, b=b: a * b)
        out["mp_inverse"].append(lambda a=a: sq.mp_inverse(a))
        out["mat_mp_inverse_r4"].append(lambda m=lr4: sq.mat_mp_inverse(m))
        out["mat_mp_inverse_r2"].append(lambda m=lr2: sq.mat_mp_inverse(m))
        for r in (1, 3):
            out[f"mat_mp_inverse_r{r}"].append(lambda m=_factored(rng, digits, r): sq.mat_mp_inverse(m))
        out["solve_axb"].append(lambda l=l, d=d: sq.solve_axb(l, l, d).family.dimension)
    return out


def per_call_us(fns, repeat: int, min_time: float) -> float:
    """Best of ``repeat`` timings of passes over fns, in microseconds per call."""
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            for fn in fns:
                fn()
        if time.perf_counter() - start >= min_time:
            break
        number *= 2
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            for fn in fns:
                fn()
        best = min(best, time.perf_counter() - start)
    return best / (number * len(fns)) * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--digits", type=int, nargs="+", default=[1, 30, 100, 300], help="heights, in digits")
    parser.add_argument("--inputs", type=int, default=5, help="seeded inputs per op and height")
    parser.add_argument("--repeat", type=int, default=5, help="timings per figure; the best is printed")
    parser.add_argument("--min-time", type=float, default=0.1, help="seconds a timed pass takes at least")
    args = parser.parse_args(argv)
    if min(args.digits) < 1 or args.inputs < 1 or args.repeat < 1:
        parser.error("--digits, --inputs and --repeat must be at least 1")
    table = {op: [] for op in OPS}
    for digits in args.digits:
        for op, fns in calls(digits, args.inputs).items():
            table[op].append(per_call_us(fns, args.repeat, args.min_time))
    print("op".ljust(18) + "".join(f"{d:>12}" for d in args.digits))
    for op, row in table.items():
        print(op.ljust(18) + "".join(f"{x:12.1f}" for x in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
