#!/usr/bin/env python3
"""Fingerprint every output of the benchmark's input pools, to compare two checkouts.

For each seed it runs, in process and on the checkout it lives in:

* every ``perfbench/inputs.py`` ``cli_pool`` line through
  ``splitquat.cli.main``, once as text (``--json`` dropped) and once with
  ``--json``: exit code, stdout and stderr;
* every ``cli_pool`` line again on the float backend (``cli-approx``:
  ``--backend approx`` in place of any backend option), as text and
  with ``--json``, so that the float bodies the seeded lines reach are
  fingerprinted too;
* the same float lines with ``--eps 1e-3`` added (``cli-eps``), so that
  the tolerance is fingerprinted on its way to each solver and each check;
* every item of the ``algebra-exact`` and ``families-exact`` pools, and of
  the float ``float-mixed`` pool, through perfbench's op table
  (``perfbench/ops.py``): the result down to the ``repr`` of each scalar
  (so floats compare bit for bit), or the type and message of the
  exception it raised; each ``family_*`` item also calls its solver
  directly and prints the whole family (its ``constant``, ``terms`` and
  ``linear_matrix``), so that a change to how a family is built shows
  even where ``dimension``, ``basis()`` and ``at`` do not move it;
* every item of the ``algebra-exact`` and ``families-exact`` pools again
  on the float backend (``float-rounded``), each rational rounded to the
  nearest float, and fingerprinted as above: ``float-mixed`` inputs are
  dyadic and ``cli-approx`` prints 12 digits, so this mode pins the
  float bits on inputs that are not binary-exact;
* the ``Mat4`` queries on L(a), R(a), L(a)R(b), T(a, b) and S(a, b) for
  the first two quaternions (a twice if it is the only one) of every item
  of the ``algebra-exact``, ``families-exact`` and ``float-mixed`` pools
  (``matrices``): ``rank``, ``det``, ``nullspace_basis``,
  ``image_basis``, ``mat_mp_inverse`` and ``linear_system_consistent``
  against each unit column, on the exact backend and on floats, so that
  queries no pool op reaches, such as ``det`` and the image bases of T
  and S, are fingerprinted too;
* 5000 seeded strings of up to 12 characters over the literal alphabet,
  space, ``x``, ``\u0661`` and ``\u00b2``, and the long literals of
  ``tests/test_parsing.py`` (``parse``), through ``parse_quat`` on each
  backend: the four coefficients' ``repr``, or the error's type and
  message.

It prints one SHA-256 per seed and mode.  With ``--dump`` it prints the
lines that are hashed instead, so two checkouts can be compared line by
line with ``diff``::

    python3 scripts/identity_check.py --seeds 1-20
    python3 scripts/identity_check.py --seeds 3 --dump > new.txt

``--diff OLD NEW`` reads two such dumps and prints the lines that moved,
grouped by mode and kind (the op kind of a pool item, the subcommand of
a CLI line, the backend of a parse), each group with its count, then
the total::

    python3 scripts/identity_check.py --diff old.txt new.txt

perfbench is imported and never written to (no bytecode is cached).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402  (perfbench/inputs.py)
import ops  # noqa: E402  (perfbench/ops.py)
import splitquat.cli  # noqa: E402
from splitquat import (  # noqa: E402
    Mat4, SolutionFamily, left_matrix, linear_system_consistent, mat_mp_inverse, nullspace_basis, parse_quat,
    right_matrix, s_matrix, solve_ax0, solve_axb, solve_xa_bx, solve_xa_bxbar, t_matrix,
)
from splitquat.core import Frozen  # noqa: E402
from splitquat.matrices import image_basis  # noqa: E402

MODES = (
    "cli-text", "cli-json", "cli-approx", "cli-eps", "algebra-exact", "families-exact", "float-mixed",
    "float-rounded", "matrices", "parse",
)

#: The characters of the parse mode's strings: the literal alphabet, then a
#: space, a letter, an Arabic-Indic digit one and a superscript two.
PARSE_ALPHABET = "0123456789./eE+-ijk x\u0661\u00b2"
#: A 5000-digit integer, alone, as a numerator and as a denominator: longer than int() reads.
PARSE_LONG = ("1" * 5000, "1" * 5000 + "/3", "1-3/" + "1" * 5000)
PARSE_BACKENDS = (None, "exact", "approx")

#: The family of each family_* pool item, from its solver (None for an unsolvable a*x*b = d).
FAMILIES = {
    "family_axb": lambda a, b, d, y: solve_axb(a, b, d).family,
    "family_ax0": lambda a, y: solve_ax0(a),
    "family_xa_bx": lambda a, b, y: solve_xa_bx(a, b),
    "family_xa_bxbar": lambda a, b, y: solve_xa_bxbar(a, b),
}


#: The matrices of the matrices mode, from a pair (a, b).
MATRICES = {
    "L": lambda a, b: left_matrix(a),
    "R": lambda a, b: right_matrix(a),
    "LR": lambda a, b: left_matrix(a) @ right_matrix(b),
    "T": t_matrix,
    "S": s_matrix,
}
#: The queries of the matrices mode, each on one matrix.
QUERIES = {
    "rank": Mat4.rank,
    "det": Mat4.det,
    "nullspace_basis": nullspace_basis,
    "image_basis": image_basis,
    "mat_mp_inverse": mat_mp_inverse,
    **{
        f"consistent e{t + 1}": lambda m, t=t: linear_system_consistent(m, [int(i == t) for i in range(4)])
        for t in range(4)
    },
}
MATRIX_POOLS = ("algebra-exact", "families-exact", "float-mixed")
#: The exact pools that the float-rounded mode runs on floats.
ROUNDED_POOLS = ("algebra-exact", "families-exact")


def _text(argv) -> list:
    return [arg for arg in argv if arg != "--json"]


def _approx(argv) -> list:
    """argv on the float backend: any --backend option is replaced by --backend approx."""
    i = argv.index("--backend") if "--backend" in argv else len(argv)
    return argv[:i] + argv[i + 2 :] + ["--backend", "approx"]


def _cli_line(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = splitquat.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the line
            code = exc.code
    return f"{' '.join(argv)!r} -> {code} {out.getvalue()!r} {err.getvalue()!r}"


def _canon(x) -> str:
    """A result down to the repr of each scalar: Fractions exactly, floats bit for bit."""
    if isinstance(x, SolutionFamily):  # the whole family: its fields and its linear matrix
        return "SolutionFamily" + _canon((x.constant, x.terms, x.linear_matrix))
    if isinstance(x, Frozen):
        return type(x).__name__ + _canon(x._values())
    if isinstance(x, Mat4):
        return "Mat4" + _canon(x.rows)
    if isinstance(x, dict):
        return "{" + ", ".join(f"{k!r}: {_canon(v)}" for k, v in x.items()) + "}"
    if isinstance(x, (list, tuple)):
        body = ", ".join(map(_canon, x))
        return f"[{body}]" if isinstance(x, list) else f"({body})"
    return repr(x)


def _outcome(run, args, approx: bool) -> str:
    """_canon of run(*args) on library values, or the type and message of the error it raised."""
    try:
        return _canon(run(*ops.to_library(args, approx)))
    except Exception as exc:  # a raised error is an output too
        return f"{type(exc).__name__}: {exc}"


def _item_line(kind, case, args, approx: bool) -> str:
    line = f"{kind} [{case}] {args!r} -> {_outcome(ops.RUN[kind], args, approx)}"
    if kind in FAMILIES:
        line += f" family {_outcome(FAMILIES[kind], args, approx)}"
    return line


def _queries(m: Mat4) -> dict:
    """Every query of the matrices mode on m: its result, or the type and message of its error."""
    out = {}
    for name, run in QUERIES.items():
        try:
            out[name] = run(m)
        except Exception as exc:  # a raised error is an output too
            out[name] = f"{type(exc).__name__}: {exc}"
    return out


def _matrix_lines(seed: int, limit) -> list:
    """The matrices mode: one line per pool pair and matrix, with every query on both backends."""
    out = []
    for workload in MATRIX_POOLS:
        for i, (_, _, args, _) in enumerate(inputs.pool(workload, seed)[:limit]):
            quats = [x for x in args if isinstance(x, tuple)]
            pair = (quats[0], quats[1 % len(quats)])
            for name, build in MATRICES.items():
                exact, approx = (_outcome(lambda a, b: _queries(build(a, b)), pair, f) for f in (False, True))
                out.append(f"{name} {workload}:{i} {pair!r} -> exact {exact} | float {approx}")
    return out[:limit]


def _parse_texts(seed: int) -> list:
    """The parse mode's literals of one seed: 5000 seeded strings, then the long ones."""
    rng = random.Random(f"parse/{seed}")
    drawn = ["".join(rng.choice(PARSE_ALPHABET) for _ in range(rng.randint(0, 12))) for _ in range(5000)]
    return drawn + list(PARSE_LONG)


def _parse_line(text: str, backend) -> str:
    try:
        result = repr(parse_quat(text, backend).coeffs)
    except Exception as exc:  # a raised error is an output too
        result = f"{type(exc).__name__}: {exc}"
    return f"{text!r} {backend} -> {result}"


def lines(seed: int, mode: str, limit=None):
    """The output lines of one seed and mode, in pool order; the first ``limit`` of each pool only if given."""
    if mode == "parse":
        return [_parse_line(text, b) for text in _parse_texts(seed) for b in PARSE_BACKENDS][:limit]
    if mode == "matrices":
        return _matrix_lines(seed, limit)
    if mode.startswith("cli-"):
        argvs = inputs.cli_pool(seed)
        if mode == "cli-text":
            argvs = [_text(argv) for argv in argvs]
        elif mode in ("cli-approx", "cli-eps"):
            tail = ["--eps", "1e-3"] if mode == "cli-eps" else []
            argvs = [v + tail for argv in map(_approx, argvs) for v in (_text(argv), argv)]
        return [_cli_line(argv) for argv in argvs[:limit]]
    if mode == "float-rounded":
        items = [item for pool in ROUNDED_POOLS for item in inputs.pool(pool, seed)[:limit]]
        return [_item_line(kind, case, args, True) for kind, case, args, _ in items]
    approx = mode == "float-mixed"
    return [_item_line(kind, case, args, approx) for kind, case, args, _ in inputs.pool(mode, seed)[:limit]]


def digest(output_lines) -> str:
    return hashlib.sha256("\n".join(output_lines).encode()).hexdigest()


def _read_dump(path: str, keys=None) -> dict:
    """{(seed, mode, index): line} of a --dump file: the lines of the given keys, or every line's SHA-1.

    A dump of every mode over seeds 1-20 is about a gigabyte, so a diff
    holds digests and reads back only the lines that moved.
    """
    with open(path) as f:
        rows = (row.rstrip("\n").split(" ", 3) for row in f)
        rows = (((int(seed), mode, int(i)), line) for seed, mode, i, line in rows)
        if keys is None:
            return {key: hashlib.sha1(line.encode()).digest() for key, line in rows}
        return {key: line for key, line in rows if key in keys}


def _kind(mode: str, line: str) -> str:
    """The op kind of a pool item's line, the subcommand of a CLI line, or the backend of a parse."""
    if mode == "parse":
        return line.split(" -> ", 1)[0].rsplit(" ", 1)[1]
    if mode.startswith("cli-"):
        return ast.literal_eval(line.split(" -> ", 1)[0]).split(" ", 1)[0]
    return line.split(" ", 1)[0]


def diff(old_path: str, new_path: str) -> None:
    """Print the lines of two dumps that differ, grouped by mode and kind, with counts."""
    old, new = _read_dump(old_path), _read_dump(new_path)
    keys = old.keys() | new.keys()
    changed = {key for key in keys if old.get(key) != new.get(key)}
    old, new = _read_dump(old_path, changed), _read_dump(new_path, changed)
    groups = {}
    for key in sorted(changed, key=lambda k: (k[1], k[0], k[2])):
        before, after = old.get(key, "(absent)"), new.get(key, "(absent)")
        mode = key[1]
        kind = _kind(mode, after if before == "(absent)" else before)
        groups.setdefault((mode, kind), []).append((key, before, after))
    for (mode, kind), moved in sorted(groups.items()):
        print(f"{mode} {kind}: {len(moved)} moved")
        for (seed, _, i), before, after in moved:
            print(f"  {seed} {mode} {i}\n  - {before}\n  + {after}")
    total = sum(map(len, groups.values()))
    print(f"moved: {total} of {len(keys)} lines")


def _seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", default=["1-20"], help="seeds or ranges, such as 3 or 1-20")
    parser.add_argument("--modes", nargs="+", choices=MODES, default=list(MODES))
    parser.add_argument("--limit", type=int, default=None, help="only the first N lines of each pool")
    parser.add_argument("--dump", action="store_true", help="print the lines instead of their hashes")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"), help="compare two --dump files")
    args = parser.parse_args(argv)
    if args.diff:
        diff(*args.diff)
        return 0
    for seed in (s for text in args.seeds for s in _seeds(text)):
        for mode in args.modes:
            output = lines(seed, mode, args.limit)
            if args.dump:
                for i, line in enumerate(output):
                    print(f"{seed} {mode} {i} {line}")
            else:
                print(f"{seed} {mode} {len(output)} {digest(output)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
