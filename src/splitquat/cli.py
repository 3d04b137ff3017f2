"""Command-line front end.

Each subcommand parses quaternion literals, runs one analysis, and
prints either human-readable text or a JSON document (``--json``).
Every answer ships with a ``verified`` flag reporting a post-hoc
substitution check of the result.  Exit status: 0 for success and true
verdicts, 1 for false similar/consimilar verdicts, 2 for errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from . import consimilarity, pinv, roots, similarity, solvers
from .core import I, J, K, ONE, SplitQuaternion, ZERO
from .errors import SplitQuaternionError
from .matrices import (
    left_matrix,
    linear_system_consistent,
    right_matrix,
    s_matrix,
    t_matrix,
    vec,
)
from .parsing import parse_quat
from .scalars import DEFAULT_EPS, format_scalar
from .solvers import SolveOutcome, SolutionFamily

_SOLVE_PROBES = (ZERO, ONE, I, J, K)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON document")
    common.add_argument(
        "--backend",
        choices=("exact", "approx"),
        default=None,
        help="force exact rationals or floats (default: exact unless a literal is decimal)",
    )
    common.add_argument(
        "--eps",
        type=float,
        default=None,
        help=f"float-backend tolerance (default {DEFAULT_EPS}, or SPLITQ_EPS)",
    )
    common.add_argument(
        "--seed", type=int, default=0, help="deprecated and ignored: witnesses are deterministic"
    )

    parser = argparse.ArgumentParser(
        prog="splitquat", description="Split-quaternion algebra toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *positionals: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help_text)
        for pos in positionals:
            p.add_argument(pos)
        return p

    add("classify", "causal class of Q", "quat")
    add("pinv", "Moore-Penrose inverse of Q", "quat")
    p = add("roots", "nth roots of a lightlike Q", "quat")
    p.add_argument("-n", type=int, required=True, help="root degree, n >= 2")
    p = add("power", "Q raised to a positive integer power", "quat")
    p.add_argument("-n", type=int, required=True, help="exponent, n >= 1")
    add("solve-axb", "general solution of A x B = D", "a", "b", "d")
    add("solve-ax0", "right kernel of A (solutions of A x = 0)", "a")
    add("solve-axd", "general solution of A x = D", "a", "d")
    add("solve-xad", "general solution of x A = D", "a", "d")
    add("similar", "decide similarity of A and B, with witness", "a", "b")
    add("sim-solve", "all solutions of x A = B x", "a", "b")
    add("canonical", "conjugacy normal form of A, with conjugator", "a")
    add("consimilar", "decide consimilarity of A and B, with witness", "a", "b")
    add("consim-solve", "all solutions of x A = B conj(x)", "a", "b")
    p = sub.add_parser("matrix", parents=[common], help="representation matrices L, R, T, S")
    p.add_argument("kind", choices=("L", "R", "T", "S"))
    p.add_argument("quats", nargs="+", help="one literal for L/R, two for T/S")
    return parser


# ----------------------------------------------------------------------
# serialization helpers
# ----------------------------------------------------------------------


def _family_output(family: SolutionFamily, eps: float) -> Tuple[Dict, List[str]]:
    """JSON payload and text lines of a family, from one elimination at eps."""
    basis = family.basis(eps)
    payload = {
        "dimension": len(basis),
        "constant": str(family.constant),
        "terms": [[str(l), str(r)] for l, r in family.terms],
        "basis": [str(v) for v in basis],
    }
    lines = [f"dimension: {len(basis)}", f"constant: {family.constant}"]
    for left, right in family.terms:
        lines.append(f"term: ({left}) y ({right})")
    lines.append("basis: " + (", ".join(str(v) for v in basis) if basis else "(empty)"))
    return payload, lines


def _verify_family(family: SolutionFamily, residual, eps: float) -> bool:
    return all(residual(family.at(y)).is_zero(eps) for y in _SOLVE_PROBES)


def _solve_output(
    outcome: SolveOutcome, residual, matrix, rhs, eps: float
) -> Tuple[Dict, List[str], bool, int]:
    if outcome.solvable:
        verified = _verify_family(outcome.family, residual, eps)
        family_payload, family_lines = _family_output(outcome.family, eps)
        payload = {"solvable": True, "family": family_payload}
        return payload, ["solvable"] + family_lines, verified, 0
    verified = not linear_system_consistent(matrix, rhs, eps)
    payload = {"solvable": False, "certificate": str(outcome.certificate)}
    lines = ["unsolvable", f"certificate: {outcome.certificate}"]
    return payload, lines, verified, 0


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------


def _run(args, eps: float) -> Tuple[Dict, List[str], bool, int, List[SplitQuaternion]]:
    cmd = args.command
    parse = lambda s: parse_quat(s, backend=args.backend)

    if cmd == "classify":
        q = parse(args.quat)
        cls = q.classify(eps)
        return (
            {"class": cls.value, "quadratic_form": format_scalar(q.quadratic_form)},
            [cls.value],
            True,
            0,
            [q],
        )

    if cmd == "pinv":
        q = parse(args.quat)
        p = pinv.mp_inverse(q, eps)
        verified = (q * p * q).isclose(q, eps) and (p * q * p).isclose(p, eps)
        return {"pinv": str(p)}, [str(p)], verified, 0, [q]

    if cmd == "power":
        q = parse(args.quat)
        result = roots.power(q, args.n, eps)
        if args.n > 1:
            verified = (roots.power(q, args.n - 1, eps) * q).isclose(result, eps)
        else:
            verified = result.isclose(q, eps)
        return {"power": str(result)}, [str(result)], verified, 0, [q]

    if cmd == "roots":
        q = parse(args.quat)
        ws = roots.nth_roots(q, args.n, eps)
        qf = q.to_float()
        verified = all(roots.power(w, args.n, eps).isclose(qf, 1e-6) for w in ws)
        payload = {"roots": [str(w) for w in ws], "count": len(ws)}
        lines = [str(w) for w in ws] if ws else ["no roots"]
        return payload, lines, verified, 0, [q]

    if cmd == "solve-axb":
        a, b, d = parse(args.a), parse(args.b), parse(args.d)
        outcome = solvers.solve_axb(a, b, d, eps)
        payload, lines, verified, code = _solve_output(
            outcome, lambda x: a * x * b - d, left_matrix(a) @ right_matrix(b), vec(d), eps
        )
        return payload, lines, verified, code, [a, b, d]

    if cmd == "solve-ax0":
        a = parse(args.a)
        family = solvers.solve_ax0(a, eps)
        verified = _verify_family(family, lambda x: a * x, eps)
        family_payload, family_lines = _family_output(family, eps)
        payload = {"solvable": True, "family": family_payload}
        return payload, ["solvable"] + family_lines, verified, 0, [a]

    if cmd == "solve-axd":
        a, d = parse(args.a), parse(args.d)
        outcome = solvers.solve_axd(a, d, eps)
        payload, lines, verified, code = _solve_output(
            outcome, lambda x: a * x - d, left_matrix(a), vec(d), eps
        )
        return payload, lines, verified, code, [a, d]

    if cmd == "solve-xad":
        a, d = parse(args.a), parse(args.d)
        outcome = solvers.solve_xad(a, d, eps)
        payload, lines, verified, code = _solve_output(
            outcome, lambda x: x * a - d, right_matrix(a), vec(d), eps
        )
        return payload, lines, verified, code, [a, d]

    if cmd == "similar":
        a, b = parse(args.a), parse(args.b)
        verdict = similarity.is_similar(a, b, eps)
        if verdict:
            w = verdict.witness
            verified = (w * a).isclose(b * w, eps) and not w.is_lightlike(eps)
            payload = {"similar": True, "witness": str(w)}
            lines = ["similar", f"witness: {w}"]
            return payload, lines, verified, 0, [a, b]
        return {"similar": False}, ["not similar"], True, 1, [a, b]

    if cmd == "sim-solve":
        a, b = parse(args.a), parse(args.b)
        family = similarity.solve_xa_bx(a, b, eps)
        verified = _verify_family(family, lambda x: x * a - b * x, eps)
        family_payload, family_lines = _family_output(family, eps)
        return {"family": family_payload}, family_lines, verified, 0, [a, b]

    if cmd == "canonical":
        a = parse(args.a)
        form = similarity.canonical_form(a, eps)
        tol = eps if not form.exact else 0.0
        verified = (form.conjugator * a).isclose(
            form.target * form.conjugator, max(tol, eps)
        ) and not form.conjugator.is_lightlike(eps)
        payload = {
            "target": str(form.target),
            "conjugator": str(form.conjugator),
            "exact": form.exact,
        }
        lines = [f"target: {form.target}", f"conjugator: {form.conjugator}", f"exact: {form.exact}"]
        return payload, lines, verified, 0, [a]

    if cmd == "consimilar":
        a, b = parse(args.a), parse(args.b)
        verdict = consimilarity.is_consimilar(a, b, eps)
        if verdict:
            w = verdict.witness
            verified = (w * a).isclose(b * w.conjugate(), eps) and not w.is_lightlike(eps)
            payload = {"consimilar": True, "witness": str(w)}
            lines = ["consimilar", f"witness: {w}"]
            return payload, lines, verified, 0, [a, b]
        return {"consimilar": False}, ["not consimilar"], True, 1, [a, b]

    if cmd == "consim-solve":
        a, b = parse(args.a), parse(args.b)
        family = consimilarity.solve_xa_bxbar(a, b, eps)
        verified = _verify_family(family, lambda x: x * a - b * x.conjugate(), eps)
        family_payload, family_lines = _family_output(family, eps)
        return {"family": family_payload}, family_lines, verified, 0, [a, b]

    if cmd == "matrix":
        expected = 1 if args.kind in ("L", "R") else 2
        if len(args.quats) != expected:
            raise SplitQuaternionError(
                f"matrix {args.kind} takes exactly {expected} quaternion literal(s)"
            )
        qs = [parse(s) for s in args.quats]
        probes = (ONE + 2 * I + 3 * J + 4 * K, I + J)
        if args.kind == "L":
            m = left_matrix(qs[0])
            check = lambda x: vec(qs[0] * x)
        elif args.kind == "R":
            m = right_matrix(qs[0])
            check = lambda x: vec(x * qs[0])
        elif args.kind == "T":
            m = t_matrix(qs[0], qs[1])
            check = lambda x: vec(x * qs[0] - qs[1] * x)
        else:
            m = s_matrix(qs[0], qs[1])
            check = lambda x: vec(x * qs[0] - qs[1] * x.conjugate())
        verified = all(
            all(abs(u - v) <= eps for u, v in zip(m.apply(vec(x)), check(x))) for x in probes
        )
        payload = {"rows": [[format_scalar(x) for x in row] for row in m.rows]}
        return payload, [str(m)], verified, 0, qs

    raise SplitQuaternionError(f"unknown command {cmd!r}")  # unreachable


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    eps = args.eps
    if eps is None:
        env = os.environ.get("SPLITQ_EPS")
        eps = float(env) if env else DEFAULT_EPS

    try:
        payload, lines, verified, code, parsed = _run(args, eps)
    except SplitQuaternionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    backend = "approx" if args.backend == "approx" or any(not q.is_exact for q in parsed) else "exact"
    if args.json:
        document = {
            "op": args.command,
            "inputs": _input_literals(args),
            "result": payload,
            "backend": backend,
            "verified": verified,
        }
        print(json.dumps(document))
    else:
        for line in lines:
            print(line)
        if not verified:
            print("warning: post-hoc verification failed", file=sys.stderr)
    return code


def _input_literals(args) -> List[str]:
    if args.command == "matrix":
        return [args.kind] + list(args.quats)
    names = ("quat", "a", "b", "d")
    return [getattr(args, n) for n in names if hasattr(args, n)]


if __name__ == "__main__":
    sys.exit(main())
