"""Command-line front end.

Each subcommand is declared once, in ``COMMANDS``.  ``main`` parses its
quaternion literals, calls its handler and prints either human-readable
text or a JSON document (``--json``); a library warning raised on the
way prints as one ``warning: <message>`` line on stderr.  Every answer
ships with a ``verified`` flag reporting a post-hoc substitution check
of the result.  Exit status: 0 for success and true verdicts, 1 for
false similar/consimilar verdicts, 2 for errors.

An equation is declared by its solver, a public name of the package,
and its left-hand side lhs(x, A, ...); the literal named ``d`` is its
right side D, and D is 0 where there is none.  Its checks follow from
lhs: a family at five probes and a witness, which must be invertible,
solve lhs(x) = D, and an unsolvable verdict is confirmed by elimination
when D lies outside the image of the matrix whose columns are lhs at 1,
i, j and k.  ``_MATRICES`` writes the maps of L, R, T and S once, for
the equations and for the ``matrix`` subcommand's check of its builders.

A handler imports the library modules it runs when it is called, so a
process loads only what its subcommand needs: one process per query
spends most of its time starting up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .core import I, J, K, ONE, ZERO
from .errors import SplitQuaternionError
from .parsing import parse_quat
from .scalars import DEFAULT_EPS, format_scalar

_SOLVE_PROBES = (ZERO, ONE, I, J, K)

#: What a handler returns: JSON payload, text lines, verified flag, exit code.
Result = Tuple[Dict, List[str], bool, int]


def tolerance(text: str) -> float:
    """``--eps`` or ``SPLITQ_EPS`` as a float; ValueError unless finite and >= 0."""
    eps = float(text)
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be a finite number >= 0, not {text!r}")
    return eps


def _family(family, residual, eps: float, solvable: bool = False) -> Result:
    """A family, with dimension and basis from one elimination at its eps, checked at the probes."""
    verified = all(residual(family.at(y)).is_zero(eps) for y in _SOLVE_PROBES)
    basis = family.basis()
    payload = {
        "dimension": len(basis),
        "constant": str(family.constant),
        "terms": [[str(l), str(r)] for l, r in family.terms],
        "basis": [str(v) for v in basis],
    }
    lines = [f"dimension: {len(basis)}", f"constant: {family.constant}"]
    lines += [f"term: ({left}) y ({right})" for left, right in family.terms]
    lines.append("basis: " + (", ".join(str(v) for v in basis) if basis else "(empty)"))
    if solvable:
        return {"solvable": True, "family": payload}, ["solvable"] + lines, verified, 0
    return {"family": payload}, lines, verified, 0


def _invertible_solution(x, residual, eps: float) -> bool:
    """Whether residual(x) is zero at eps and x is invertible.

    Invertibility is an exact test of the quadratic form, with no eps:
    the form has degree 2, so a tolerance would refuse small witnesses.
    """
    return residual(x).is_zero(eps) and x.to_exact().quadratic_form != 0


def _witness(name: str, verdict, residual, eps: float) -> Result:
    """A similar/consimilar verdict; its witness must be an invertible solution."""
    if not verdict:
        return {name: False}, [f"not {name}"], True, 1
    w = verdict.witness
    verified = _invertible_solution(w, residual, eps)
    return {name: True, "witness": str(w)}, [name, f"witness: {w}"], verified, 0


def _classify(args, eps, q) -> Result:
    cls = q.classify(eps)
    payload = {"class": cls.value, "quadratic_form": format_scalar(q.quadratic_form)}
    return payload, [cls.value], True, 0


def _pinv(args, eps, q) -> Result:
    from .pinv import mp_inverse

    p = mp_inverse(q, eps)
    verified = (q * p * q).isclose(q, eps) and (p * q * p).isclose(p, eps)
    return {"pinv": str(p)}, [str(p)], verified, 0


def _roots(args, eps, q) -> Result:
    from .roots import nth_roots, power

    ws = nth_roots(q, args.n, eps)
    qf = q.to_float()
    verified = all(power(w, args.n).isclose(qf, 1e-6) for w in ws)
    payload = {"roots": [str(w) for w in ws], "count": len(ws)}
    return payload, [str(w) for w in ws] if ws else ["no roots"], verified, 0


def _power(args, eps, q) -> Result:
    from .roots import power

    result = power(q, args.n)
    previous = power(q, args.n - 1) * q if args.n > 1 else q
    verified = previous.isclose(result, eps)
    return {"power": str(result)}, [str(result)], verified, 0


def _canonical(args, eps, a) -> Result:
    from .similarity import canonical_form

    form = canonical_form(a, eps)
    p, target = form.conjugator, form.target
    verified = _invertible_solution(p, lambda x: _T(x, a, target), eps)
    payload = {"target": str(target), "conjugator": str(p), "exact": form.exact}
    return payload, [f"target: {target}", f"conjugator: {p}", f"exact: {form.exact}"], verified, 0


#: Each matrix kind: the public name of its builder, and the map x -> lhs(x, *quats) it represents.
_MATRICES = {
    "L": ("left_matrix", lambda x, a: a * x),
    "R": ("right_matrix", lambda x, a: x * a),
    "T": ("t_matrix", lambda x, a, b: x * a - b * x),
    "S": ("s_matrix", lambda x, a, b: x * a - b * x.conjugate()),
}
_L, _R, _T, _S = (lhs for _, lhs in _MATRICES.values())


def _read_off(lhs, quats):
    """The matrix of x -> lhs(x, *quats): its columns are lhs at 1, i, j and k."""
    from .matrices import Mat4

    return Mat4(list(zip(*(lhs(e, *quats).coeffs for e in (ONE, I, J, K)))))


def _matrix(args, eps, *qs) -> Result:
    builder, lhs = _MATRICES[args.kind]
    m = getattr(sys.modules[__package__], builder)(*qs)
    verified = m.isclose(_read_off(lhs, qs), eps)
    return {"rows": [[format_scalar(x) for x in row] for row in m.rows]}, [str(m)], verified, 0


def _equation(solver: str, lhs, solvable: bool = False) -> Callable[..., Result]:
    """The handler of lhs(x, *quats) = D, whose family answer is headed ``solvable`` if asked."""

    def handler(args, eps, *quats) -> Result:
        from . import SolutionFamily, Verdict, linear_system_consistent

        d = quats[-1] if args.declared.literals[-1] == "d" else None
        coeffs = quats if d is None else quats[:-1]

        def residual(x):
            return lhs(x, *coeffs) if d is None else lhs(x, *coeffs) - d

        answer = getattr(sys.modules[__package__], solver)(*quats, eps)
        if isinstance(answer, Verdict):
            return _witness(args.command, answer, residual, eps)
        if isinstance(answer, SolutionFamily):
            return _family(answer, residual, eps, solvable)
        if answer.solvable:
            return _family(answer.family, residual, eps, solvable=True)
        verified = not linear_system_consistent(_read_off(lhs, coeffs), d.coeffs, eps)
        payload = {"solvable": False, "certificate": str(answer.certificate)}
        return payload, ["unsolvable", f"certificate: {answer.certificate}"], verified, 0

    return handler


class Command(NamedTuple):
    """A subcommand: ``handler(args, eps, *quats)`` gets its literals parsed, in order."""

    name: str
    help: str
    literals: Tuple[str, ...]
    handler: Callable[..., Result]
    n_help: Optional[str] = None


COMMANDS = (
    Command("classify", "causal class of Q", ("quat",), _classify),
    Command("pinv", "Moore-Penrose inverse of Q", ("quat",), _pinv),
    Command("roots", "nth roots of a lightlike Q", ("quat",), _roots, "root degree, n >= 2"),
    Command("power", "Q raised to a positive integer power", ("quat",), _power, "exponent, n >= 1"),
    Command("solve-axb", "general solution of A x B = D", ("a", "b", "d"),
            _equation("solve_axb", lambda x, a, b: a * x * b)),
    Command("solve-ax0", "right kernel of A (solutions of A x = 0)", ("a",),
            _equation("solve_ax0", _L, solvable=True)),
    Command("solve-axd", "general solution of A x = D", ("a", "d"), _equation("solve_axd", _L)),
    Command("solve-xad", "general solution of x A = D", ("a", "d"), _equation("solve_xad", _R)),
    Command("similar", "decide similarity of A and B, with witness", ("a", "b"),
            _equation("is_similar", _T)),
    Command("sim-solve", "all solutions of x A = B x", ("a", "b"), _equation("solve_xa_bx", _T)),
    Command("canonical", "conjugacy normal form of A, with conjugator", ("a",), _canonical),
    Command("consimilar", "decide consimilarity of A and B, with witness", ("a", "b"),
            _equation("is_consimilar", _S)),
    Command("consim-solve", "all solutions of x A = B conj(x)", ("a", "b"),
            _equation("solve_xa_bxbar", _S)),
    # a kind from _MATRICES, then one literal for L/R or two for T/S
    Command("matrix", "representation matrices L, R, T, S", ("quats",), _matrix),
)


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
        type=tolerance,
        default=None,
        help=f"float-backend tolerance (default {DEFAULT_EPS}, or SPLITQ_EPS)",
    )

    parser = argparse.ArgumentParser(
        prog="splitquat", description="Split-quaternion algebra toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, parents=[common], help=command.help)
        p.set_defaults(declared=command)
        if command.name == "matrix":
            p.add_argument("kind", choices=tuple(_MATRICES))
            p.add_argument("quats", nargs="+", help="one literal for L/R, two for T/S")
        else:
            for name in command.literals:
                p.add_argument(name)
        if command.n_help:
            p.add_argument("-n", type=int, required=True, help=command.n_help)
    return parser


def _literals(args) -> List[str]:
    """The quaternion literals of the command line, in declared order."""
    if args.command != "matrix":
        return [getattr(args, name) for name in args.declared.literals]
    expected = 1 if args.kind in ("L", "R") else 2
    if len(args.quats) != expected:
        raise SplitQuaternionError(f"matrix {args.kind} takes exactly {expected} quaternion literal(s)")
    return args.quats


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        eps = args.eps
        if eps is None:
            env = os.environ.get("SPLITQ_EPS")
            eps = tolerance(env) if env else DEFAULT_EPS
        texts = _literals(args)
        quats = [parse_quat(text, backend=args.backend) for text in texts]
        with warnings.catch_warnings(record=True) as caught:
            try:
                payload, lines, verified, code = args.declared.handler(args, eps, *quats)
            finally:
                for warning in caught:
                    print(f"warning: {warning.message}", file=sys.stderr)
    except (SplitQuaternionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        exact = args.backend != "approx" and all(q.is_exact for q in quats)
        document = {
            "op": args.command,
            "inputs": ([args.kind] if args.command == "matrix" else []) + texts,
            "result": payload,
            "backend": "exact" if exact else "approx",
            "verified": verified,
        }
        print(json.dumps(document))
    else:
        for line in lines:
            print(line)
        if not verified:
            print("warning: post-hoc verification failed", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
