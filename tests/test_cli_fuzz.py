"""CLI fuzz gate: ``cli.main`` in process on seeded command lines.

Every subcommand runs on both backends (and on the default one), as text
and with ``--json``, with a random ``--eps`` or none.  Literals are built
from 0, +-1, 1/2, -3/7 and the powers of ten 1e+-5, 1e+-9, 1e+-20, 1e154,
1e-160 and 1e+-300, at random or scaled onto lightlike shapes.  A call
fails the gate when it raises, when its exit code is not 0, 1 or 2, or
when it exits 1 from a subcommand other than ``similar`` and
``consimilar`` (the false verdicts).  Every bad input must be a typed
error with exit code 2, never a traceback.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from splitquat import cli

#: (mantissa, power of ten) of each base scalar; a power needs an int mantissa.
SCALARS = (
    (Fraction(0), 0),
    (Fraction(1), 0),
    (Fraction(-1), 0),
    (Fraction(1, 2), 0),
    (Fraction(-3, 7), 0),
) + tuple((Fraction(1), k) for k in (5, -5, 9, -9, 20, -20, 154, -160, 300, -300))

#: Integer lightlike shapes: q0^2 + q1^2 = q2^2 + q3^2.
LIGHTLIKE = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1), (5, 0, 3, 4), (3, 4, 0, 5), (0, 5, 4, 3))

EPS = ("0", "1e-300", "1e-12", "1e-9", "1e-6", "1e-3", "0.5")

#: The inputs that ended in a ZeroDivisionError traceback when the similarity
#: witness was built on phi(x), whose real part swamps im(x) in floats.
KNOWN = (
    ["canonical", "--backend", "approx", "--", "1e16+1j"],
    ["canonical", "--eps", "0", "--", "7+1e-20j"],
    ["similar", "--backend", "approx", "--", "1e300+1j", "1e300+1j"],
)


def _scalar_text(mantissa: Fraction, power: int) -> str:
    if power:
        return f"{mantissa.numerator}e{power}"
    return str(mantissa.numerator) if mantissa.denominator == 1 else f"{mantissa.numerator}/{mantissa.denominator}"


def _literal(rng: random.Random) -> str:
    """A quaternion literal: four random scalars, or one scalar times a lightlike shape with random signs."""
    if rng.random() < 0.3:
        scale = rng.choice(SCALARS[1:])
        coeffs = [(scale[0] * t * rng.choice((1, -1)), scale[1]) for t in rng.choice(LIGHTLIKE)]
    else:
        coeffs = [rng.choice(SCALARS) if rng.random() < 0.7 else SCALARS[0] for _ in range(4)]
        coeffs = [(m * rng.choice((1, -1)), k) for m, k in coeffs]
    terms = [
        ("-" if m < 0 else "+") + _scalar_text(abs(m), k) + unit
        for (m, k), unit in zip(coeffs, ("", "i", "j", "k"))
        if m
    ]
    text = "".join(terms) or "0"
    return text[1:] if text[0] == "+" else text


def _argv(rng: random.Random) -> list:
    command = rng.choice(cli.COMMANDS)
    argv = [command.name]
    if rng.random() < 0.5:
        argv.append("--json")
    backend = rng.choice((None, "exact", "approx"))
    if backend:
        argv += ["--backend", backend]
    if rng.random() < 0.6:
        argv += ["--eps", rng.choice(EPS)]
    if command.name == "roots":
        argv += ["-n", str(rng.randint(2, 4))]
    elif command.name == "power":
        argv += ["-n", str(rng.randint(1, 4))]
    argv.append("--")
    if command.name == "matrix":
        kind = rng.choice("LRTS")
        return argv + [kind] + [_literal(rng) for _ in range(1 if kind in "LR" else 2)]
    return argv + [_literal(rng) for _ in command.literals]


def _run(argv):
    """(exit code, stdout) of one in-process run; an exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _fault(argv):
    """Why a command line fails the gate, or None."""
    try:
        code, _ = _run(argv)
    except BaseException as exc:  # noqa: BLE001 - a traceback of any kind is the fault
        return f"raised {type(exc).__name__}: {exc}"
    if code not in (0, 1, 2):
        return f"exit code {code!r}"
    if code == 1 and argv[0] not in ("similar", "consimilar"):
        return "exit code 1 from a subcommand with no verdict"
    return None


def test_generated_command_lines_end_with_an_exit_code():
    rng = random.Random(19)
    argvs = list(KNOWN) + [_argv(rng) for _ in range(1000)]
    faults = [(argv, fault) for argv in argvs if (fault := _fault(argv))]
    assert not faults, f"{len(faults)} of {len(argvs)} fail, first: {faults[:5]}"
    # the generator reaches every subcommand on both backends, as text and --json
    seen = {(a[0], "--json" in a, a[a.index("--backend") + 1] if "--backend" in a else None) for a in argvs}
    assert seen >= {(c.name, j, b) for c in cli.COMMANDS for j in (False, True) for b in ("exact", "approx")}


@pytest.mark.parametrize("argv", KNOWN, ids=" ".join)
def test_large_real_parts_give_a_verified_witness(argv):
    code, out = _run(argv[:1] + ["--json"] + argv[1:])
    assert code == 0
    assert json.loads(out)["verified"] is True
