"""CLI fuzz gate: ``cli.main`` in process on seeded command lines.

Every subcommand runs on both backends (and on the default one), as text
and with ``--json``, with a random ``--eps`` or none.  Literals are built
from 0, +-1, 1/2, -3/7 and the powers of ten 1e+-5, 1e+-9, 1e+-20, 1e154,
1e-160 and 1e+-300, at random or scaled onto lightlike shapes.  A call
fails the gate when it raises, when its exit code is not 0, 1 or 2, or
when it exits 1 from a subcommand other than ``similar`` and
``consimilar`` (the false verdicts).  Every bad input must be a typed
error with exit code 2, never a traceback.

A Hypothesis variant draws the command line instead: coefficients that
are ints of up to 400 digits, fractions, decimals from 1e-400 to 1e400
and signed zeros, at random or on a lightlike shape; the subcommand,
backend, ``--json``, ``--eps`` (none, 0, 1e-300 or 1e-3) and ``-n`` in
2..7.  Exact values past the float range are pinned as examples.
"""

import contextlib
import io
import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def _run(argv, stderr=False):
    """(exit code, stdout), and stderr if asked, of one in-process run; an exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return (code, out.getvalue(), err.getvalue()) if stderr else (code, out.getvalue())


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


#: The exact values past the float range that ended in an OverflowError traceback when rounded to floats.
OVERFLOW = (
    ["canonical", "--backend", "exact", "--", "1e400i+j"],
    ["roots", "-n", "2", "--backend", "exact", "--", "1e400+1e400j"],
)


@st.composite
def _scalars(draw):
    """A coefficient and its power of ten: an int of up to 400 digits, a fraction, or a decimal
    times 10^k for k in [-400, 400], +-0 among them; the power is None for an exact literal."""
    kind = draw(st.sampled_from(("int", "fraction", "decimal")))
    if kind == "int":
        return draw(st.one_of(st.integers(-9, 9), st.integers(-(10**400), 10**400))), None
    if kind == "fraction":
        return draw(st.fractions(max_denominator=10**6)), None
    value = draw(st.one_of(st.decimals(-10, 10, places=2), st.sampled_from((Decimal("0.0"), Decimal("-0.0")))))
    return value, draw(st.integers(-400, 400))


def _text(value, power) -> str:
    if power is not None:
        return f"{value}e{power}"
    return str(value) if not isinstance(value, Fraction) or value.denominator > 1 else str(value.numerator)


@st.composite
def _literals(draw) -> str:
    """Four coefficients, or one times a lightlike shape with random signs, joined with their units."""
    if draw(st.booleans()):
        value, power = draw(_scalars())
        shape = draw(st.sampled_from(LIGHTLIKE))
        coeffs = [_text(value * t * draw(st.sampled_from((1, -1))), power) for t in shape]
    else:
        coeffs = [_text(*draw(_scalars())) for _ in range(4)]
    text = "".join(("" if c.startswith("-") else "+") + c + unit for c, unit in zip(coeffs, ("", "i", "j", "k")))
    return text[1:] if text[0] == "+" else text


@st.composite
def _command_lines(draw) -> list:
    command = draw(st.sampled_from(cli.COMMANDS))
    argv = [command.name] + (["--json"] if draw(st.booleans()) else [])
    backend = draw(st.sampled_from((None, "exact", "approx")))
    argv += ["--backend", backend] if backend else []
    eps = draw(st.sampled_from((None, "0", "1e-300", "1e-3")))
    argv += ["--eps", eps] if eps else []
    argv += ["-n", str(draw(st.integers(2, 7)))] if command.n_help else []
    argv.append("--")
    if command.name == "matrix":
        kind = draw(st.sampled_from("LRTS"))
        return argv + [kind] + [draw(_literals()) for _ in range(1 if kind in "LR" else 2)]
    return argv + [draw(_literals()) for _ in command.literals]


@given(_command_lines())
@example(OVERFLOW[0])
@example(OVERFLOW[1])
@example(["sim-solve", "--eps", "0", "--", "6.1e-306+6.1e-306k", "6.1e-306-6.1e-306k"])  # |A|^2 + |B|^2 underflows
@example(["canonical", "--backend", "exact", "--", "1e-400i+2e-400j"])  # im(a) and im_squared round to 0.0
@settings(max_examples=200, deadline=None)
def test_drawn_command_lines_end_with_an_exit_code(argv):
    fault = _fault(argv)
    assert fault is None, (argv, fault)


@pytest.mark.parametrize("argv", OVERFLOW, ids=" ".join)
def test_exact_values_past_the_float_range_are_typed_errors(argv):
    for json_flag in ([], ["--json"]):
        code, out, err = _run(argv[:1] + json_flag + argv[1:], stderr=True)
        # the escalation's warning line comes first
        assert (code, out) == (2, "")
        assert err.endswith("\nerror: exact value too large for the float backend\n"), err
