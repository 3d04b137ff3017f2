"""Every refusal of a precondition: its error class and its exact text, in the library and the CLI.

The zero-divisor operations refuse 0 with ZeroInputError and an
invertible element with NotLightlikeError; the similarity and
consimilarity operations refuse a real element with RealInputError.
"""

import pytest

from splitquat import (
    NotLightlikeError,
    RealInputError,
    ZeroInputError,
    canonical_form,
    is_consimilar,
    nth_roots,
    parse_quat,
    projectors,
    solve_ax0,
    solve_axb,
    solve_axd,
    solve_xa_bx,
    solve_xad,
    to_polar,
)
from splitquat.cli import main

#: The good operands (a nonzero zero divisor, a non-real element), and each bad literal with its error and text
LIGHTLIKE, NONREAL = "1+j", "1+2i+3j+4k"
BAD = {"zero": ("0", ZeroInputError, "{} must be nonzero"),
       "invertible": ("2", NotLightlikeError, "{} is invertible, not a zero divisor"),
       "real": ("3", RealInputError, "{} must have a nonzero imaginary part")}

#: (op, CLI subcommand or None, literal builder from the bad literal, name of the bad operand, kinds)
CASES = [
    (solve_axb, "solve-axb", lambda x: (x, LIGHTLIKE, "1"), "coefficient a", ("zero", "invertible")),
    (solve_axb, "solve-axb", lambda x: (LIGHTLIKE, x, "1"), "coefficient b", ("zero", "invertible")),
    (solve_ax0, "solve-ax0", lambda x: (x,), "coefficient a", ("zero", "invertible")),
    (solve_axd, "solve-axd", lambda x: (x, "1"), "coefficient a", ("zero", "invertible")),
    (solve_xad, "solve-xad", lambda x: (x, "1"), "coefficient a", ("zero", "invertible")),
    (projectors, None, lambda x: (x,), "a", ("zero", "invertible")),
    (to_polar, None, lambda x: (x,), "q", ("zero", "invertible")),
    (nth_roots, "roots", lambda x: (x,), "q", ("zero", "invertible")),
    (solve_xa_bx, "sim-solve", lambda x: (x, NONREAL), "a", ("real",)),
    (solve_xa_bx, "sim-solve", lambda x: (NONREAL, x), "b", ("real",)),
    (canonical_form, "canonical", lambda x: (x,), "a", ("real",)),
    (is_consimilar, "consimilar", lambda x: (x, NONREAL), "a", ("real",)),
    (is_consimilar, "consimilar", lambda x: (NONREAL, x), "b", ("real",)),
]
REFUSALS = [
    pytest.param(op, command, build, name, kind, id=f"{op.__name__}-{name}-{kind}".replace(" ", "_"))
    for op, command, build, name, kinds in CASES
    for kind in kinds
]
CLI_REFUSALS = [case for case in REFUSALS if case.values[1] is not None]


@pytest.mark.parametrize("backend", ["exact", "approx"])
@pytest.mark.parametrize("op, command, build, name, kind", REFUSALS)
def test_the_library_refuses_with_one_class_and_text(op, command, build, name, kind, backend):
    literal, error, text = BAD[kind]
    quats = [parse_quat(x, backend=backend) for x in build(literal)]
    extra = (2,) if op is nth_roots else ()
    with pytest.raises(error) as caught:
        op(*quats, *extra)
    assert str(caught.value) == text.format(name)
    assert type(caught.value) is error


@pytest.mark.parametrize("backend", ["exact", "approx"])
@pytest.mark.parametrize("op, command, build, name, kind", CLI_REFUSALS)
def test_the_cli_prints_that_text_and_exits_2(op, command, build, name, kind, backend, capsys):
    literal, _, text = BAD[kind]
    extra = ["-n", "2"] if command == "roots" else []
    code = main([command, *build(literal), "--backend", backend, *extra])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {text.format(name)}\n"
