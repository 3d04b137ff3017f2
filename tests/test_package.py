"""The lazy package: one table of public names, resolved on access; what each CLI run loads."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitquat
from splitquat import core, pinv

SRC = Path(splitquat.__file__).resolve().parent.parent


def test_every_public_name_is_its_defining_modules_object():
    for name, module in splitquat._HOME.items():
        home = importlib.import_module(f"splitquat.{module}")
        assert getattr(splitquat, name) is getattr(home, name), name
        assert name in vars(home), f"{name} is not defined in splitquat.{module}"


def test_star_import_binds_all():
    namespace = {}
    exec("from splitquat import *", namespace)
    assert set(splitquat.__all__) <= set(namespace)
    assert namespace["SplitQuaternion"] is core.SplitQuaternion


def test_dir_lists_the_public_names():
    listed = dir(splitquat)
    assert "__all__" in listed and "__version__" in listed
    assert set(splitquat.__all__) <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        splitquat.no_such_name


def test_names_are_not_cached_in_the_package():
    # perfbench's tracer replaces functions in their defining modules and
    # puts them back; the package must follow both ways
    original = pinv.mp_inverse
    assert "mp_inverse" not in vars(splitquat)
    try:
        pinv.mp_inverse = wrapper = lambda *args: original(*args)
        assert splitquat.mp_inverse is wrapper
    finally:
        pinv.mp_inverse = original
    assert splitquat.mp_inverse is original
    assert "mp_inverse" not in vars(splitquat)


def _modules_after(argv):
    """Modules a fresh interpreter loads to import splitquat.cli and run main(argv) once."""
    code = (
        "import io, json, sys, contextlib\n"
        "before = set(sys.modules)\n"
        "from splitquat.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    exit_code, modules = json.loads(proc.stdout)
    assert exit_code == 0
    return set(modules)


def test_classify_loads_no_dataclasses_nor_matrix_machinery():
    loaded = _modules_after(["classify", "1+j", "--json"])
    assert "splitquat.core" in loaded
    unwanted = {"dataclasses", "inspect", "splitquat.matrices", "splitquat.solvers",
                "splitquat.similarity"}
    assert not loaded & unwanted, loaded & unwanted


def test_solve_ax0_loads_no_similarity_nor_roots():
    loaded = _modules_after(["solve-ax0", "1+j", "--json"])
    assert "splitquat.solvers" in loaded
    unwanted = {"dataclasses", "inspect", "splitquat.similarity", "splitquat.consimilarity",
                "splitquat.roots"}
    assert not loaded & unwanted, loaded & unwanted


@pytest.mark.parametrize("argv", [["consim-solve", "1+2i+3j+4k", "2+i+3j+4k"],
                                  ["consimilar", "1+2i+3j+4k", "2+i+3j+4k"]])
def test_consimilarity_loads_no_similarity(argv):
    loaded = _modules_after(argv)
    assert "splitquat.consimilarity" in loaded
    assert "splitquat.similarity" not in loaded


def test_tolerance_comparisons_stay_in_scalars():
    # every comparison of a value against eps goes through the zero tests of
    # splitquat.scalars; only the CLI's check of the --eps input itself is exempt
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    found = []
    for path in sorted((SRC / "splitquat").glob("*.py")):
        if path.name == "scalars.py":
            continue
        source = path.read_text()
        for function in ast.walk(ast.parse(source)):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Compare) and any(isinstance(op, ordering) for op in node.ops):
                    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                    if "eps" in names:
                        found.append((path.stem, function.name, ast.get_source_segment(source, node)))
    assert found == [("cli", "tolerance", "eps >= 0")]


def test_precondition_errors_are_raised_only_by_the_core_helpers():
    # each precondition is refused in one place: 0 and an invertible element by
    # core._zero_divisor, a real element by core._require_nonreal
    refusals = {"ZeroInputError", "NotLightlikeError", "RealInputError"}
    found = []
    for path in sorted((SRC / "splitquat").glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        owner = {id(node): f.name for f in functions for node in ast.walk(f)}  # innermost wins: walked last
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.exc)}  # X or m.X
                if names & refusals:
                    found.append((path.stem, owner.get(id(node)), *sorted(names & refusals)))
    assert sorted(found) == [
        ("core", "_require_nonreal", "RealInputError"),
        ("core", "_zero_divisor", "NotLightlikeError"),
        ("core", "_zero_divisor", "ZeroInputError"),
    ]


def test_every_python_file_parses_as_python_3_10():
    # pyproject's floor is 3.10; the interpreter here may be newer, so parse as 3.10 would
    root = SRC.parent
    paths = [path for top in ("src", "tests", "scripts") for path in sorted((root / top).rglob("*.py"))]
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
