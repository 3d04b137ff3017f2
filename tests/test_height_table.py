"""Smoke test: scripts/height_table.py prints one row per op and one figure per height."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from splitquat import left_matrix, right_matrix

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "height_table.py"


def _module():
    spec = importlib.util.spec_from_file_location("height_table", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_a_figure_per_op_and_height():
    argv = ["--digits", "1", "30", "--inputs", "1", "--repeat", "1", "--min-time", "0"]
    proc = subprocess.run([sys.executable, str(SCRIPT), *argv], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["op", "1", "30"]
    assert [row[0] for row in rows] == list(_module().OPS)
    assert all(len(row) == 3 and all(float(x) > 0 for x in row[1:]) for row in rows)


def test_inputs_have_the_height_asked_for():
    height_table = _module()
    for digits in (1, 30):
        fns = height_table.calls(digits, 2)
        assert set(fns) == set(height_table.OPS)
        a, b = fns["mul"][0].__defaults__
        # D-digit ratios, reduced: a common factor takes off a digit now and then
        heights = [len(str(abs(n))) for x in a.coeffs + b.coeffs for n in (x.numerator, x.denominator)]
        assert max(heights) == digits and min(heights) >= digits - digits // 5
        # the rank of each matrix op is the one its name gives
        for rank in (4, 3, 2, 1):
            (m,) = fns[f"mat_mp_inverse_r{rank}"][0].__defaults__
            assert m.is_exact and m.rank() == rank
        l, d = fns["solve_axb"][0].__defaults__
        assert l.quadratic_form == 0
        assert fns["solve_axb"][0]() == 4 - (left_matrix(l) @ right_matrix(l)).rank()
