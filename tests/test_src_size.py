"""Smoke test: scripts/src_size.py counts the lines, code lines and public names of src/splitquat."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import splitquat

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "src_size.py"


def test_prints_the_three_counts_of_the_checkout():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    counts = dict(line.split() for line in proc.stdout.splitlines())
    assert list(counts) == ["lines", "code_lines", "public_names"]
    sources = sorted((ROOT / "src" / "splitquat").glob("*.py"))
    assert int(counts["lines"]) == sum(len(path.read_text().splitlines()) for path in sources)
    assert 0 < int(counts["code_lines"]) < int(counts["lines"])
    assert int(counts["public_names"]) == len(splitquat.__all__)


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    spec = importlib.util.spec_from_file_location("src_size", SCRIPT)
    src_size = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_size)
    source = (
        '"""Module\n'
        'docstring."""\n'
        "\n"
        "# a comment\n"
        "class A:\n"
        '    """One line."""\n'
        "\n"
        "    def f(self):  # code with a comment\n"
        "        '''Two\n"
        "        lines.'''\n"
        '        return """a string\n'
        'that is no docstring"""\n'
    )
    assert src_size.code_lines(source) == 4
