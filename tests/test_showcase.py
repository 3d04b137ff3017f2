"""Smoke test: scripts/showcase.py runs in process and every check it prints holds."""

import re
import runpy
from pathlib import Path

SHOWCASE = Path(__file__).resolve().parent.parent / "scripts" / "showcase.py"


def test_showcase_checks_all_hold(capsys):
    runpy.run_path(str(SHOWCASE), run_name="__main__")
    out = capsys.readouterr().out
    checks = re.findall(r"\(check (\w+)\)", out)
    # one similarity witness and three canonical-form conjugators
    assert len(checks) == 4
    assert set(checks) == {"True"}
    assert set(re.findall(r"\[a p a = a: (\w+)\]", out)) == {"True"}
    # one consimilarity solution space per S rank 3, 1 and 2
    assert re.findall(r"\[dim == 4 - rank\(S\): (\w+)\]", out) == ["True"] * 3
    assert "Traceback" not in out
