"""Smoke test of the benchmark harness: every declared workload runs and checks clean.

Each workload runs for a fraction of a second in a copy of the checkout
under tmp_path, so its result files land there and not in the repo.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, root / name, ignore=ignore)
    return root


def _run(checkout, workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_runs_clean(checkout, workload):
    result = _run(checkout, workload, 0)
    assert END_TO_END <= set(result["metrics"])
    assert list(checkout.glob(f".perfbench_out/{workload}.trace0.*.json"))


def test_traced_run_is_clean(checkout):
    # the tracer wraps library names from outside; a run with it on must still check clean
    _run(checkout, "families-exact", 1)
    assert list(checkout.glob(".perfbench_out/families-exact.trace1.*.json"))
