"""Smoke test: scripts/identity_check.py dumps and hashes a small slice of the benchmark pools."""

import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "identity_check.py"


def _run(*args) -> list:
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--seeds", "1", "--limit", "3", *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_dump_and_hash_of_a_small_slice():
    perfbench_files = sorted((ROOT / "perfbench").rglob("*"))
    dump = _run("--modes", "cli-json", "cli-approx", "families-exact", "--dump")
    assert [line.split(" ", 3)[:3] for line in dump] == [
        ["1", mode, str(i)] for mode in ("cli-json", "cli-approx", "families-exact") for i in range(3)
    ]
    assert all(" -> " in line for line in dump)
    assert all("--json" in line for line in dump[:3])
    # cli-approx runs each pool line on the float backend, as text and then with --json
    approx = dump[3:6]
    assert all(line.count("--backend") == 1 and "--backend approx' -> " in line for line in approx)
    assert ["--json" in line for line in approx] == [False, True, False]
    # the hash of a mode is the SHA-256 of its dumped lines
    [summary] = _run("--modes", "cli-json")
    body = "\n".join(line.split(" ", 3)[3] for line in dump[:3])
    assert summary == f"1 cli-json 3 {hashlib.sha256(body.encode()).hexdigest()}"
    assert sorted((ROOT / "perfbench").rglob("*")) == perfbench_files
