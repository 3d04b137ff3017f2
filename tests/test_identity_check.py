"""Smoke test: scripts/identity_check.py dumps, hashes and diffs a small slice of the benchmark pools."""

import hashlib
from collections import Counter
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "identity_check.py"


def _run(*args) -> list:
    return _script("--seeds", "1", "--limit", "3", *args)


def _script(*args) -> list:
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_dump_and_hash_of_a_small_slice():
    perfbench_files = sorted((ROOT / "perfbench").rglob("*"))
    modes = ("cli-json", "cli-approx", "cli-eps", "families-exact", "parse", "matrices")
    dump = _run("--modes", *modes, "--dump")
    assert [line.split(" ", 3)[:3] for line in dump] == [["1", mode, str(i)] for mode in modes for i in range(3)]
    assert all(" -> " in line for line in dump)
    # parse parses each string on the three backends in turn
    parsed = [line.split(" ", 3)[3].split(" -> ")[0] for line in dump[12:15]]
    assert [text.rsplit(" ", 1)[1] for text in parsed] == ["None", "exact", "approx"]
    assert len({text.rsplit(" ", 1)[0] for text in parsed}) == 1
    assert all("--json" in line for line in dump[:3])
    # cli-approx runs each pool line on the float backend, as text and then with --json
    approx = dump[3:6]
    assert all(line.count("--backend") == 1 and "--backend approx' -> " in line for line in approx)
    assert ["--json" in line for line in approx] == [False, True, False]
    # cli-eps runs the same float lines with --eps 1e-3 added
    argvs = [line.split(" ", 3)[3].split(" -> ")[0] for line in dump[3:9]]
    assert [argv[:-1] + " --eps 1e-3'" for argv in argvs[:3]] == argvs[3:]
    # a family_* item also prints its whole family: constant, terms and linear matrix, by scalar repr
    families = [line.split(" ", 3)[3] for line in dump[9:12]]
    assert all(line.startswith("family_") for line in families)
    wholes = [line.split(" -> ", 1)[1].split(" family ", 1)[1] for line in families]
    assert all(w.startswith("SolutionFamily(SplitQuaternion(Fraction(") and ", Mat4((" in w for w in wholes)
    # matrices runs every Mat4 query on L(a), R(a), L(a)R(b), ... of one pool pair, on both backends
    matrices = [line.split(" ", 3)[3] for line in dump[15:]]
    assert [line.split(" ", 2)[:2] for line in matrices] == [[name, "algebra-exact:0"] for name in ("L", "R", "LR")]
    assert len({line.split(" ", 2)[2].split(" -> ")[0] for line in matrices}) == 1
    for line in matrices:
        exact, approx = line.split(" -> ", 1)[1].split(" | ")
        assert exact.startswith("exact {'rank': ") and approx.startswith("float {'rank': ")
        for query in ("det", "nullspace_basis", "image_basis", "mat_mp_inverse", "consistent e1", "consistent e4"):
            assert f"'{query}': " in exact and f"'{query}': " in approx
        assert "Fraction(" in exact and "Fraction(" not in approx
    # the hash of a mode is the SHA-256 of its dumped lines
    [summary] = _run("--modes", "cli-json")
    body = "\n".join(line.split(" ", 3)[3] for line in dump[:3])
    assert summary == f"1 cli-json 3 {hashlib.sha256(body.encode()).hexdigest()}"
    assert sorted((ROOT / "perfbench").rglob("*")) == perfbench_files


def test_diff_groups_the_moved_lines_by_mode_and_kind(tmp_path):
    dump = _run("--modes", "cli-json", "algebra-exact", "parse", "--dump")
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("\n".join(dump) + "\n")
    assert _script("--diff", str(old), str(old)) == ["moved: 0 of 9 lines"]
    # move the result of one line of each mode, and drop the last line
    moved = [dump[0][:-1] + "!", dump[1], dump[2], dump[3] + " moved", dump[4], dump[5]]
    moved += [dump[6], dump[7] + " moved"]
    new.write_text("\n".join(moved) + "\n")
    out = _script("--diff", str(old), str(new))
    # cli lines group by subcommand, pool items by op kind, parses by backend
    groups = Counter({("cli-json", dump[0].split(" ", 3)[3][1:].split(" ", 1)[0]): 1})
    groups.update([("algebra-exact", dump[3].split(" ", 4)[3]), ("parse", "exact"), ("parse", "approx")])
    headers = [line for line in out if not line.startswith("  ")]
    expected = [f"{mode} {kind}: {n} moved" for (mode, kind), n in sorted(groups.items())]
    assert headers == expected + ["moved: 4 of 9 lines"]
    assert f"  + {dump[3].split(' ', 3)[3]} moved" in out and "  + (absent)" in out


def test_float_rounded_runs_both_exact_pools_on_floats():
    dump = _run("--modes", "float-rounded", "algebra-exact", "families-exact", "--dump")
    rounded, exact = dump[:6], dump[6:]
    # the first items of each exact pool, in turn, with the same kind, case and arguments
    assert [line.split(" ", 3)[:3] for line in rounded] == [["1", "float-rounded", str(i)] for i in range(6)]
    heads = [line.split(" ", 3)[3].split(" -> ", 1)[0] for line in dump]
    assert heads[:6] == heads[6:]
    results = [line.split(" -> ", 1)[1] for line in rounded]
    assert all("Fraction(" not in result.split(" family ", 1)[0] for result in results)
    assert any("Fraction(" in line.split(" -> ", 1)[1] for line in exact)
    # a family_* item prints its whole family: its constant and terms on floats
    families = [result.split(" family ", 1)[1] for head, result in zip(heads, results) if head.startswith("family_")]
    assert families and all(family.startswith("SolutionFamily(SplitQuaternion(") for family in families)
    assert all("Fraction(" not in family.split(", Mat4(", 1)[0] for family in families)
