import json

import pytest

from splitquat import parse_quat
from splitquat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestVerdictCommands:
    def test_similar_true_exit_zero(self, capsys):
        code, out, _ = run(capsys, "similar", "1+5i+3j+4k", "1+13i+12j+5k")
        assert code == 0
        assert "similar" in out
        assert "witness:" in out

    def test_similar_false_exit_one(self, capsys):
        code, out, _ = run(capsys, "similar", "i", "j")
        assert code == 1
        assert "not similar" in out

    def test_consimilar_verdicts(self, capsys):
        code, _, _ = run(capsys, "consimilar", "1+2i+3j+4k", "2+i+3j+4k")
        assert code == 0
        code, _, _ = run(capsys, "consimilar", "1+2i+3j+4k", "2+i+3k")
        assert code == 1

    def test_witness_json_verified(self, capsys):
        code, doc, _ = run_json(capsys, "similar", "1+5i+3j+4k", "1+13i+12j+5k")
        assert code == 0
        assert doc["op"] == "similar"
        assert doc["result"]["similar"] is True
        assert doc["verified"] is True
        assert doc["backend"] == "exact"
        a, b = parse_quat("1+5i+3j+4k"), parse_quat("1+13i+12j+5k")
        w = parse_quat(doc["result"]["witness"])
        assert w * a == b * w

    def test_similar_golden_witness(self, capsys):
        golden = {
            "exact": "3/2-1/2i-1/2j+1/2k",
            "approx": "1.5-0.5i-0.5j+0.5k",
        }
        for backend, witness in golden.items():
            code, doc, _ = run_json(
                capsys, "similar", "1+5i+3j+4k", "1+13i+12j+5k", "--backend", backend
            )
            assert code == 0
            assert doc["result"]["witness"] == witness
            assert doc["verified"] is True


class TestAnalysisCommands:
    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", "i+j")
        assert code == 0 and out.strip() == "lightlike"

    def test_pinv_of_zero(self, capsys):
        code, out, _ = run(capsys, "pinv", "0")
        assert code == 0 and out.strip() == "0"

    def test_pinv_json_roundtrip(self, capsys):
        code, doc, _ = run_json(capsys, "pinv", "1+j")
        assert parse_quat(doc["result"]["pinv"]) == parse_quat("1+j") / 4
        assert doc["verified"] is True

    def test_power(self, capsys):
        code, out, _ = run(capsys, "power", "1+j", "-n", "3")
        assert code == 0 and out.strip() == "4+4j"

    def test_roots(self, capsys):
        code, doc, _ = run_json(capsys, "roots", "1+j", "-n", "2")
        assert code == 0
        assert doc["result"]["count"] == 2
        assert doc["verified"] is True

    def test_roots_empty(self, capsys):
        code, doc, _ = run_json(capsys, "roots", "i+j", "-n", "2")
        assert code == 0 and doc["result"]["count"] == 0

    def test_sim_solve_reference_line(self, capsys):
        code, doc, _ = run_json(capsys, "sim-solve", "1+5i+5j+2k", "2+i+j+3k")
        assert code == 0
        family = doc["result"]["family"]
        assert family["dimension"] == 1
        direction = parse_quat("-3+i+j+3k")
        basis = parse_quat(family["basis"][0])
        assert all(
            basis.coeffs[i] * direction.coeffs[j] == basis.coeffs[j] * direction.coeffs[i]
            for i in range(4)
            for j in range(4)
        )
        assert doc["verified"] is True

    def test_canonical(self, capsys):
        code, doc, _ = run_json(capsys, "canonical", "1+3i+2j+k")
        assert code == 0
        assert parse_quat(doc["result"]["target"]) == parse_quat("1+2i")
        assert doc["result"]["exact"] is True
        assert doc["verified"] is True

    def test_canonical_golden_conjugator(self, capsys):
        code, doc, _ = run_json(capsys, "canonical", "1+3i+2j+k")
        assert code == 0
        assert doc["result"]["conjugator"] == "1/2+i+1/2j"

    def test_canonical_large_non_square_invariant(self, capsys):
        # the escalated target keeps a's invariants by construction; no float re-check
        code, doc, err = run_json(capsys, "canonical", "8192+4096i+8192j+8192k")
        assert code == 0
        assert doc["result"]["target"] == "8192+10836.9973701j"
        assert doc["result"]["exact"] is False
        assert doc["verified"] is True
        assert err.startswith("warning: im_squared is not a perfect rational square")

    def test_matrix_layout(self, capsys):
        code, doc, _ = run_json(capsys, "matrix", "L", "i")
        assert code == 0
        assert doc["result"]["rows"] == [
            ["0", "-1", "0", "0"],
            ["1", "0", "0", "0"],
            ["0", "0", "0", "-1"],
            ["0", "0", "1", "0"],
        ]
        assert doc["verified"] is True

    def test_matrix_argument_count(self, capsys):
        code, _, err = run(capsys, "matrix", "T", "i")
        assert code == 2
        assert "error" in err

    def test_matrix_operator_kinds(self, capsys):
        for kind in ("T", "S"):
            code, doc, _ = run_json(capsys, "matrix", kind, "1+5i+5j+2k", "2+i+j+3k")
            assert code == 0
            assert doc["verified"] is True
            assert len(doc["result"]["rows"]) == 4

    def test_consim_solve(self, capsys):
        code, doc, _ = run_json(capsys, "consim-solve", "1+2i+3j+4k", "2+i+3j+4k")
        assert code == 0
        assert doc["result"]["family"]["dimension"] == 1
        assert doc["verified"] is True
        # small float inputs: the entries of S are of order 1e-5
        code, doc, _ = run_json(
            capsys,
            "consim-solve",
            "0.00001+0.00002i+0.00003j+0.00004k",
            "0.00002+0.00001i+0.00003j+0.00004k",
        )
        assert code == 0
        assert doc["result"]["family"]["dimension"] == 1
        assert doc["verified"] is True

    def test_consim_solve_golden_terms(self, capsys):
        # one term (e) y (r_e) per unit e; the basis is the kernel basis of S
        exact_terms = [
            ["1", "-3/4+1/4i"], ["i", "1/4+3/4i"], ["j", "-3/4j-1/4k"], ["k", "1/4j-3/4k"],
        ]
        approx_terms = [
            ["1", "-0.75+0.25i"], ["i", "0.25+0.75i"], ["j", "-0.75j-0.25k"], ["k", "0.25j-0.75k"],
        ]
        golden = {
            "exact": (exact_terms, ["-3+i"]),
            "approx": (approx_terms, ["-3+i"]),
        }
        for backend, (terms, basis) in golden.items():
            code, doc, _ = run_json(
                capsys, "consim-solve", "1+2i+3j+4k", "2+i+3j+4k", "--backend", backend
            )
            assert code == 0
            family = doc["result"]["family"]
            assert family["terms"] == terms
            assert family["basis"] == basis
            assert family["dimension"] == 1
            assert doc["verified"] is True


class TestSolveCommands:
    def test_solvable(self, capsys):
        code, doc, _ = run_json(capsys, "solve-axb", "1+j", "1+j", "1+j")
        assert code == 0
        assert doc["result"]["solvable"] is True
        assert parse_quat(doc["result"]["family"]["constant"]) == parse_quat("1+j") / 4
        assert doc["verified"] is True

    def test_unsolvable_certificate(self, capsys):
        code, doc, _ = run_json(capsys, "solve-axb", "1+j", "1+j", "1-j")
        assert code == 0
        assert doc["result"]["solvable"] is False
        assert not parse_quat(doc["result"]["certificate"]).is_zero()
        assert doc["verified"] is True

    def test_invertible_coefficient_is_an_error(self, capsys):
        code, _, err = run(capsys, "solve-ax0", "2")
        assert code == 2
        assert "divi" in err  # points the caller at direct division

    def test_solve_ax0(self, capsys):
        code, doc, _ = run_json(capsys, "solve-ax0", "1+j")
        assert code == 0
        assert doc["result"]["family"]["dimension"] == 2

    def test_solve_xad_homogeneous(self, capsys):
        code, doc, _ = run_json(capsys, "solve-xad", "1+j", "0")
        assert code == 0
        assert doc["result"]["solvable"] is True
        assert doc["result"]["family"]["dimension"] == 2


class TestGlobalFlags:
    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(capsys, "classify", "1+")
        assert code == 2
        assert "offset 2" in err

    def test_non_finite_literal_exit_two(self, capsys):
        code, out, err = run(capsys, "classify", "1e400")
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "1e200+1e200j", "--json"),
            ("pinv", "1e200+1e200j"),
            ("power", "1e200+1e200j", "-n", "2"),
        ],
    )
    def test_overflowing_float_value_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "not finite" in err

    def test_backend_approx(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "1+j", "--backend", "approx")
        assert doc["backend"] == "approx"

    def test_decimal_input_reports_approx(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "2.5i")
        assert doc["backend"] == "approx"

    def test_eps_flag_changes_classification(self, capsys):
        _, out1, _ = run(capsys, "classify", "1+1.00000001j")
        assert out1.strip() == "spacelike"
        _, out2, _ = run(capsys, "classify", "1+1.00000001j", "--eps", "0.001")
        assert out2.strip() == "lightlike"

    def test_eps_flag_reaches_family_dimension(self, capsys):
        # each family's dimension is read at --eps, the tolerance that chose its case
        cases = (
            (("sim-solve", "1+5i+5j+2k", "2+i+j+3.0001k"), 1),
            (("consim-solve", "1+2i+3j+4k", "2+i+3j+4.0001k"), 1),
            (("solve-ax0", "1+1.0001j"), 2),
        )
        for argv, dimension in cases:
            code, doc, _ = run_json(capsys, *argv, "--eps", "1e-3")
            assert code == 0
            family = doc["result"]["family"]
            assert family["dimension"] == dimension == len(family["basis"])
            _, out, _ = run(capsys, *argv, "--eps", "1e-3")
            assert f"dimension: {dimension}" in out.splitlines()

    def test_eps_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SPLITQ_EPS", "0.001")
        _, out, _ = run(capsys, "classify", "1+1.00000001j")
        assert out.strip() == "lightlike"

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "abc"])
    def test_bad_eps_flag_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "1.0+j", "--eps", value])
        assert exc.value.code == 2
        assert "invalid tolerance value" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "abc"])
    def test_bad_eps_env_exit_two(self, capsys, monkeypatch, value):
        monkeypatch.setenv("SPLITQ_EPS", value)
        code, out, err = run(capsys, "classify", "1.0+j")
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_seed_fixes_witness(self, capsys):
        _, doc1, _ = run_json(capsys, "similar", "1+5i+3j+4k", "1+13i+12j+5k")
        _, doc2, _ = run_json(capsys, "similar", "1+5i+3j+4k", "1+13i+12j+5k")
        assert doc1["result"]["witness"] == doc2["result"]["witness"]

    def test_library_warning_is_one_line(self, capsys):
        code, out, err = run(capsys, "roots", "1+j", "-n", "2")
        assert code == 0 and len(out.splitlines()) == 2
        assert err == "warning: nth roots are generally irrational; computing in floats\n"

    def test_json_quaternions_reparse(self, capsys):
        _, doc, _ = run_json(capsys, "solve-axd", "1+j", "1+j")
        family = doc["result"]["family"]
        parse_quat(family["constant"])
        for left, right in family["terms"]:
            parse_quat(left)
            parse_quat(right)
        for b in family["basis"]:
            parse_quat(b)


#: The command lines of README § Command line, with the T matrix its comment names.
README_LINES = (
    ("classify", "1+3i+2j+k"),
    ("pinv", "1+j"),
    ("roots", "1+j", "-n", "2"),
    ("power", "1+j", "-n", "3"),
    ("solve-axb", "1+j", "1+j", "1+j"),
    ("solve-ax0", "1+j"),
    ("solve-axd", "1+j", "1+j"),
    ("solve-xad", "1+j", "0"),
    ("similar", "1+5i+3j+4k", "1+13i+12j+5k"),
    ("sim-solve", "1+5i+5j+2k", "2+i+j+3k"),
    ("canonical", "1+3i+2j+k"),
    ("consimilar", "1+2i+3j+4k", "2+i+3j+4k"),
    ("consim-solve", "1+2i+3j+4k", "2+i+3j+4k"),
    ("matrix", "L", "i"),
    ("matrix", "T", "1+5i+3j+4k", "1+13i+12j+5k"),
)


@pytest.mark.parametrize("backend", ["exact", "approx"])
@pytest.mark.parametrize("line", README_LINES, ids=" ".join)
def test_readme_line_document(capsys, line, backend):
    code, doc, _ = run_json(capsys, *line, "--backend", backend)
    assert code == 0
    assert doc["verified"] is True
    assert doc["op"] == line[0]
    literals = line[1 : line.index("-n")] if "-n" in line else line[1:]
    assert doc["inputs"] == list(literals)
    assert doc["backend"] == backend
