import json

import pytest

from qclifford import deform
from qclifford.cli import main
from qclifford.deform import build_deforming_map, undeformed_set
from qclifford.rmatrix import RMatrix, build_permutation, build_rhat_sl


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--output", "json")
    return code, json.loads(out), err


class TestVerifyMap:
    def test_two_modes_json(self, capsys):
        code, doc, _ = run_json(capsys, "verify-map", "--n", "2")
        assert code == 0
        assert doc["summary"]["failed"] == 0
        assert doc["summary"]["total"] >= 12
        assert all(rel["exact_zero"] for rel in doc["relations"])
        assert doc["star"]["exact_zero"]
        assert doc["convention"]["number_operator"].startswith("n_i = adag_i a_i")

    def test_numeric_spot_check(self, capsys):
        code, doc, _ = run_json(capsys, "verify-map", "--n", "2",
                                "--q-numeric", "1.3")
        assert code == 0
        assert all(rel["numeric_max_abs"] == 0.0 for rel in doc["relations"])

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_pole_at_numeric_point_exits_two(self, capsys, n):
        # q = 0 is a pole of the dressing q^-1 (N = 2) and of the relation
        # coefficients P_q = q^-1 Rhat (every N)
        code, out, err = run(capsys, "verify-map", "--n", n,
                             "--q-numeric", "0")
        assert code == 2 and out == ""
        assert "denominator q vanishes at q = 0" in err

    def test_numeric_residuals_recomputed_at_the_point(self, capsys, tmp_path):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(undeformed_set(2).to_json()))
        code, doc, _ = run_json(capsys, "verify-map", "--input", str(path),
                                "--q-numeric", "2")
        assert code == 1
        for rel in doc["relations"]:
            assert (rel["numeric_max_abs"] == 0.0) == rel["exact_zero"]

    def test_user_generator_set_input(self, capsys, tmp_path):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(build_deforming_map(2).to_json()))
        code, doc, _ = run_json(capsys, "verify-map", "--input", str(path))
        assert code == 0 and doc["summary"]["failed"] == 0

    def test_failing_input_exits_one(self, capsys, tmp_path):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(undeformed_set(2).to_json()))
        code, doc, _ = run_json(capsys, "verify-map", "--input", str(path))
        assert code == 1
        assert doc["summary"]["failed"] > 0

    def test_out_of_range_index_exits_two(self, capsys, tmp_path):
        doc = build_deforming_map(2).to_json()
        doc["creators"][0]["entries"].append([0, -1, "q"])
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify-map", "--input", str(path))
        assert code == 2
        assert "[0, -1, 'q']" in err

    def test_each_relation_checked_once(self, capsys, monkeypatch):
        calls = []
        original = deform.relation_residuals

        def counted(*args, **kwargs):
            calls.append(args[0].modes)
            return original(*args, **kwargs)

        monkeypatch.setattr(deform, "relation_residuals", counted)
        code, doc, _ = run_json(capsys, "verify-map", "--n", "3")
        assert code == 0 and doc["summary"]["total"] == 3 * 9 + 1
        assert calls == [3]

    def test_wrong_dressing_still_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(deform, "deformation_weights",
                            lambda n, i: [1 if j > i else 0
                                          for j in range(1, n + 1)])
        code, out, err = run(capsys, "verify-map", "--n", "2")
        assert code == 2
        assert out == ""
        assert "deforming map violates" in err

    def test_huge_mode_count_exits_two(self, capsys, tmp_path):
        path = tmp_path / "gens.json"
        op = {"n_modes": 10 ** 9, "entries": []}
        path.write_text(json.dumps({"modes": 1, "creators": [op],
                                    "annihilators": [op]}))
        code, _, err = run(capsys, "verify-map", "--input", str(path))
        assert code == 2 and "n_modes = 1000000000" in err

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify-map", "--input", str(path))
        assert code == 2
        assert "line" in err and "column" in err


class TestRMatrixCommand:
    def test_sl_dump_round_trips(self, capsys):
        code, doc, _ = run_json(capsys, "rmatrix", "--algebra", "sl", "--n", "3")
        assert code == 0
        assert doc["summary"] == {"total": 2, "exact_zero": 2, "failed": 0}
        assert RMatrix.from_json(doc["matrix"]) == build_rhat_sl(3)

    def test_classical_point_gives_permutation(self, capsys):
        code, doc, _ = run_json(capsys, "rmatrix", "--algebra", "sl",
                                "--n", "2", "--q-numeric", "1")
        assert code == 0
        assert RMatrix.from_json(doc["matrix"]) == build_permutation(2)

    def test_sl_requires_n(self, capsys):
        code, _, err = run(capsys, "rmatrix", "--algebra", "sl")
        assert code == 2 and "--n" in err

    def test_sp_findings_always_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "rhat.json"
        path.write_text(json.dumps(build_rhat_sl(2).to_json()))
        code, doc, _ = run_json(capsys, "rmatrix", "--algebra", "sp",
                                "--input", str(path))
        assert code == 0  # experiment-class: findings, not failures
        assert doc["relations"][0]["family"] == "sp-idempotency"
        assert doc["relations"][0]["exact_zero"] is False
        assert doc["projector"]["kind"] == "projector-sp"

    def test_huge_braid_dimension_exits_two(self, capsys, tmp_path):
        path = tmp_path / "rhat.json"
        path.write_text(json.dumps({"n": 2, "dim": 10 ** 9, "entries": []}))
        code, _, err = run(capsys, "rmatrix", "--algebra", "sp",
                           "--input", str(path))
        assert code == 2 and "dim = 1000000000" in err

    def test_sp_requires_input(self, capsys):
        code, _, err = run(capsys, "rmatrix", "--algebra", "sp")
        assert code == 2 and "--input" in err


class TestPoincareCommand:
    def test_two_modes(self, capsys):
        code, doc, _ = run_json(capsys, "poincare", "--n", "2")
        assert code == 0
        assert doc["poincare"]["undeformed"] == {"rank": 16, "expected": 16}
        assert doc["poincare"]["deformed"] == {"rank": 16, "expected": 16}

    @pytest.mark.parametrize("n", [5, 6])
    def test_exact_at_five_and_six_modes(self, capsys, n):
        code, doc, _ = run_json(capsys, "poincare", "--n", str(n))
        full = {"rank": 4 ** n, "expected": 4 ** n}
        assert code == 0
        assert doc["poincare"] == {"undeformed": full, "deformed": full}

    def test_mode_flag_is_gone(self, capsys):
        code, _, _ = run(capsys, "poincare", "--n", "2", "--mode", "exact")
        assert code == 2


class TestCovarianceCommand:
    def test_two_modes(self, capsys):
        code, doc, _ = run_json(capsys, "covariance", "--n", "2")
        assert code == 0
        assert doc["summary"]["failed"] == 0
        control = doc["negative_control"]
        assert control["undeformed_generators_fail_covariance"] is True

    def test_other_mode_counts_rejected(self, capsys):
        code, _, err = run(capsys, "covariance", "--n", "3")
        assert code == 2 and "--n 2" in err


class TestInvariantsCommand:
    def test_with_numeric_point(self, capsys):
        code, doc, _ = run_json(capsys, "invariants", "--n", "2",
                                "--q-numeric", "1.3")
        assert code == 0
        assert doc["summary"]["failed"] == 0
        assert all(rel["numeric_max_abs"] < 1e-12 for rel in doc["relations"])


class TestChainCommand:
    def test_findings_exit_zero(self, capsys):
        code, doc, _ = run_json(capsys, "chain-experiment", "--m", "2",
                                "--n", "2")
        assert code == 0  # verdicts are findings even though some fail
        assert doc["summary"]["failed"] > 0
        variants = doc["experiment"]["variants"]
        assert set(variants) == {"diagonal-mixed", "RM-braided-mixed"}
        families = variants["diagonal-mixed"]["families"]
        assert families["chain-creator"]["holds"] is False

    def test_single_variant_with_scales(self, capsys):
        code, doc, _ = run_json(capsys, "chain-experiment", "--m", "2",
                                "--n", "2", "--variant", "diagonal-mixed",
                                "--scales", "1,q")
        assert code == 0
        assert list(doc["experiment"]["variants"]) == ["diagonal-mixed"]
        assert doc["experiment"]["scales"] == ["1", "q"]


class TestEvalCommand:
    def test_canonicalization(self, capsys):
        code, doc, _ = run_json(capsys, "eval", "(q^2 - 1)/(q - 1)")
        assert code == 0
        assert doc["value"]["canonical"] == "q + 1"

    def test_exact_numeric_value(self, capsys):
        code, doc, _ = run_json(capsys, "eval", "q + q^-1",
                                "--q-numeric", "2")
        assert code == 0
        assert doc["value"]["exact"] == "5/2"
        assert doc["value"]["float"] == 2.5

    def test_pole_names_denominator(self, capsys):
        code, _, err = run(capsys, "eval", "(1)/(q - 1)", "--q-numeric", "1")
        assert code == 2
        assert "q - 1" in err

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "eval", "q +")
        assert code == 2 and "parse" in err.lower() or "dangling" in err


class TestHarness:
    def test_unknown_subcommand_exits_two(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_text_output_has_summary(self, capsys):
        code, out, _ = run(capsys, "verify-map", "--n", "2")
        assert code == 0
        assert "summary: 13 checks, 13 exact-zero, 0 failed" in out
        assert "exact-zero" in out

    def test_json_is_stable_under_reserialization(self, capsys):
        _, doc, _ = run_json(capsys, "poincare", "--n", "2")
        assert json.loads(json.dumps(doc)) == doc
