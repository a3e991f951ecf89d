import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qclifford import chain, cli, deform, fock, rmatrix, scalar
from qclifford.cli import main
from qclifford.deform import (MapConstructionError, build_deforming_map,
                              undeformed_set)
from qclifford.rmatrix import RMatrix, build_permutation, build_rhat_sl
from qclifford.scalar import Q

from test_golden import CASES as GOLDEN_CASES, GOLDEN

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--output", "json")
    return code, json.loads(out), err


def short_entry_doc() -> dict:
    """The 3-mode deforming map with a two-element fourth creator entry."""
    doc = build_deforming_map(3).to_json()
    doc["creators"][0]["entries"].insert(3, [0, 1])
    return doc


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

    @pytest.mark.parametrize("source", ["--n", "--input"])
    def test_numeric_point_checks_each_relation_once(self, capsys, tmp_path,
                                                     monkeypatch, source):
        # the exact and the numeric residuals share one Rhat, P+_q and P_q
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(build_deforming_map(3).to_json()))
        calls = []

        def spy(name, original):
            def counted(*args):
                calls.append(name)
                return original(*args)
            return counted

        monkeypatch.setattr(rmatrix, "check_hecke",
                            spy("check_hecke", rmatrix.check_hecke))
        monkeypatch.setattr(deform, "projector_sl",
                            spy("projector_sl", deform.projector_sl))
        code, doc, _ = run_json(capsys, "verify-map", source,
                                "3" if source == "--n" else str(path),
                                "--q-numeric", "1.3")
        assert code == 0
        assert all(rel["numeric_max_abs"] == 0.0 for rel in doc["relations"])
        assert sorted(calls) == ["check_hecke", "projector_sl"]

    def test_user_generator_set_input(self, capsys, tmp_path):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(build_deforming_map(2).to_json()))
        code, doc, _ = run_json(capsys, "verify-map", "--input", str(path))
        assert code == 0 and doc["summary"]["failed"] == 0

    def test_input_command_echo_has_no_mode_count(self, capsys, tmp_path):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(build_deforming_map(2).to_json()))
        _, doc, _ = run_json(capsys, "verify-map", "--input", str(path))
        assert not any(item.startswith("n=") for item in doc["command"])
        _, doc, _ = run_json(capsys, "verify-map")
        assert "n=2" in doc["command"]

    def test_mode_count_must_match_the_input(self, capsys, tmp_path):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(build_deforming_map(2).to_json()))
        code, out, err = run(capsys, "verify-map", "--n", "3",
                             "--input", str(path))
        assert code == 2 and out == ""
        assert "--n 3 does not match the 2 modes" in err
        code, doc, _ = run_json(capsys, "verify-map", "--n", "2",
                                "--input", str(path))
        assert code == 0 and doc["summary"]["total"] == 3 * 4 + 1
        assert "n=2" in doc["command"]

    def test_failing_input_exits_one(self, capsys, tmp_path):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(undeformed_set(2).to_json()))
        code, doc, _ = run_json(capsys, "verify-map", "--input", str(path))
        assert code == 1
        assert doc["summary"]["failed"] > 0

    def test_float_overflow_at_numeric_point_exits_two(self, capsys, tmp_path):
        gens = build_deforming_map(2)
        # a creator scaled by q leaves residual entries that grow with q
        gens.creators = (gens.creators[0].scale(Q), gens.creators[1])
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(gens.to_json()))
        code, out, err = run(capsys, "verify-map", "--input", str(path),
                             "--q-numeric", "1e400")
        assert code == 2 and out == ""
        assert "outside the float range" in err

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

    def test_mode_count_mismatch_exits_before_any_matrix(self, capsys,
                                                         tmp_path):
        path = tmp_path / "gens.json"
        op = {"n_modes": 10 ** 9, "entries": []}
        path.write_text(json.dumps({"modes": 2, "creators": [op],
                                    "annihilators": [op]}))
        code, out, err = run(capsys, "verify-map", "--input", str(path))
        assert code == 2 and out == ""
        assert "modes = 2 does not match the 1 creators" in err
        assert "n_modes" not in err

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify-map", "--input", str(path))
        assert code == 2
        assert "line" in err and "column" in err

    def test_deeply_nested_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, "verify-map", "--input", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: {path}: the JSON document is nested too "
                       f"deeply to read\n")

    @pytest.mark.parametrize("make_doc, field", [
        (lambda: {"modes": 1, "creators": 5, "annihilators": 5},
         "creators must be a list of operator objects"),
        (lambda: {"modes": 1, "creators": ["x"], "annihilators": ["x"]},
         "creators[0] must be a JSON object"),
        (short_entry_doc,
         "creators[0].entries[3] is not [row, col, text]"),
        (lambda: [build_deforming_map(1).to_json()],
         "generator set must be a JSON object"),
    ], ids=["list-is-int", "operator-is-str", "entry-too-short",
            "top-level-list"])
    def test_malformed_shape_names_the_field(self, capsys, tmp_path,
                                             make_doc, field):
        doc = make_doc()
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify-map", "--input", str(path))
        assert code == 2 and out == ""
        assert f"error: {field}" in err

    def test_parse_error_names_the_entry(self, capsys, tmp_path):
        doc = build_deforming_map(2).to_json()
        doc["creators"][0]["entries"][0][2] = "2q q"
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify-map", "--input", str(path))
        assert code == 2 and out == ""
        assert err == ("error: creators[0].entries[0]: could not parse "
                       "'2q q': missing operator at 'q'\n")

    def test_repeated_position_names_both_entries(self, capsys, tmp_path):
        doc = build_deforming_map(2).to_json()
        entries = doc["annihilators"][1]["entries"]
        r, c, _ = entries[0]
        entries.append([r, c, "0"])
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify-map", "--input", str(path))
        assert code == 2 and out == ""
        last = len(entries) - 1
        assert err == (f"error: annihilators[1].entries[{last}] repeats the "
                       f"position [{r}, {c}] of annihilators[1].entries[0]\n")

    @pytest.mark.parametrize("doc, message", [
        ({"modes": 1, "creators": [{"n_modes": 1}],
          "annihilators": [{"n_modes": 1}]},
         'creators[0] has no "entries"'),
        ({"creators": [], "annihilators": []},
         'generator set has no "modes"'),
        ({"modes": 1, "annihilators": []}, 'generator set has no "creators"'),
        ({"modes": 1, "creators": [{"entries": []}],
          "annihilators": [{"entries": []}]},
         'creators[0] has no "n_modes"'),
    ], ids=["no-entries", "no-modes", "no-creators", "no-n_modes"])
    def test_missing_key_is_named(self, capsys, tmp_path, doc, message):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify-map", "--input", str(path))
        assert code == 2 and out == ""
        assert f"error: {message}\n" == err

    @pytest.mark.parametrize("key, value", [
        ("modes", [1]), ("modes", "2"), ("modes", 2.7), ("modes", True),
        ("modes", 2.0), ("n_modes", "1"), ("n_modes", 1.7),
        ("n_modes", True), ("dim", "2"), ("dim", 2.0)],
        ids=["modes-list", "modes-str", "modes-float", "modes-bool",
             "modes-integral-float", "n_modes-str", "n_modes-float",
             "n_modes-bool", "dim-str", "dim-integral-float"])
    def test_count_must_be_a_plain_integer(self, capsys, tmp_path, key,
                                           value):
        doc = build_deforming_map(1).to_json()
        if key == "modes":
            doc["modes"] = value
            field = "generator set"
        else:
            doc["creators"][0][key] = value
            field = "creators[0]"
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify-map", "--input", str(path))
        assert code == 2 and out == ""
        assert (f'error: {field}: "{key}" must be an integer, '
                f'not {type(value).__name__}') in err


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

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_sl_refuses_n_below_two(self, capsys, n):
        code, out, err = run(capsys, "rmatrix", "--algebra", "sl", "--n", n)
        assert code == 2 and out == ""
        assert f"--algebra sl needs --n of at least 2, not {n}" in err

    @pytest.mark.parametrize("n", [17, 1000000])
    def test_sl_refuses_n_above_the_guard(self, capsys, monkeypatch, n):
        # check_braid works on the n^3 cube, so n^3 may not pass MAX_DIM
        def refuse(_n):
            raise AssertionError("the braid matrix was built")
        monkeypatch.setattr(cli, "build_rhat_sl", refuse)
        code, out, err = run(capsys, "rmatrix", "--algebra", "sl",
                             "--n", str(n))
        assert code == 2 and out == ""
        assert (f"--algebra sl --n {n}: n^3 = {n ** 3} outside the supported "
                f"range (dimension guard 4096)") in err

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

    @pytest.mark.parametrize("entry", [[0, "1", "q"], [0, 1, 2], [0, 1],
                                       [True, 1, "q"], {"r": 0}])
    def test_malformed_entry_names_the_field(self, capsys, tmp_path, entry):
        path = tmp_path / "rhat.json"
        path.write_text(json.dumps({"n": 2, "entries": [[0, 0, "q"], entry]}))
        code, out, err = run(capsys, "rmatrix", "--algebra", "sp",
                             "--input", str(path))
        assert code == 2 and out == ""
        assert "error: entries[1] is not [row, col, text]" in err

    def test_parse_error_names_the_entry(self, capsys, tmp_path):
        path = tmp_path / "rhat.json"
        path.write_text(json.dumps({"n": 2, "entries": [[0, 0, "q"],
                                                        [1, 2, "q^^2"]]}))
        code, out, err = run(capsys, "rmatrix", "--algebra", "sp",
                             "--input", str(path))
        assert code == 2 and out == ""
        assert err == ("error: entries[1]: could not parse 'q^^2': "
                       "malformed exponent at 'q^^2'\n")

    def test_repeated_position_names_both_entries(self, capsys, tmp_path):
        path = tmp_path / "rhat.json"
        path.write_text(json.dumps({"n": 1, "entries": [[0, 0, "q"],
                                                        [0, 0, "5"]]}))
        code, out, err = run(capsys, "rmatrix", "--algebra", "sp",
                             "--input", str(path))
        assert code == 2 and out == ""
        assert err == ("error: entries[1] repeats the position [0, 0] "
                       "of entries[0]\n")

    @pytest.mark.parametrize("doc, message", [
        ({"n": 2}, 'braid matrix has no "entries"'),
        ({"entries": []}, 'braid matrix has no "n"'),
        ({"n": "2", "entries": []},
         'braid matrix: "n" must be an integer, not str'),
        ({"n": 2, "dim": 4.0, "entries": []},
         'braid matrix: "dim" must be an integer, not float'),
        ({"n": True, "entries": []},
         'braid matrix: "n" must be an integer, not bool'),
    ], ids=["no-entries", "no-n", "n-str", "dim-float", "n-bool"])
    def test_bad_braid_field_is_named(self, capsys, tmp_path, doc, message):
        path = tmp_path / "rhat.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "rmatrix", "--algebra", "sp",
                             "--input", str(path))
        assert code == 2 and out == ""
        assert f"error: {message}\n" == err

    @pytest.mark.parametrize("digits", [4301, 5000])
    def test_long_json_integer_names_the_file(self, capsys, tmp_path,
                                              int_never_called, digits):
        path = tmp_path / "rhat.json"
        path.write_text('{"n": ' + "7" * digits + ', "entries": []}')
        code, out, err = run(capsys, "rmatrix", "--algebra", "sp",
                             "--input", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: {path}: a JSON integer of {digits} digits "
                       f"exceeds {scalar.MAX_INT_DIGITS}\n")

    def test_unprintable_computed_entry_exits_two(self, capsys, tmp_path):
        # each entry is at the digit bound, and the failing relation's
        # worst entry, their product, has twice as many digits
        run9 = "9" * scalar.MAX_INT_DIGITS
        op = {"n_modes": 1, "dim": 2}
        path = tmp_path / "gens.json"
        path.write_text(json.dumps({
            "modes": 1,
            "creators": [{**op, "entries": [[1, 0, run9]]}],
            "annihilators": [{**op, "entries": [[0, 1, run9]]}]}))
        code, out, err = run(capsys, "verify-map", "--input", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: cannot print a computed value: it has a "
                       f"coefficient of more than {scalar.MAX_INT_DIGITS} "
                       f"digits\n")

    def test_braid_dimension_not_n_squared_exits_two(self, capsys, tmp_path):
        path = tmp_path / "rhat.json"
        path.write_text(json.dumps({"n": 2, "dim": 5,
                                    "entries": [[4, 4, "q"]]}))
        code, out, err = run(capsys, "rmatrix", "--algebra", "sp",
                             "--input", str(path))
        assert code == 2 and out == ""
        assert "dim = 5 is not n^2 = 4 for n = 2" in err

    def test_deeply_nested_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, "rmatrix", "--algebra", "sp",
                             "--input", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: {path}: the JSON document is nested too "
                       f"deeply to read\n")

    def test_sp_requires_input(self, capsys):
        code, _, err = run(capsys, "rmatrix", "--algebra", "sp")
        assert code == 2 and "--input" in err

    def test_sl_refuses_input(self, capsys, tmp_path):
        # sl builds its matrix from --n and would never open the file
        code, out, err = run(capsys, "rmatrix", "--algebra", "sl", "--n", "2",
                             "--input", str(tmp_path / "missing.json"))
        assert code == 2 and out == ""
        assert "--input is read only by --algebra sp" in err

    def test_sp_n_must_match_input(self, capsys, tmp_path):
        path = tmp_path / "rhat.json"
        path.write_text(json.dumps(build_rhat_sl(2).to_json()))
        code, out, err = run(capsys, "rmatrix", "--algebra", "sp",
                             "--input", str(path), "--n", "7")
        assert code == 2 and out == ""
        assert f"--n 7 does not match the n = 2 of {path}" in err
        code, doc, _ = run_json(capsys, "rmatrix", "--algebra", "sp",
                                "--input", str(path), "--n", "2")
        assert code == 0 and "n=2" in doc["command"]

    def test_sp_refuses_q_numeric(self, capsys, tmp_path):
        path = tmp_path / "rhat.json"
        path.write_text(json.dumps(build_rhat_sl(2).to_json()))
        code, out, err = run(capsys, "rmatrix", "--algebra", "sp",
                             "--input", str(path), "--q-numeric", "1.3")
        assert code == 2 and out == ""
        assert "--q-numeric is read only by --algebra sl" in err


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

    def test_exact_at_seven_modes(self, capsys):
        code, doc, _ = run_json(capsys, "poincare", "--n", "7")
        full = {"rank": 16384, "expected": 16384}
        assert code == 0
        assert doc["poincare"] == {"undeformed": full, "deformed": full}

    def test_exact_at_eight_modes(self, capsys):
        code, doc, _ = run_json(capsys, "poincare", "--n", "8")
        full = {"rank": 65536, "expected": 65536}
        assert code == 0
        assert doc["poincare"] == {"undeformed": full, "deformed": full}

    def test_mode_flag_is_gone(self, capsys):
        code, _, _ = run(capsys, "poincare", "--n", "2", "--mode", "exact")
        assert code == 2

    def test_q_numeric_is_refused(self, capsys):
        code, out, err = run(capsys, "poincare", "--q-numeric", "1.3")
        assert code == 2 and out == "" and "--q-numeric" in err

    def test_exact_at_nine_modes(self, capsys):
        code, doc, _ = run_json(capsys, "poincare", "--n", "9")
        full = {"rank": 262144, "expected": 262144}
        assert code == 0
        assert doc["poincare"] == {"undeformed": full, "deformed": full}

    def test_exact_at_ten_modes(self, capsys):
        code, doc, _ = run_json(capsys, "poincare", "--n", "10")
        full = {"rank": 1048576, "expected": 1048576}
        assert code == 0
        assert doc["poincare"] == {"undeformed": full, "deformed": full}

    def test_too_many_modes_refused_before_building(self, capsys, monkeypatch):
        def spy(n, *dressing):
            raise AssertionError(f"generators built for {n} modes")

        # deform calls the builder through its own imported name
        monkeypatch.setattr(fock, "build_generators", spy)
        monkeypatch.setattr(deform, "build_generators", spy)
        code, out, err = run(capsys, "poincare", "--n", "11")
        assert code == 2 and out == ""
        assert "the Poincare rank supports at most 10 modes" in err


@pytest.mark.parametrize("command", ["verify-map", "poincare"])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_mode_count_below_one_names_the_option(capsys, monkeypatch, command,
                                               n):
    def spy(n, *dressing):
        raise AssertionError(f"generators built for {n} modes")

    monkeypatch.setattr(fock, "build_generators", spy)
    monkeypatch.setattr(deform, "build_generators", spy)
    code, out, err = run(capsys, command, "--n", n)
    assert code == 2 and out == ""
    assert err == f"error: {command} needs --n of at least 1, not {n}\n"


@pytest.mark.parametrize("argv", [
    ["poincare", "--n=--"], ["eval", "q", "--q-numeric=--"],
    ["verify-map", "--input=--"]], ids=" ".join)
def test_option_joined_to_a_double_dash_is_a_usage_error(capsys, argv):
    # argparse drops a "--" joined by "=" and stores an empty list, which
    # no command may read as a value
    flag = argv[-1].partition("=")[0]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: argument {flag}: expected one value, not '--'\n"


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


@pytest.mark.parametrize("command", ["covariance", "invariants"])
def test_pole_of_the_generators_exits_two(capsys, command):
    # q = 0 is a pole of the dressing q^-1 of the deformed generators
    code, out, err = run(capsys, command, "--n", "2", "--q-numeric", "0")
    assert code == 2 and out == ""
    assert "denominator q vanishes at q = 0" in err


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

    def test_scale_count_must_match_m(self, capsys):
        code, out, err = run(capsys, "chain-experiment", "--m", "2", "--n",
                             "3", "--scales", "1,q,q^2")
        assert code == 2 and out == ""
        assert "expected 2 scale factors" in err
        assert "--scales" in err and "--m 2" in err

    def test_empty_scales_is_refused(self, capsys):
        # an empty value names no factor; it is not the absent option
        code, out, err = run(capsys, "chain-experiment", "--m", "2", "--n",
                             "2", "--scales", "")
        assert code == 2 and out == ""
        assert err.startswith("error: --scales")

    def test_ten_modes_run_and_summaries_add_up(self, capsys):
        code, doc, _ = run_json(capsys, "chain-experiment", "--m", "5",
                                "--n", "2")
        assert code == 0
        for variant in doc["experiment"]["variants"].values():
            families = variant["families"].values()
            assert variant["summary"] == {
                "total": sum(f["total"] for f in families),
                "exact_zero": sum(f["exact_zero"] for f in families),
                "failed": sum(len(f["failing"]) for f in families)}

    @pytest.mark.parametrize("m, n", [(11, 1), (1, 11), (2, 6)])
    def test_more_than_ten_modes_refused_before_the_map(
            self, capsys, monkeypatch, m, n):
        def refuse(_modes):
            raise AssertionError("the deforming map was built")
        monkeypatch.setattr(chain, "build_deforming_map", refuse)
        code, out, err = run(capsys, "chain-experiment", "--m", str(m),
                             "--n", str(n))
        assert code == 2 and out == ""
        assert "1..10 total modes" in err
        assert f"--m {m} --n {n} asks for {m * n} modes" in err

    @pytest.mark.parametrize("scales, position, text", [
        ("2,0", 1, "0"), ("0,q", 0, "0"), ("q,q - q", 1, "q - q")],
        ids=["second", "first", "cancelling"])
    def test_zero_scale_names_its_position_before_the_map(
            self, capsys, monkeypatch, scales, position, text):
        def refuse(_modes):
            raise AssertionError("the deforming map was built")
        monkeypatch.setattr(chain, "build_deforming_map", refuse)
        code, out, err = run(capsys, "chain-experiment", "--m", "2",
                             "--n", "2", "--scales", scales)
        assert code == 2 and out == ""
        assert err == (f"error: --scales[{position}]: {text!r} is zero; "
                       f"scale factors must be nonzero\n")

    def test_parse_error_names_the_scale(self, capsys):
        code, out, err = run(capsys, "chain-experiment", "--scales", "1,q)")
        assert code == 2 and out == ""
        assert err == ("error: --scales[1]: could not parse 'q)': "
                       "no term at ')'\n")

    @pytest.mark.parametrize("argv, message", [
        (["--m", "-2", "--n", "-3", "--variant", "diagonal-mixed"],
         "the copy count m must be at least 1, not -2"),
        (["--m", "-1", "--n", "-2"],
         "the copy count m must be at least 1, not -1"),
        (["--m", "2", "--n", "-3"],
         "the mode count n must be at least 1, not -3"),
    ], ids=["m-2-n-3", "m-1-n-2", "n-3"])
    def test_sizes_below_one_are_refused_before_the_map(
            self, capsys, monkeypatch, argv, message):
        # m*n inside 1..6 does not make both counts positive
        def refuse(_modes):
            raise AssertionError("the deforming map was built")
        monkeypatch.setattr(chain, "build_deforming_map", refuse)
        code, out, err = run(capsys, "chain-experiment", *argv)
        assert code == 2 and out == "" and message in err

    def test_q_numeric_is_refused(self, capsys):
        code, out, err = run(capsys, "chain-experiment", "--q-numeric", "1.3")
        assert code == 2 and out == "" and "--q-numeric" in err


class TestUncheckedMap:
    @pytest.mark.parametrize("argv", [
        ("chain-experiment", "--m", "2", "--n", "2"),
        ("covariance", "--n", "2"),
        ("invariants", "--n", "2"),
    ])
    def test_no_unreported_relation_pass(self, capsys, monkeypatch, argv):
        calls = []
        original = deform.relation_residuals

        def counted(*args, **kwargs):
            calls.append(args[0].modes)
            return original(*args, **kwargs)

        monkeypatch.setattr(deform, "relation_residuals", counted)
        code, _, _ = run_json(capsys, *argv)
        assert code == 0
        assert calls == []

    def test_drifted_map_is_refused_by_its_relation_check(self, capsys,
                                                           monkeypatch):
        # the builder checks nothing; map_relations and poincare refuse
        monkeypatch.setattr(deform, "deformation_weights",
                            lambda n, i: [-2 if j > i else 0
                                          for j in range(1, n + 1)])
        with pytest.raises(MapConstructionError, match="violates"):
            deform.map_relations(build_deforming_map(2))
        code, out, err = run(capsys, "poincare", "--n", "2")
        assert code == 2 and out == ""
        assert "deforming map violates" in err


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

    def test_summed_coefficient_past_the_digit_bound_exits_two(self, capsys):
        run9 = "9" * scalar.MAX_INT_DIGITS
        code, out, err = run(capsys, "eval", f"{run9} + {run9}")
        assert code == 2 and out == ""
        assert err.startswith("error: could not parse ")
        assert err.endswith(f"its value has a coefficient of more than "
                            f"{scalar.MAX_INT_DIGITS} digits\n")

    def test_float_overflow_exits_two(self, capsys):
        code, out, err = run(capsys, "eval", "q^2", "--q-numeric", "1e200")
        assert code == 2 and out == ""
        assert "outside the float range" in err

    @pytest.mark.parametrize("command", [
        ("eval", "q^1000"), ("eval", "q^100"), ("covariance", "--n", "2"),
        ("verify-map", "--n", "2")])
    @pytest.mark.parametrize("point", [
        "1e10000", "1e500", "1.5e499", "1e-500",
        pytest.param("1" * 501, id="501-digits"), "1e99999999999999999999"])
    def test_oversized_point_exits_two_before_it_is_built(
            self, capsys, monkeypatch, command, point):
        def refuse(*args):
            raise AssertionError("the point was built")

        monkeypatch.setattr(cli, "Fraction", refuse)
        code, out, err = run(capsys, *command, "--q-numeric", point)
        assert code == 2 and out == ""
        assert "--q-numeric value is too large" in err
        assert "exceed 500" in err

    @pytest.mark.parametrize("point", [
        "1e499", "1e-499", "1.5e498", pytest.param("1" * 500, id="500-digits"),
        "2e0008", "1_0e2"])
    def test_point_within_the_digit_bound_is_read(self, capsys, point):
        code, _, err = run(capsys, "eval", "q", "--q-numeric", point)
        assert "--q-numeric value is too large" not in err
        assert code == 0 or "outside the float range" in err

    @pytest.mark.parametrize("point", ["1e100", "1e499"])
    def test_oversized_exact_value_exits_two_before_it_is_built(
            self, capsys, point):
        # q^2000 at 1e100 is a 200 001-digit integer
        code, out, err = run(capsys, "eval", "q^2000", "--q-numeric", point)
        assert code == 2 and out == ""
        assert "degree-2000 function at this point would exceed" in err

    @pytest.mark.parametrize("argv, exact", [
        (("--q-numeric", "-3/4"), "-27/64"), (("--q-numeric=-3/4",), "-27/64"),
        (("--q-numeric", "-1e-1"), "-1/1000")])
    def test_negative_point_is_read(self, capsys, argv, exact):
        code, doc, _ = run_json(capsys, "eval", "q^3", *argv)
        assert code == 0
        assert doc["value"]["exact"] == exact

    @pytest.mark.parametrize("command", [("eval", "q"), ("verify-map",)],
                             ids=["eval", "verify-map"])
    @pytest.mark.parametrize("point", ["1/0", "nan", "inf", "0x10"])
    def test_unreadable_point_names_the_option(self, capsys, command, point):
        code, out, err = run(capsys, *command, "--q-numeric", point)
        assert code == 2 and out == ""
        assert err.startswith(f"error: --q-numeric {point!r} is not a "
                              f"rational point")

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "eval", "q +")
        assert code == 2 and "parse" in err.lower() or "dangling" in err


class TestHarness:
    def test_unknown_subcommand_exits_two(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_program_fault_exits_three(self, capsys, monkeypatch):
        # a stale call with one argument too many is a fault of the
        # program, not bad input: exit 3 with the traceback, not 2
        original = deform.relation_residuals
        monkeypatch.setattr(deform, "relation_residuals",
                            lambda gens, rhat, **kwargs:
                            original(gens, rhat, Q))
        code, out, err = run(capsys, "poincare", "--n", "3")
        assert code == 3 and out == ""
        assert err.startswith("internal error:\nTraceback")
        assert "TypeError: relation_residuals() takes 2 positional " in err

    def test_text_output_has_summary(self, capsys):
        code, out, _ = run(capsys, "verify-map", "--n", "2")
        assert code == 0
        assert "summary: 13 checks, 13 exact-zero, 0 failed" in out
        assert "exact-zero" in out

    def test_json_is_stable_under_reserialization(self, capsys):
        _, doc, _ = run_json(capsys, "poincare", "--n", "2")
        assert json.loads(json.dumps(doc)) == doc


#: argv lists whose help or error output the parser prints: each help
#: page, an unknown subcommand and unrecognized or missing arguments
PARSER_ARGVS = [
    [], ["-h"], ["--help"],
    *([name, "--help"] for name in cli._COMMANDS),
    ["frobnicate"], ["frobnicate", "--n", "2"], ["--output", "json"],
    ["poincare", "--bogus"], ["poincare", "--n", "2", "extra"],
    ["-x", "poincare", "--n", "2"], ["eval"], ["eval", "q", "--n", "2"],
    ["rmatrix", "--algebra", "so"], ["verify-map", "--n", "two"],
    ["chain-experiment", "--variant", "x", "--q-numeric", "1.3"],
    ["covariance", "--q-numeric"], ["invariants", "verify-map", "--m", "2"],
    ["--he"], ["--help", "poincare"], ["verify-map", "--n", "2", "poincare"],
]

#: option flags of every subcommand
FLAGS = sorted({flag for _, _, arguments in cli._COMMANDS.values()
                for flags, _ in arguments for flag in flags
                if flag.startswith("-")})

#: option values and positional words: words that start with "-" (first,
#: so that hypothesis draws them often), ints as int() reads them, empty
#: and spaced words, choices and subcommand names
INTS = ("2", "3", "+3", "3_0", " 3 ", "\u0663")
WORDS = ("--", "-3/4", "-h", "--n", "-", "-3", *INTS, "", "x", "x y", "q",
         "1.3", "text", "json", "sl", "sp", "both", *chain.VARIANTS,
         *cli._COMMANDS)


@st.composite
def command_lines(draw):
    """argv lists that mostly begin with a subcommand and go on with its
    arguments and fitting values; now and then a word is another one, an
    option is abbreviated or lacks its value, or a stray word, help flag
    or ``--`` comes in."""
    def rarely() -> bool:
        return draw(st.integers(min_value=0, max_value=9)) == 0

    name = draw(st.sampled_from(["frobnicate", "--help"] if rarely()
                                else list(cli._COMMANDS)))
    arguments = cli._COMMANDS[name][2] if name in cli._COMMANDS else []
    argv = [name]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if rarely():
            argv.append(draw(st.sampled_from((*WORDS, "--help", "--he"))))
            continue
        flags, options = (draw(st.sampled_from(arguments))
                          if arguments and not rarely()
                          else ((draw(st.sampled_from(FLAGS)),), {}))
        fitting = options.get("choices") or (
            INTS if "type" in options else WORDS)
        value = draw(st.sampled_from(WORDS if rarely() else fitting))
        flag = flags[0]
        if not flag.startswith("-"):
            argv.append(value)
            continue
        if rarely():
            flag = flag[:draw(st.integers(min_value=3, max_value=len(flag)))]
        if rarely():
            argv.append(flag)          # its value missing
        elif draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


#: run in a child interpreter from ``tests/golden/``: which of the modules
#: behind argparse's help and error text are loaded after importing the
#: command line, after every argv read from stdin, and after an error
IMPORT_GUARD = """
import contextlib, io, json, sys

PARSER = ("argparse", "gettext", "locale")


def loaded():
    return [name for name in PARSER if name in sys.modules]


from qclifford.cli import main
seen = {"import": loaded()}
with contextlib.redirect_stdout(io.StringIO()):
    seen["codes"] = [main(argv) for argv in json.loads(sys.stdin.read())]
seen["runs"] = loaded()
with contextlib.redirect_stderr(io.StringIO()):
    seen["error"] = [main(["poincare", "--bogus"]), loaded()]
print(json.dumps(seen))
"""


def captured(call):
    """call()'s result, or the code it exits with, and its stdout and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestParser:
    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
    def test_output_equals_the_full_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            cli.build_parser().parse_args(cli._join_q_numeric(argv))
        full = capsys.readouterr()
        code, out, err = run(capsys, *argv)
        assert (out, err) == (full.out, full.err)
        assert code == stop.value.code
        assert out or err

    @pytest.mark.parametrize("argv", [
        *([*argv, "--output", "json"] for argv in GOLDEN_CASES.values()),
        ["eval", "q", "--q-numeric", "-3/4"], ["eval", "--output=json", "q"],
        ["poincare", "--n", "3", "--n=٣", "--output", "text"],
        ["chain-experiment", "--m", " 2 ", "--n", "+3", "--scales", "1,q"],
        ["verify-map", "--input", "poincare", "--q-numeric="],
        ["eval", ""]], ids=" ".join)
    def test_well_formed_lines_are_read_from_the_table(self, argv):
        argv = cli._join_q_numeric(argv)
        read = cli._read_argv(argv)
        assert read is not None
        assert vars(read) == vars(cli.build_parser().parse_args(argv))

    @settings(max_examples=500, deadline=None)
    @given(command_lines())
    @example(["poincare", "--out", "json", "--n", "2"])
    @example(["eval", "q", "--q-numeric", "-3/4", "--o", "text"])
    @example(["verify-map", "--input=--"])
    @example(["rmatrix", "--input", "-3/4"])
    @example(["chain-experiment", "--scales", "-"])
    def test_reader_agrees_with_the_full_parser(self, argv):
        # every command's function is a stub here, so main prints only
        # what the parser prints, and the stub records the namespace
        calls = []

        def stub(args):
            calls.append(vars(args))
            return 0

        with pytest.MonkeyPatch.context() as patch:
            for name, (help_text, _, arguments) in cli._COMMANDS.items():
                patch.setitem(cli._COMMANDS, name, (help_text, stub, arguments))
            joined = cli._join_q_numeric(argv)
            parsed, *full = captured(
                lambda: cli.build_parser().parse_args(joined))
            read = cli._read_argv(joined)
            code, *printed = captured(lambda: main(argv))
        if isinstance(parsed, int):   # the parser printed help or an error
            assert read is None and calls == [] and code == parsed
        elif (flag := cli._listed_value(parsed)) is not None:  # --flag=--
            assert read is None and calls == [] and code == 2
            full[1] += (f"error: argument {flag}: expected one value, "
                        f"not '--'\n")
        else:
            assert read is None or vars(read) == vars(parsed)
            assert calls == [vars(parsed)] and code == 0
        assert printed == full

    def test_argparse_loads_only_for_help_and_errors(self):
        runs = {name: [*argv, "--output", "json"]
                for name, argv in GOLDEN_CASES.items()}
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
            if p)}
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_GUARD], cwd=GOLDEN, env=env,
            input=json.dumps(list(runs.values())), capture_output=True,
            text=True, timeout=120, check=True)
        seen = json.loads(child.stdout)
        assert seen["codes"] == [
            json.loads((GOLDEN / f"{name}.json").read_text(
                encoding="utf-8"))["exit_code"] for name in runs]
        assert seen["import"] == seen["runs"] == []
        assert seen["error"] == [2, ["argparse", "gettext", "locale"]]
