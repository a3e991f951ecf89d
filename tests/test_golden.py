"""Golden reports: every listed command's JSON output, byte for byte.

Each case reruns one command through ``qclifford.cli.main`` with stdout
captured, from ``tests/golden/`` as the working directory (the ``command``
echo contains the ``--input`` path, so that path is relative and fixed),
and compares the output with the committed ``tests/golden/<case>.json``.
A change that alters any verdict or report byte fails here.  The same
cases are also run in child interpreters under two fixed hash seeds
(``PYTHONHASHSEED`` 0 and 12345), so a report that depends on the
iteration order of a set or on string and tuple hashes fails too.

To regenerate after a deliberate report change::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qclifford
from qclifford.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: run in a child interpreter: every case's exit code and stdout, as JSON
CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
         "from test_golden import CASES, run_case; "
         "print(json.dumps({name: run_case(argv) "
         "for name, argv in CASES.items()}))")

#: case name -> argv; the sp braid matrices (the sl braid matrices for N = 2
#: and N = 3) and the broken N = 3 generator set are input fixtures beside
#: the reports.  The generator set is the
#: deforming map with the mode-1 creator scaled by (q^2 + 3)/(3*q + 1), the
#: mode-2 annihilator scaled by (2*q^2 + q + 3)/(q + 2) (not the inverse)
#: and an extra entry q at (2, 2) of the mode-1 annihilator, so that worst
#: entries sit off (0, 0) and one lies in a row holding two entries.  The
#: rescaled N = 3 set is the deforming map with mode i rescaled by s_i,
#: Adag_i -> s_i Adag_i and A^i -> A^i / s_i, for s = 3*q^2, -q^-1/2 and 5:
#: every relation holds, and the star check fails and prints its worst entry.
CASES = {
    "verify-map-n2": ["verify-map", "--n", "2"],
    "verify-map-n4": ["verify-map", "--n", "4"],
    "poincare-n3": ["poincare", "--n", "3"],
    "poincare-n4": ["poincare", "--n", "4"],
    "rmatrix-sl-n3": ["rmatrix", "--algebra", "sl", "--n", "3"],
    "rmatrix-sp-input": ["rmatrix", "--algebra", "sp",
                         "--input", "sp_input_braid_sl2.json"],
    "rmatrix-sp-input-n3": ["rmatrix", "--algebra", "sp",
                            "--input", "sp_input_braid_sl3.json"],
    "covariance-n2": ["covariance", "--n", "2"],
    "invariants-n2-q1.3": ["invariants", "--n", "2", "--q-numeric", "1.3"],
    "chain-experiment-m2n2": ["chain-experiment", "--m", "2", "--n", "2"],
    "chain-experiment-m2n2-rm": ["chain-experiment", "--m", "2", "--n", "2",
                                 "--variant", "RM-braided-mixed"],
    "chain-experiment-m3n2": ["chain-experiment", "--m", "3", "--n", "2"],
    "chain-experiment-m2n2-scaled": [
        "chain-experiment", "--m", "2", "--n", "2", "--scales",
        "(2*q^2 + q + 3)/(q + 2),(q^2 + 3)/(3*q + 1)"],
    "chain-experiment-m3n2-scaled": [
        "chain-experiment", "--m", "3", "--n", "2", "--scales",
        "(q^2 + 3)/(3*q + 1),(2*q^2 + q + 3)/(q + 2),q"],
    "chain-experiment-m2n3-scaled": [
        "chain-experiment", "--m", "2", "--n", "3", "--scales",
        "(q^2 + 3)/(3*q + 1),(2*q^2 + q + 3)/(q + 2)"],
    "verify-map-input-broken": ["verify-map", "--input",
                                "verify_map_input_broken_n3.json"],
    "verify-map-input-broken-q1.3": ["verify-map", "--input",
                                     "verify_map_input_broken_n3.json",
                                     "--q-numeric", "1.3"],
    "verify-map-input-rescaled": ["verify-map", "--input",
                                  "verify_map_input_rescaled_n3.json"],
    "eval-q1.3": ["eval", "(q^3 - 3*q + 2)/(q^2 - 1)", "--q-numeric", "1.3"],
}


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one JSON command run from ``GOLDEN``."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--output", "json"])
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_byte_identical(case):
    code, text = run_case(CASES[case])
    expected = (GOLDEN / f"{case}.json").read_text(encoding="utf-8")
    assert text == expected
    assert code == json.loads(expected)["exit_code"]


def test_no_product_has_a_zero_operand(q_products):
    # every relation writer adds terms for nonzero entries only, so no
    # golden command line forms a product in Q(q) with a zero operand
    for argv in CASES.values():
        run_case(argv)
    assert q_products
    assert [pair for pair in q_products if not all(pair)] == []


@pytest.mark.parametrize("seed", ["0", "12345"])
def test_reports_do_not_depend_on_the_hash_seed(seed):
    package_root = str(Path(qclifford.__file__).parents[1])
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": package_root}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(__file__).parent)], env=env,
        capture_output=True, text=True, timeout=120, check=True)
    results = json.loads(child.stdout)
    assert sorted(results) == sorted(CASES)
    differ = [name for name, (code, text) in results.items()
              if text != (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
              or code != json.loads(text)["exit_code"]]
    assert differ == []


if __name__ == "__main__":
    for name, argv in CASES.items():
        _, text = run_case(argv)
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote {name}.json")
