"""Golden reports: every listed command's JSON output, byte for byte.

Each case reruns one command through ``qclifford.cli.main`` with stdout
captured, from ``tests/golden/`` as the working directory (the ``command``
echo contains the ``--input`` path, so that path is relative and fixed),
and compares the output with the committed ``tests/golden/<case>.json``.
A change that alters any verdict or report byte fails here.

To regenerate after a deliberate report change::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from qclifford.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: case name -> argv; the sp input is a fixture beside the reports
CASES = {
    "verify-map-n2": ["verify-map", "--n", "2"],
    "verify-map-n4": ["verify-map", "--n", "4"],
    "poincare-n3": ["poincare", "--n", "3"],
    "poincare-n4": ["poincare", "--n", "4"],
    "rmatrix-sl-n3": ["rmatrix", "--algebra", "sl", "--n", "3"],
    "rmatrix-sp-input": ["rmatrix", "--algebra", "sp",
                         "--input", "sp_input_braid_sl2.json"],
    "covariance-n2": ["covariance", "--n", "2"],
    "invariants-n2-q1.3": ["invariants", "--n", "2", "--q-numeric", "1.3"],
    "chain-experiment-m2n2": ["chain-experiment", "--m", "2", "--n", "2"],
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


if __name__ == "__main__":
    for name, argv in CASES.items():
        _, text = run_case(argv)
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote {name}.json")
