"""A catalogue of mutants of the package, and a runner that tries each one.

A mutant is one edit of one source file of ``src/qclifford``: an exact old
text, which occurs once in the package, and the new text that replaces it,
with the test files that must fail once the edit is applied.  The tier-1
suite checks the catalogue against the source (``test_mutants.py``); it
runs no mutant.  The runner does:

    python tests/mutants.py [name ...]

For each mutant (or each one named) it copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, applies the edit there and
runs the mutant's test files with a time limit, stopping at the first
failure.  It prints one line per mutant: KILLED with the first test that
did not pass, SURVIVED with pytest's summary line when every test passes,
and TIMEOUT when the time limit ends the run.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qclifford"

#: seconds one mutant's test run may take
TIME_LIMIT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str           # the source file, relative to src/qclifford
    old: str            # exact text, occurring once in the package
    new: str
    tests: tuple        # test files, relative to tests/, that must fail


MUTANTS = [
    # the relation kernel, linalg.product_sum_rows and linalg._clear
    Mutant(
        "kernel-multiple-memo-shared-across-terms", "linalg.py",
        "              else _cofactor(den, k, c, p, num), xrows, yrows, {})\n"
        "             for num, k, c, p, xrows, yrows in table]",
        "              else _cofactor(den, k, c, p, num), xrows, yrows,"
        " shared)\n"
        "             for shared in [{}]\n"
        "             for num, k, c, p, xrows, yrows in table]",
        ("test_linalg.py", "test_linalg_properties.py")),
    Mutant(
        "kernel-first-product-overwrites-an-entry", "linalg.py",
        "                    s = out.get(c)\n"
        "                    if s is None:",
        "                    s = out.get(c)\n"
        "                    if True:",
        ("test_linalg.py", "test_linalg_properties.py", "test_golden.py")),
    Mutant(
        "clear-memo-keyed-by-denominator", "linalg.py",
        "            num = nums.get(v)\n"
        "            if num is None:\n"
        "                num = v.num\n"
        "                if lifts is not None:\n"
        "                    j, s, quo = lifts[v.den.coeffs]\n"
        "                    if quo is not None:\n"
        "                        num = num * quo\n"
        "                    if j or s != 1:\n"
        "                        num = _shift(num, j, s)\n"
        "                nums[v] = num\n",
        "            num = nums.get(v.den.coeffs)\n"
        "            if num is None:\n"
        "                num = v.num\n"
        "                if lifts is not None:\n"
        "                    j, s, quo = lifts[v.den.coeffs]\n"
        "                    if quo is not None:\n"
        "                        num = num * quo\n"
        "                    if j or s != 1:\n"
        "                        num = _shift(num, j, s)\n"
        "                nums[v.den.coeffs] = num\n",
        ("test_linalg.py", "test_golden.py")),
    # SparseMatrix.scale's one product per distinct value
    Mutant(
        "scale-memo-keyed-by-identity", "linalg.py",
        "                value = values.get(v)\n"
        "                if value is None:\n"
        "                    value = values[v] = v * scalar",
        "                value = values.get(id(v))\n"
        "                if value is None:\n"
        "                    value = values[id(v)] = v * scalar",
        ("test_linalg.py",)),
    Mutant(
        "scale-memo-never-read", "linalg.py",
        "                value = values.get(v)\n",
        "                value = None\n",
        ("test_linalg.py",)),
]


def apply(mutant: Mutant, root: Path) -> None:
    """Apply the mutant to the copy of ``src/`` under root."""
    path = root / "src" / "qclifford" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text does not occur once "
                         f"in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> str:
    """The runner's line for one mutant."""
    with tempfile.TemporaryDirectory(prefix="qclifford-mutant-") as tmp:
        root = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                      ".pytest_cache")
        shutil.copytree(ROOT / "src", root / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", root / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", root)
        apply(mutant, root)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x",
                 "-p", "no:cacheprovider",
                 *(f"tests/{name}" for name in mutant.tests)],
                cwd=root, capture_output=True, text=True,
                timeout=TIME_LIMIT_S)
        except subprocess.TimeoutExpired:
            return f"TIMEOUT  {mutant.name} (after {TIME_LIMIT_S} s)"
    if done.returncode in (3, 4, 5):   # pytest's fault, a bad path, no tests
        raise RuntimeError(f"{mutant.name}: pytest exited with "
                           f"{done.returncode}:\n{done.stdout}{done.stderr}")
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0:
        return f"SURVIVED {mutant.name} ({lines[-1]})"
    # a failed test or collection, or a run that a test's time limit or a
    # crash ended, all mean that a test did not pass
    failed = next((line for line in lines if line.startswith(("FAILED",
                                                                "ERROR"))),
                  f"exit status {done.returncode}")
    return f"KILLED   {mutant.name} ({failed})"


def main(names: list[str]) -> int:
    known = {mutant.name for mutant in MUTANTS}
    unknown = sorted(set(names) - known)
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    for mutant in MUTANTS:
        if not names or mutant.name in names:
            print(run(mutant), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
