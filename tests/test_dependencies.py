"""The runtime dependency list stays empty.

``pyproject.toml`` declares no dependencies, and every module of the
package imports only its own modules (package-relative imports) and the
standard library, read from the source with :mod:`ast`.  No module reads
the environment either: every bound is a constant in the source.  No
module memoizes with ``functools.lru_cache``, ``functools.cache`` or
``functools.cached_property`` either: a memo would keep every value it
was handed alive until the command ends.  Every module but the
re-exporting ``__init__.py`` reads each name it imports.  The package
holds only code that a command runs: test-only oracles live in
``tests/oracles.py``.  And every checker decides over Q(q) alone: no def
takes a parameter named ``q_scalar``; a numeric point is a substitution.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qclifford"


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert doc["project"]["dependencies"] == []


def absolute_imports(path: Path):
    """Top-level names of the modules a source file imports absolutely."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_package_imports_only_the_standard_library(path):
    outside = set(absolute_imports(path)) - sys.stdlib_module_names
    assert not outside


def environment_reads(path: Path):
    """The ``os`` imports and the ``environ`` / ``getenv`` reads of a
    source file, as source text."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names
                        if alias.name.split(".")[0] == "os")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "os":
                yield node.module
        elif isinstance(node, ast.Attribute) and node.attr in ("environ",
                                                               "getenv"):
            yield ast.unparse(node)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_package_reads_no_environment(path):
    assert list(environment_reads(path)) == []


MEMOIZERS = {"lru_cache", "cache", "cached_property"}


def memoizer_uses(path: Path):
    """Imports of the functools memoizers and every attribute that reads
    one of them (``functools.cache``), as source text."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from (f"from functools import {alias.name}"
                        for alias in node.names
                        if alias.name in MEMOIZERS | {"*"})
        elif isinstance(node, ast.Attribute) and node.attr in MEMOIZERS:
            yield ast.unparse(node)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_package_memoizes_nothing(path):
    assert list(memoizer_uses(path)) == []


def test_memoizer_scan_sees_each_form(tmp_path):
    path = tmp_path / "memo.py"
    path.write_text("import functools\n"
                    "from functools import cached_property\n"
                    "@functools.lru_cache(maxsize=None)\n"
                    "def f(x):\n    return x\n"
                    "g = functools.cache(f)\n")
    assert list(memoizer_uses(path)) == [
        "from functools import cached_property", "functools.lru_cache",
        "functools.cache"]


def unused_imports(path: Path):
    """The names a source file imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py"))
                                        - {PACKAGE / "__init__.py"}),
                         ids=lambda path: path.name)
def test_package_imports_only_names_it_reads(path):
    # __init__.py only re-exports, so its imports are never read there
    assert unused_imports(path) == []


def test_unused_import_scan_sees_each_form(tmp_path):
    path = tmp_path / "imports.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\n"
                    "import re as regex\n"
                    "from math import gcd as _int_gcd, lcm\n"
                    "from .scalar import Q\n"
                    "x = lcm(2, 3) + Q\n")
    assert unused_imports(path) == ["os", "regex", "_int_gcd"]


# ---------------------------------------------------------------------------
# the package holds only code that a command runs
# ---------------------------------------------------------------------------

#: argv lists run on top of the golden commands, with their exit codes:
#: text output, a --q-numeric point on each command that reads one, a pole
#: at the point, a mode count above the Fock guard, a usage error and an
#: option joined to "--", the kinds of run that build the argparse parser
EXTRA_RUNS = [
    (["verify-map", "--input", "verify_map_input_broken_n3.json",
      "--q-numeric", "1.3", "--output", "text"], 1),
    (["verify-map", "--n", "2", "--q-numeric", "1.3"], 0),
    (["covariance", "--n", "2", "--q-numeric", "1.3"], 0),
    (["rmatrix", "--algebra", "sl", "--n", "2", "--q-numeric", "1.3"], 0),
    (["verify-map", "--n", "2", "--q-numeric", "0"], 2),
    (["verify-map", "--n", "13"], 2),
    (["poincare", "--bogus"], 2),
    (["poincare", "--n=--"], 2),
]

#: functions no command enters, each kept for the reason given
KEPT = {
    "linalg.rank_numeric":
        "wrapped by the perfbench span linalg.rank_numeric, which the "
        "benchmark's tests require to resolve",
    "deform.build_inverse_map":
        "reserved for printing the map and its inverse (ROADMAP item 13)",
    "deform.GeneratorSet.to_json":
        "writes the --input files that verify-map reads",
    "linalg.SparseMatrix.first_nonzero":
        "read by the tests as the residual's first entry",
    "linalg.SparseMatrix.nnz":
        "read by the tests and by SparseMatrix.__repr__",
}

_PROFILED_RUN = """
import contextlib, io, json, sys

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
from qclifford.cli import main

codes = []
for argv in json.loads(sys.stdin.read()):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(
    {(code.co_filename, code.co_qualname) for code in entered})}))
"""


def defined_functions():
    """``module.qualname`` of every non-dunder ``def`` in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for qualname in _qualnames(tree.body, ""):
            name = qualname.rsplit(".", 1)[-1]
            if not (name.startswith("__") and name.endswith("__")):
                yield f"{path.stem}.{qualname}"


def _qualnames(body, prefix: str):
    """The ``__qualname__`` of each def in ``body``, nested ones included."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _qualnames(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name
            yield from _qualnames(_own_statements(node),
                                  f"{prefix}{node.name}.<locals>.")


def _own_statements(node):
    """The statements of a def's body, with compound statements opened."""
    todo = list(node.body)
    while todo:
        stmt = todo.pop(0)
        yield stmt
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                todo += getattr(stmt, field, [])


def test_package_holds_only_command_code():
    from test_golden import CASES, GOLDEN

    runs = [([*argv, "--output", "json"],
             json.loads((GOLDEN / f"{case}.json").read_text(
                 encoding="utf-8"))["exit_code"])
            for case, argv in sorted(CASES.items())] + EXTRA_RUNS
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, "-c", _PROFILED_RUN], cwd=GOLDEN, env=env,
        input=json.dumps([argv for argv, _ in runs]), capture_output=True,
        text=True, timeout=120, check=True)
    result = json.loads(child.stdout)
    assert result["codes"] == [code for _, code in runs]
    entered = {f"{Path(filename).stem}.{qualname}"
               for filename, qualname in result["entered"]
               if Path(filename).resolve().parent == PACKAGE}
    defined = set(defined_functions())
    # an allowlist entry must name a def that no command enters
    assert sorted(set(KEPT) - defined) == []
    assert sorted(set(KEPT) & entered) == []
    unreached = sorted(defined - entered - set(KEPT))
    assert unreached == [], f"no command enters {unreached}"


def sparse_matrix_subclasses():
    """The names of the package's classes that derive from SparseMatrix,
    directly or through another class of the package."""
    bases = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        bases.update({node.name: {ast.unparse(base).rsplit(".", 1)[-1]
                                  for base in node.bases}
                      for node in ast.walk(tree)
                      if isinstance(node, ast.ClassDef)})
    found: set = set()
    while True:
        derived = {name for name, names in bases.items()
                   if names & (found | {"SparseMatrix"})}
        if derived == found:
            return sorted(found)
        found = derived


def q_scalar_parameters(path: Path):
    """The name of every def in a source file with a parameter named
    ``q_scalar`` (positional, keyword-only or variadic), and
    ``Class.q_scalar`` for every class that declares such a field."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.q_scalar" for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign)
                        and ast.unparse(stmt.target) == "q_scalar")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            args = node.args
            names = [a.arg for a in (*args.posonlyargs, *args.args,
                                     *args.kwonlyargs, args.vararg,
                                     args.kwarg) if a is not None]
            if "q_scalar" in names:
                yield getattr(node, "name", "<lambda>")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_def_or_field_takes_a_q_scalar(path):
    assert list(q_scalar_parameters(path)) == []


def test_q_scalar_scan_sees_each_form(tmp_path):
    path = tmp_path / "point.py"
    path.write_text("def f(gens, q_scalar=None):\n    pass\n"
                    "def g(*, q_scalar):\n    pass\n"
                    "class C:\n    def h(self, q_scalar, /):\n        pass\n"
                    "k = lambda q_scalar: q_scalar\n"
                    "class D:\n    q_scalar: int\n"
                    "def ok(q, point):\n    pass\n")
    assert sorted(q_scalar_parameters(path)) == ["<lambda>", "D.q_scalar",
                                                 "f", "g", "h"]


def test_rmatrix_is_the_one_sparse_matrix_subclass():
    # a Fock-space operator is a plain SparseMatrix of dimension 2^N; only
    # RMatrix adds something, the pair indexing that block() reads
    assert sparse_matrix_subclasses() == ["RMatrix"]
