"""The runtime dependency list stays empty.

``pyproject.toml`` declares no dependencies, and every module of the
package imports only its own modules (package-relative imports) and the
standard library, read from the source with :mod:`ast`.  No module reads
the environment either: every bound is a constant in the source.  No
module memoizes with ``functools.lru_cache``, ``functools.cache`` or
``functools.cached_property`` either: a memo would keep every value it
was handed alive until the command ends.  Every module but the
re-exporting ``__init__.py`` reads each name it imports.  The package
holds only code that a command runs: the golden command lines and
``EXTRA_RUNS`` run in one child interpreter under a line tracer, and every
statement of every function body, dunder methods included, must run,
except a ``raise``, a ``return NotImplemented`` and the statements of the
functions that ``KEPT`` names, each with its reason; a ``KEPT`` entry
whose function has no unrun statement left fails as stale.  Test-only
oracles live in ``tests/oracles.py``.  And every checker decides over
Q(q) alone: no def takes a parameter named ``q_scalar``; a numeric point
is a substitution.
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
#: at the point, a point written with an exponent and one past the float
#: range, a mode count above the Fock guard, verify-map without --n, text
#: with spaces inside its parentheses, usage errors and an option joined
#: to "--" (the kinds of run that build the argparse parser), and each
#: kind of command line that the command table does not read
EXTRA_RUNS = [
    (["verify-map", "--input", "verify_map_input_broken_n3.json",
      "--q-numeric", "1.3", "--output", "text"], 1),
    (["verify-map", "--n", "2", "--q-numeric", "1.3"], 0),
    (["covariance", "--n", "2", "--q-numeric", "1.3"], 0),
    (["rmatrix", "--algebra", "sl", "--n", "2", "--q-numeric", "1.3"], 0),
    (["verify-map", "--n", "2", "--q-numeric", "0"], 2),
    (["eval", "q", "--q-numeric", "1e5"], 0),
    (["eval", "q", "--q-numeric", "1e400"], 2),
    (["verify-map", "--n", "13"], 2),
    (["verify-map"], 0),
    (["eval", "( q )"], 0),
    (["poincare", "--bogus"], 2),
    (["poincare", "--n=--"], 2),
    ([], 2),
    (["poincare", "--out", "json"], 0),
    (["poincare", "--n", "-3"], 2),
    (["eval", "q", "r"], 2),
    (["poincare", "--n", "x"], 2),
    (["rmatrix", "--algebra", "xx"], 2),
]

#: functions with statement lines that no command runs, each kept for the
#: reason given
KEPT = {
    "cli.main": "its exit-3 handler reports a fault of the program, which "
                "no command line reaches",
    "deform.build_inverse_map":
        "reserved for printing the map and its inverse (ROADMAP item 13)",
    "deform.GeneratorSet.to_json":
        "writes the --input files that verify-map reads",
    **dict.fromkeys(
        ["deform._supports", "deform._support_leads", "deform._monomial_rows"],
        "the dict-row fallback for a set with a row of several entries or "
        "a repeated lead, which only the tests build until poincare reads "
        "such a set (ROADMAP item 19)"),
    "linalg.json_int":
        "an --input document may leave out a key that has a default",
    "linalg.rank_numeric":
        "wrapped by the perfbench span linalg.rank_numeric, which the "
        "benchmark's tests require to resolve",
    "linalg.SparseMatrix.first_nonzero":
        "read by the tests as the residual's first entry",
    "linalg.SparseMatrix.nnz":
        "read by the tests and by SparseMatrix.__repr__",
    "scalar._poly_text": "str() of the zero value",
    **dict.fromkeys(["scalar.Poly.__mul__", "scalar.Poly.div_exact",
                     "scalar.Poly.gcd", "linalg.SparseMatrix.scale"],
                    "a zero operand, which no command meets but the "
                    "arithmetic must handle"),
    "scalar.RationalFunction.__mul__":
        "the integer gcd of a product of Laurent monomials that is not 1 "
        "(num // g), which no command meets but the arithmetic must handle",
    "linalg.row_product":
        "a second product in one entry, and a sum that cancels, which no "
        "command's matrix product meets but the arithmetic must handle",
    **dict.fromkeys(
        ["scalar.Poly.__repr__", "scalar.RationalFunction.__repr__",
         "linalg.SparseMatrix.__repr__", "rmatrix.RMatrix.__repr__"],
        "pytest prints the operands of a failed assertion by repr"),
}

#: run in a child interpreter: trace the lines of ``job["lines"]`` (file
#: -> line numbers) while importing ``job["module"]`` and calling its
#: ``job["function"]`` on each argument list of ``job["calls"]`` with the
#: output discarded, then print the results and the lines that ran.  A
#: code object is traced only until all of its lines have run.
_TRACED_RUN = """
import contextlib, importlib, io, json, sys

job = json.loads(sys.stdin.read())
wanted = {path: set(lines) for path, lines in job["lines"].items()}
own = {}        # code object -> its wanted lines
pending = {}    # code object -> its wanted lines that have not run


def trace_line(frame, event, arg):
    if event == "line":
        lines = pending[frame.f_code]
        lines.discard(frame.f_lineno)
        if not lines:   # a returned None alone leaves the frame traced
            frame.f_trace = None
            return None
    return trace_line


def trace_call(frame, event, arg):
    code = frame.f_code
    if code not in pending:
        own[code] = wanted.get(code.co_filename, set()) & {
            line for *_, line in code.co_lines()}
        pending[code] = set(own[code])
    return trace_line if pending[code] else None


sys.settrace(trace_call)
function = getattr(importlib.import_module(job["module"]), job["function"])
results = []
for args in job["calls"]:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        results.append(function(*args))
sys.settrace(None)
print(json.dumps({"results": results, "ran": sorted(
    {(code.co_filename, line) for code in own
     for line in own[code] - pending[code]})}))
"""


def traced_run(module: str, function: str, calls: list, statements: dict,
               path: Path, cwd: Path) -> tuple[list, set]:
    """The results of ``module.function(*args)`` for each of ``calls``, run
    in a child interpreter with ``path`` on its module path, and the
    ``(file, line)`` of each statement of ``statements`` (file ->
    :func:`function_statements`) that ran, the exempt ones left out."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(path), env.get("PYTHONPATH")) if p)
    lines = {str(file): sorted({line for _, line, _, exempt in found
                                if not exempt})
             for file, found in statements.items()}
    child = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN], cwd=cwd, env=env,
        input=json.dumps({"module": module, "function": function,
                          "calls": calls, "lines": lines}),
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(child.stdout)
    return result["results"], {tuple(pair) for pair in result["ran"]}


def function_statements(path: Path) -> list:
    """``(module.qualname, line, text, exempt)`` for each statement of the
    own body of each def in a source file, nested defs and dunder methods
    included, in line order.  ``line`` is the first line of the
    statement's head that compiles to code, a statement that compiles to
    none (a docstring) is left out, and ``exempt`` marks a ``raise`` and a
    ``return NotImplemented``."""
    source = path.read_text(encoding="utf-8")
    code_lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        code_lines |= {line for *_, line in code.co_lines()}
        todo += [const for const in code.co_consts
                 if isinstance(const, type(code))]
    text = source.splitlines()
    found = []
    for qualname, node in _defs(ast.parse(source, filename=str(path)).body,
                                ""):
        for stmt in _own_statements(node):
            body = getattr(stmt, "body", None)
            last = (max(stmt.lineno, body[0].lineno - 1)
                    if isinstance(body, list) else stmt.end_lineno)
            head = code_lines.intersection(range(stmt.lineno, last + 1))
            if head:
                exempt = isinstance(stmt, ast.Raise) or (
                    ast.unparse(stmt) == "return NotImplemented")
                found.append((f"{path.stem}.{qualname}", min(head),
                              text[stmt.lineno - 1].strip(), exempt))
    return sorted(found, key=lambda statement: statement[1])


def _defs(body, prefix: str):
    """``(__qualname__, node)`` of each def in ``body``, nested ones
    included."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _defs(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _defs(_own_statements(node),
                             f"{prefix}{node.name}.<locals>.")


def _own_statements(node):
    """The statements of a def's body, compound statements and exception
    handlers opened, nested defs and classes left closed."""
    todo = list(node.body)
    while todo:
        stmt = todo.pop(0)
        if isinstance(stmt, ast.stmt):
            yield stmt
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                todo += getattr(stmt, field, [])


def unrun_statements(statements: dict, ran: set, kept: dict):
    """The statements of ``statements`` (file -> :func:`function_statements`)
    that did not run, as ``file:line: statement`` lists by function, with
    the exempt ones and those of the ``kept`` functions left out; and the
    ``kept`` names with no statement left to keep."""
    unrun, kept_unrun = {}, set()
    for path, found in statements.items():
        for function, line, text, exempt in found:
            if exempt or (str(path), line) in ran:
                continue
            if function in kept:
                kept_unrun.add(function)
            else:
                unrun.setdefault(function, []).append(
                    f"{path.name}:{line}: {text}")
    return unrun, sorted(set(kept) - kept_unrun)


def to_do(unrun: dict) -> str:
    """The unrun statements as a to-do list, grouped by function."""
    return "\n".join(f"{function}:" + "".join(f"\n  {entry}"
                                              for entry in entries)
                     for function, entries in unrun.items())


def test_package_holds_only_command_code():
    from test_golden import CASES, GOLDEN

    runs = [([*argv, "--output", "json"],
             json.loads((GOLDEN / f"{case}.json").read_text(
                 encoding="utf-8"))["exit_code"])
            for case, argv in sorted(CASES.items())] + EXTRA_RUNS
    statements = {path: function_statements(path)
                  for path in sorted(PACKAGE.glob("*.py"))}
    codes, ran = traced_run("qclifford.cli", "main",
                            [[argv] for argv, _ in runs], statements,
                            ROOT / "src", GOLDEN)
    assert codes == [code for _, code in runs]
    unrun, stale = unrun_statements(statements, ran, KEPT)
    # one assertion, so that neither list hides the other
    assert (stale, unrun) == ([], {}), (
        f"KEPT names functions with no unrun line: {stale}\n"
        f"no command runs these lines:\n{to_do(unrun)}")


def test_line_scan_sees_each_form(tmp_path):
    path = tmp_path / "scanned.py"
    path.write_text("class Box:\n"
                    "    def __eq__(self, other):\n"
                    "        if not isinstance(other, Box):\n"
                    "            return NotImplemented\n"
                    "        return True\n"
                    "def run(x):\n"
                    "    \"\"\"Docstring.\"\"\"\n"
                    "    if x > 0:\n"
                    "        return x\n"
                    "    if x == 0:\n"
                    "        raise ValueError(x)\n"
                    "    if x < -10:\n"
                    "        x = -10\n"
                    "        x += 1\n"
                    "    return -x == -x and Box() == Box()\n"
                    "def spare():\n"
                    "    return 0\n")
    statements = {path: function_statements(path)}
    results, ran = traced_run("scanned", "run", [[1], [-1]], statements,
                              tmp_path, tmp_path)
    assert results == [1, True]
    # the unrun branch is listed, the raise, the docstring, the unrun
    # return NotImplemented and the kept function are not, and a kept
    # function whose every line ran is stale
    unrun, stale = unrun_statements(
        statements, ran, {"scanned.spare": "kept", "scanned.Box.__eq__": "x"})
    assert unrun == {"scanned.run": ["scanned.py:13: x = -10",
                                     "scanned.py:14: x += 1"]}
    assert stale == ["scanned.Box.__eq__"]
    assert to_do(unrun) == ("scanned.run:\n  scanned.py:13: x = -10\n"
                            "  scanned.py:14: x += 1")


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
    # RMatrix adds something, the block dimension n of its index pairs
    assert sparse_matrix_subclasses() == ["RMatrix"]
