"""The runtime dependency list stays empty.

``pyproject.toml`` declares no dependencies, and every module of the
package imports only its own modules (package-relative imports) and the
standard library, read from the source with :mod:`ast`.  No module reads
the environment either: every bound is a constant in the source.  No
module memoizes with ``functools.lru_cache``, ``functools.cache`` or
``functools.cached_property`` either: a memo would keep every value it
was handed alive until the command ends.
"""

import ast
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
