"""The repository's pytest configuration lets a failing property test
fail alone.

``filterwarnings = ["error"]`` turns every warning into an error, and the
hypothesis plugin's report hook reads ``mypy_extensions.TypedDict``,
which warns that it is deprecated.  Unignored, that warning aborts the
run with ``INTERNALERROR`` at the first failing ``@given`` test, and no
later test runs.  A child pytest run with the repository's configuration
on a failing property and a passing test reports both.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PAIR = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_failing_property_does_not_stop_the_run(tmp_path):
    pytest.importorskip("hypothesis")
    (tmp_path / "test_pair.py").write_text(PAIR, encoding="utf-8")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in child.stdout + child.stderr
    assert "1 failed, 1 passed" in child.stdout
