"""A time limit for every test, and a fixture that forbids int() in the
scalar module.

``pytest-timeout`` is not a dependency, so each test runs under
:func:`faulthandler.dump_traceback_later`: a test still running after
:data:`TIME_LIMIT_S` seconds prints every thread's stack and ends the
run with a nonzero exit code, so a fault that loops or swells an
expression fails the suite instead of hanging it.  The slowest test
takes about 4 s.
"""

import faulthandler
import os

import pytest

from qclifford import scalar

TIME_LIMIT_S = 60

#: a descriptor of the real stderr.  While a test runs, pytest captures
#: file descriptor 2, and a run that the time limit ends never prints
#: that capture, so the stack is written here.
STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[STDERR_FD] = os.dup(2)   # outside any test: not captured


def pytest_unconfigure(config):
    os.close(config.stash[STDERR_FD])


@pytest.fixture(autouse=True)
def time_limit(request):
    faulthandler.dump_traceback_later(TIME_LIMIT_S, exit=True,
                                      file=request.config.stash[STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def int_never_called(monkeypatch):
    """Make any int() call inside the scalar module fail the test, so a
    test can show that a digit run was refused before int() read it."""
    def refuse(*args):
        raise AssertionError(f"int{args} was called")
    monkeypatch.setattr(scalar, "int", refuse, raising=False)
