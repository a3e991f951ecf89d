"""A time limit for every test, a fixture that forbids int() in the
scalar module and one that records every product in Q(q).

``pytest-timeout`` is not a dependency, so each test runs under
:func:`faulthandler.dump_traceback_later`: a test still running after
:data:`TIME_LIMIT_S` seconds prints every thread's stack and ends the
run with a nonzero exit code, so a fault that loops or swells an
expression fails the suite instead of hanging it.  On a shared 2-vCPU
x86-64 host with Python 3.11 the whole suite takes 30-45 s.  The slowest
test is the property on conjugated generator sets, whose exact
elimination over Q(q) depends on the drawn sets: 0.4-5.8 s under
``--hypothesis-seed`` 2 to 13, and 17-18 s under ``--hypothesis-seed=1``,
whose draws took 40 s while the reference rank was also exact.  The
next slowest take 1.5-3.5 s: the command-line reader property, the
sympy inverse property and ``poincare --n 10``.
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


@pytest.fixture
def q_products(monkeypatch):
    """The operand pairs (self, other) of every product in Q(q) formed
    while the test runs, in order.  Both ``RationalFunction.__mul__`` and
    ``__rmul__`` are recorded: ``__rmul__`` is bound to the original
    function, and an int on the left, as in ``-1 * value``, reaches it."""
    products = []
    real_mul = scalar.RationalFunction.__mul__

    def spy(self, other):
        products.append((self, other))
        return real_mul(self, other)

    monkeypatch.setattr(scalar.RationalFunction, "__mul__", spy)
    monkeypatch.setattr(scalar.RationalFunction, "__rmul__", spy)
    return products
