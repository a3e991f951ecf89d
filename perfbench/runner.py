"""Run qclifford commands one at a time, each in a fresh forked child.

The parent imports ``qclifford.cli`` and never runs a command itself, so
whatever a command leaves behind in the interpreter (a cache, a grown
heap) dies with its child, as it would for a user who starts one
``qclifford`` process per call.  The child times ``main(argv)`` from just
before the call until it returns, with stdout and stderr captured, and
sends the result back through a pipe; its peak resident memory comes from
``os.wait4``.

On a shared host the speed of the same code swings by 25 % and more, over
seconds and over minutes.  So an untraced child also measures the speed it
runs at: a few speed probes just before ``main(argv)``, and one more every
``PROBE_EVERY_CPU_S`` of CPU time while the command runs, from a
``SIGVTALRM`` handler.  The time those probes take is subtracted from the
command's time.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

import workloads

COMMAND_TIMEOUT_S = 170
PROBE_EVERY_CPU_S = 0.05
PROBES_BEFORE = 3


def probe() -> float:
    """Seconds for a fixed piece of pure-Python work of the program's kind,
    about 1.5 ms: gcd steps by pseudo-remainders on small integer polynomials,
    as in the program's scalar layer, and small dicts of tuples."""
    start = time.perf_counter()
    for k in range(48):
        a, b = [3, 1, 4, 1, 5, 9, 2, 6, k % 12 + 1], [2, 7, 1, 8, k % 12 + 2]
        while len(b) > 1:
            r, lead = a, b[-1]
            while len(r) >= len(b):
                c, shift = r[-1], len(r) - len(b)
                r = [x * lead for x in r]
                for j, y in enumerate(b):
                    r[shift + j] -= c * y
                while r and r[-1] == 0:
                    r.pop()
            g = 0
            for x in r:
                g = gcd(g, x)
            a, b = b, [x // g for x in r] if g > 1 else r
        table = {i: (i, k) for i in range(8)}
    del table
    return time.perf_counter() - start


@dataclass
class Outcome:
    """What one forked command produced."""

    label: str
    seconds: float = 0.0
    exit_code: int | None = None
    report: str = ""
    peak_rss_kb: int = 0
    error: str | None = None
    stderr: str = ""
    layers: dict | None = None
    probes: list = field(default_factory=list)


@dataclass
class PassResult:
    """One pass over a workload's command list."""

    outcomes: list = field(default_factory=list)
    failures: list = field(default_factory=list)   # (label, reasons)

    @property
    def wall_s(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.peak_rss_kb for o in self.outcomes) / 1024

    def report_digest(self) -> str:
        digest = hashlib.sha256()
        for outcome in self.outcomes:
            digest.update(outcome.report.encode("utf-8"))
        return digest.hexdigest()


def _child(argv, cwd: Path, tracer) -> dict:
    from qclifford.cli import main

    os.chdir(cwd)
    probes, during = [], []
    if tracer is not None:
        tracer.install()
    else:
        probes = [probe() for _ in range(PROBES_BEFORE)]
        signal.signal(signal.SIGVTALRM, lambda *_: during.append(probe()))
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_CPU_S, PROBE_EVERY_CPU_S)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            code = main(list(argv))
            seconds = time.perf_counter() - start
    except Exception:  # a command that raises is a failed command, reported
        return {"error": traceback.format_exc(), "stderr": err.getvalue()}
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    return {"exit_code": code, "seconds": seconds - sum(during), "report": out.getvalue(),
            "stderr": err.getvalue(), "probes": probes + during,
            "layers": tracer.snapshot() if tracer is not None else None}


def run_command(label: str, argv, cwd: Path, tracer=None,
                timeout_s: float = COMMAND_TIMEOUT_S) -> Outcome:
    """Run ``qclifford argv`` in a forked child and collect its outcome.

    ``tracer`` (a :class:`layers.Tracer` or None) is installed in the child
    only.  The child is killed by SIGALRM after ``timeout_s`` seconds.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 70
        try:
            os.close(read_fd)
            signal.alarm(max(1, int(timeout_s)))
            payload = json.dumps(_child(argv, cwd, tracer)).encode("utf-8")
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status, usage = os.wait4(pid, 0)
    outcome = Outcome(label, peak_rss_kb=usage.ru_maxrss)
    if status != 0 or not data:
        outcome.error = f"child ended with wait status {status}"
        return outcome
    payload = json.loads(data)
    if "error" in payload:
        outcome.error = payload["error"]
        return outcome
    outcome.seconds = payload["seconds"]
    outcome.exit_code = payload["exit_code"]
    outcome.report = payload["report"]
    outcome.layers = payload["layers"]
    outcome.stderr = payload["stderr"]
    outcome.probes = payload["probes"]
    return outcome


def run_pass(commands, cwd: Path, tracer=None, deadline: float | None = None,
             between=None) -> PassResult:
    """Run every command once, in order, and check each verdict.

    A command fails when it raised, ended abnormally or reached a verdict
    other than its known answer.  ``between`` is called before each
    command, outside the timed region.
    """
    result = PassResult()
    for command in commands:
        if between is not None:
            between()
        timeout = COMMAND_TIMEOUT_S if deadline is None else deadline - time.monotonic()
        outcome = run_command(command.label, command.argv, cwd, tracer, timeout)
        result.outcomes.append(outcome)
        if outcome.error is not None:
            result.failures.append((command.label, [outcome.error]))
            continue
        wrong = workloads.mismatches(command, outcome.exit_code, outcome.report)
        if wrong:
            if outcome.stderr:
                wrong.append(f"stderr: {outcome.stderr.strip()}")
            result.failures.append((command.label, wrong))
    return result
