"""Benchmark of the qclifford command line: time to an exact verdict.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 28 --trace 0

The run writes the seeded input files, imports ``qclifford.cli`` and then
runs passes over the workload's command list for ``--seconds``; every
command runs in its own child forked from this process (see ``runner.py``)
and its verdict is checked against the known answer (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``).  Command times are rescaled by speed probes run in the
command's own child (see ``runner.py``); between commands the run samples
the time of a fresh ``import qclifford.cli`` (see :class:`ImportSampler`).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``layers.py`` plus ``trace.overhead``.  The last line
of standard output is one JSON object; the lines before it state every
metric with its unit, quartiles and sample count, the failed-command ratio
and a SHA-256 over the report bytes of the first pass.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import runner
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170      # every child is stopped before the run's own limit
PROBE_REFERENCE_S = 0.0015
IMPORT_EVERY_S, MIN_IMPORTS, IMPORT_PROBES = 2.5, 7, 5


def scale(probes) -> float:
    """Factor from seconds measured while the probes took their time to
    seconds on a host where one probe takes ``PROBE_REFERENCE_S``."""
    return PROBE_REFERENCE_S / statistics.median(probes)


def time_import() -> float:
    """Wall time of a fresh interpreter that imports ``qclifford.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qclifford.cli"], env=env,
                   cwd=ROOT, check=True, capture_output=True)
    return time.perf_counter() - start


class ImportSampler:
    """Set-up samples, taken between commands at most every ``IMPORT_EVERY_S``
    so that they spread over the run; each is rescaled by speed probes run
    right before and right after it."""

    def __init__(self):
        self.unscaled: list = []
        self.scaled: list = []
        self._last = float("-inf")

    def sample(self) -> None:
        probes = [runner.probe() for _ in range(IMPORT_PROBES)]
        seconds = time_import()
        probes += [runner.probe() for _ in range(IMPORT_PROBES)]
        self.unscaled.append(seconds)
        self.scaled.append(seconds * scale(probes))
        self._last = time.monotonic()

    def __call__(self) -> None:
        if time.monotonic() - self._last >= IMPORT_EVERY_S:
            self.sample()

    def finish(self) -> None:
        while len(self.scaled) < MIN_IMPORTS:
            self.sample()


def describe(name: str, unit: str, values) -> str:
    """Median, quartiles and sample count of a metric's samples."""
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return f"{name}: {median:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def measure(workload, inputs: Path, seconds: float, trace: bool, deadline: float,
            host: ImportSampler | None):
    """Passes for ``seconds``: at least one, and another only while it is
    expected to end in time.  Traced passes alternate with untraced ones
    when ``trace`` is set; ``host`` samples between untraced commands."""
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(runner.run_pass(workload.commands, inputs, None, deadline,
                                     between=host))
        if trace:
            traced.append(runner.run_pass(workload.commands, inputs,
                                          layers.Tracer(), deadline))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(plain) > seconds:
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # The host's vCPUs run at speeds that change independently: on one CPU,
    # the probes around an import run at the speed the import ran at, and
    # no command moves between CPUs of different speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "qclifford" / "cli.py").is_file():
        print(f"error: no qclifford sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    host = None if args.trace else ImportSampler()
    time_import()          # writes the bytecode once; not a sample
    sys.path.insert(0, str(SRC))
    import qclifford.cli  # noqa: F401  (children fork from this interpreter)

    work_dir = ROOT / ".bench_build"
    work_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir, prefix="perfbench-") as tmp:
        workload.write_files(Path(tmp))
        plain, traced = measure(workload, Path(tmp), args.seconds,
                                bool(args.trace), deadline, host)

    passes = plain + traced
    attempted = sum(len(p.outcomes) for p in passes)
    failures = [f for p in passes for f in p.failures]
    digests = {p.report_digest() for p in passes}
    for label, reasons in failures:
        print(f"FAILED {label}: " + "; ".join(r.splitlines()[-1] if r else r
                                               for r in reasons))
    print(f"workload {workload.name} seed {workload.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced passes, {attempted} commands")
    print(f"failed_ratio: {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted})")
    print(f"report sha256: {plain[0].report_digest()}"
          + ("" if len(digests) == 1 else f" ({len(digests)} distinct over passes)"))

    wall = [p.wall_s for p in plain]
    if args.trace:
        per_pass = [layers.pass_metrics(p.outcomes) for p in traced]
        values = layers.median_metrics(per_pass)
        # each traced pass runs right after an untraced one: pairing them
        # cancels most of the host's slow speed drift
        values["trace.overhead"] = statistics.median(
            t.wall_s / p.wall_s for p, t in zip(plain, traced)) - 1
        missing = {m for p in traced for o in p.outcomes
                   for m in (o.layers or {}).get("missing", [])}
        if missing:
            print("not traced (absent from the program): " + ", ".join(sorted(missing)))
        print(describe("untraced wall_s", "s", wall))
        print(describe("traced wall_s", "s", [p.wall_s for p in traced]))
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        for name in units:
            print(f"{name}: {values[name]:.6g} {units[name]}")
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        rss = [p.peak_rss_mb for p in plain]
        host.finish()
        scaled = [sum(o.seconds * scale(o.probes) if o.probes else o.seconds
                      for o in p.outcomes) for p in plain]
        print(describe("probe", "s", [x for p in plain for o in p.outcomes for x in o.probes]))
        print(describe("unscaled wall_s", "s", wall))
        print(describe("unscaled setup_s", "s", host.unscaled))
        print(describe("wall_s", "s", scaled))
        print(describe("setup_s", "s", host.scaled))
        print(describe("peak_rss_mb", "MB", rss))
        metrics = {
            "wall_s": {"value": statistics.median(scaled), "unit": "s"},
            "setup_s": {"value": statistics.median(host.scaled), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
