"""Per-layer spans and counters, recorded from outside the program.

A :class:`Tracer` replaces public functions of the ``qclifford`` modules
with timing wrappers at run time; no file of the program changes.  It is
installed in a forked child only, so untraced commands never see it.

Every wrapper records calls, inclusive time and self time (its span minus
the spans of the wrapped calls it made).  The program is single-threaded,
so no span ever waits on a queue and none is recorded.  Inclusive time of
a metric that nests inside itself is counted at the outermost call only.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

import workloads

#: (metric prefix, module, function or Class.method) - several functions
#: may share one prefix.  Missing attributes are skipped and listed, so
#: the benchmark keeps running when a later change removes one.
SPANS = (
    ("scalar.rf_new", "qclifford.scalar", "RationalFunction.__init__"),
    ("scalar.gcd", "qclifford.scalar", "Poly.gcd"),
    ("scalar.div_exact", "qclifford.scalar", "Poly.div_exact"),
    ("scalar.parse", "qclifford.scalar", "parse_rational"),
    ("linalg.matmul", "qclifford.linalg", "SparseMatrix.__mul__"),
    ("linalg.add", "qclifford.linalg", "SparseMatrix.__add__"),
    ("linalg.scale", "qclifford.linalg", "SparseMatrix.scale"),
    ("linalg.rank", "qclifford.linalg", "rank"),
    ("linalg.rank_numeric", "qclifford.linalg", "rank_numeric"),
    ("linalg.invert", "qclifford.linalg", "invert_dense"),
    ("fock.build", "qclifford.fock", "build_generators"),
    ("fock.build", "qclifford.fock", "q_exponent"),
    ("fock.build", "qclifford.fock", "identity"),
    ("rmatrix.hecke", "qclifford.rmatrix", "check_hecke"),
    ("rmatrix.braid", "qclifford.rmatrix", "check_braid"),
    ("rmatrix.projector", "qclifford.rmatrix", "projector_sl"),
    ("rmatrix.projector", "qclifford.rmatrix", "projector_sp"),
    ("rmatrix.dense_mul", "qclifford.rmatrix", "RMatrix.__mul__"),
    ("deform.build_map", "qclifford.deform", "build_deforming_map"),
    ("deform.relations", "qclifford.deform", "relation_residuals"),
    ("deform.poincare", "qclifford.deform", "poincare_rank"),
    ("deform.star", "qclifford.deform", "star_compatibility"),
    ("hopf.act", "qclifford.hopf", "act"),
    ("hopf.covariance", "qclifford.hopf", "check_covariance"),
    ("hopf.module_algebra", "qclifford.hopf", "check_module_algebra"),
    ("hopf.invariance", "qclifford.hopf", "invariance_check"),
    ("chain.residuals", "qclifford.chain", "chain_residuals"),
    ("chain.experiment", "qclifford.chain", "lexicographic_experiment"),
)

COUNTS = ("gcd.monomial", "gcd.trivial", "matmul.products", "matmul.nnz",
          "rank.rows")

_SPAN_METRICS = (
    # (metric, unit, better)
    ("scalar.rf_new.calls", "count", "lower"),
    ("scalar.rf_new.self_s", "s", "lower"),
    ("scalar.gcd.calls", "count", "lower"),
    ("scalar.gcd.s", "s", "lower"),
    ("scalar.gcd.monomial_share", "ratio", "higher"),
    ("scalar.gcd.trivial_share", "ratio", "higher"),
    ("scalar.div_exact.calls", "count", "lower"),
    ("scalar.div_exact.s", "s", "lower"),
    ("scalar.parse.calls", "count", "lower"),
    ("scalar.parse.s", "s", "lower"),
    ("linalg.matmul.calls", "count", "lower"),
    ("linalg.matmul.self_s", "s", "lower"),
    ("linalg.matmul.products", "count", "lower"),
    ("linalg.matmul.yield", "ratio", "higher"),
    ("linalg.add.calls", "count", "lower"),
    ("linalg.add.self_s", "s", "lower"),
    ("linalg.scale.calls", "count", "lower"),
    ("linalg.scale.self_s", "s", "lower"),
    ("linalg.rank.calls", "count", "lower"),
    ("linalg.rank.rows", "count", "lower"),
    ("linalg.rank.s", "s", "lower"),
    ("linalg.rank.self_s", "s", "lower"),
    ("linalg.rank_numeric.s", "s", "lower"),
    ("linalg.invert.s", "s", "lower"),
    ("fock.build.s", "s", "lower"),
    ("rmatrix.hecke.calls", "count", "lower"),
    ("rmatrix.hecke.s", "s", "lower"),
    ("rmatrix.braid.s", "s", "lower"),
    ("rmatrix.projector.calls", "count", "lower"),
    ("rmatrix.projector.s", "s", "lower"),
    ("rmatrix.dense_mul.calls", "count", "lower"),
    ("rmatrix.dense_mul.self_s", "s", "lower"),
    ("deform.build_map.calls", "count", "lower"),
    ("deform.build_map.s", "s", "lower"),
    ("deform.relations.calls", "count", "lower"),
    ("deform.relations.s", "s", "lower"),
    ("deform.relations.self_s", "s", "lower"),
    ("deform.poincare.s", "s", "lower"),
    ("deform.star.s", "s", "lower"),
    ("hopf.act.calls", "count", "lower"),
    ("hopf.act.s", "s", "lower"),
    ("hopf.covariance.s", "s", "lower"),
    ("hopf.module_algebra.s", "s", "lower"),
    ("hopf.invariance.s", "s", "lower"),
    ("chain.residuals.calls", "count", "lower"),
    ("chain.residuals.s", "s", "lower"),
    ("chain.residuals.self_s", "s", "lower"),
    ("chain.experiment.s", "s", "lower"),
)

#: one ``cli.<command>.<size>.s`` per command of every workload
COMMAND_LABELS = tuple(command.label for name in workloads.WORKLOADS
                       for command in workloads.build(name, 0).commands)

PER_LAYER = (_SPAN_METRICS
             + tuple((f"cli.{label}.s", "s", "lower") for label in COMMAND_LABELS)
             + (("cli.report_bytes", "bytes", "lower"),
                ("trace.overhead", "ratio", "lower")))


def _is_monomial(poly) -> bool:
    coeffs = poly.coeffs
    return len(coeffs) - coeffs.count(0) == 1


class Tracer:
    """Spans and counters for one command; :meth:`install` once per process."""

    def __init__(self):
        self.spans: dict = {}           # prefix -> [calls, total_s, self_s, depth]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.missing: list = []
        self._children = [0.0]          # child-span time of each open span
        self._installed = False

    # -- hooks: counting happens outside the timed span ------------------------
    def _after_gcd(self, args, result):
        a, b = args
        self.counts["gcd.monomial"] += _is_monomial(a) or _is_monomial(b)
        self.counts["gcd.trivial"] += result.coeffs == (1,)

    def _before_matmul(self, args):
        a, b = args
        if getattr(b, "rows", None) is not None and a.dim == b.dim:
            self.counts["matmul.products"] += sum(
                len(b.rows[k]) for row in a.rows for k in row)
        return args

    def _after_matmul(self, args, result):
        if result is not NotImplemented:
            self.counts["matmul.nnz"] += sum(len(row) for row in result.rows)

    def _count_rows(self, rows):
        for row in rows:
            self.counts["rank.rows"] += 1
            yield row

    def _before_rank(self, args):
        return (self._count_rows(args[0]), *args[1:])

    # -- wrapping ---------------------------------------------------------------
    def _wrap(self, prefix: str, fn):
        stat = self.spans.setdefault(prefix, [0, 0.0, 0.0, 0])
        children = self._children
        clock = time.perf_counter
        before = {"linalg.matmul": self._before_matmul,
                  "linalg.rank": self._before_rank}.get(prefix)
        after = {"scalar.gcd": self._after_gcd,
                 "linalg.matmul": self._after_matmul}.get(prefix)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                args = before(args)
            stat[3] += 1
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[3] -= 1
                stat[0] += 1
                stat[2] += elapsed - children.pop()
                if not stat[3]:
                    stat[1] += elapsed
                children[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return span

    def install(self) -> None:
        """Wrap every function in :data:`SPANS`, each binding exactly once.

        Module-level names bound to a wrapped function by ``from ... import``
        (``exact_rank`` in deform and rmatrix, ``build_deforming_map`` in
        chain and hopf, the names re-exported by the package and the CLI)
        are pointed at the same wrapper.
        """
        if self._installed:
            raise RuntimeError("tracer already installed in this process")
        self._installed = True
        wrapped = {}                     # id(original) -> (original, wrapper)
        for prefix, module_name, attr in SPANS:
            owner = importlib.import_module(module_name)
            name = attr
            if "." in attr:
                class_name, name = attr.split(".")
                owner = getattr(owner, class_name, None)
            raw = vars(owner).get(name) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapper = self._wrap(prefix, fn)
            setattr(owner, name, staticmethod(wrapper) if static else wrapper)
            wrapped[id(fn)] = (fn, wrapper)
        for module_name, module in list(sys.modules.items()):
            if module_name != "qclifford" and not module_name.startswith("qclifford."):
                continue
            for name, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])

    def snapshot(self) -> dict:
        return {"spans": {k: v[:3] for k, v in self.spans.items()},
                "counts": dict(self.counts), "missing": list(self.missing)}


def pass_metrics(outcomes) -> dict:
    """Per-layer values of one traced pass, summed over its commands."""
    spans: dict = {}
    counts = dict.fromkeys(COUNTS, 0)
    for outcome in outcomes:
        layers = outcome.layers or {"spans": {}, "counts": {}}
        for prefix, (calls, total, own) in layers["spans"].items():
            into = spans.setdefault(prefix, [0, 0.0, 0.0])
            into[0] += calls
            into[1] += total
            into[2] += own
        for key, value in layers["counts"].items():
            counts[key] += value

    def span(prefix, field):
        calls, total, own = spans.get(prefix, (0, 0.0, 0.0))
        return {"calls": calls, "s": total, "self_s": own}[field]

    def share(part, whole):
        return part / whole if whole else 0.0

    values = {}
    for metric, _, _ in _SPAN_METRICS:
        prefix, field = metric.rsplit(".", 1)
        if field in ("calls", "s", "self_s"):
            values[metric] = span(prefix, field)
    gcd_calls = span("scalar.gcd", "calls")
    values["scalar.gcd.monomial_share"] = share(counts["gcd.monomial"], gcd_calls)
    values["scalar.gcd.trivial_share"] = share(counts["gcd.trivial"], gcd_calls)
    values["linalg.matmul.products"] = counts["matmul.products"]
    values["linalg.matmul.yield"] = share(counts["matmul.nnz"], counts["matmul.products"])
    values["linalg.rank.rows"] = counts["rank.rows"]
    for label in COMMAND_LABELS:
        values[f"cli.{label}.s"] = 0.0
    for outcome in outcomes:
        values[f"cli.{outcome.label}.s"] = outcome.seconds
    values["cli.report_bytes"] = sum(len(o.report.encode("utf-8")) for o in outcomes)
    return values


def median_metrics(per_pass: list) -> dict:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
