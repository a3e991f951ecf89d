"""Command-line driver for the verification suites.

Every command emits a report document (text by default, JSON with
``--output json``) that embeds the convention ledger, so independent
runs can be diffed bit-exactly.  Exit codes: 0 when every assertion-class
check is exactly zero, 1 on a verification failure, 2 on usage or input
errors.  Experiment-class commands (chain-experiment and the sp
symmetrizer) always exit 0 with findings.

All checks are symbolic; ``--q-numeric`` adds an exact substitution at a
rational point (decimals like 1.3 are read exactly) on top.  ``verify-map``
substitutes the point into the generators first and recomputes every
relation from them, so a pole at the point exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, chain, deform, hopf
from .report import CONVENTIONS, RelationReport, summarize
from .rmatrix import (RMatrix, _rhat_sl_any, build_rhat_sl, check_braid,
                      check_hecke, projector_sp)
from .scalar import PoleError, parse_rational


def _document(args, command: str) -> dict:
    return {
        "tool": {"name": "qclifford", "version": __version__},
        "command": [command] + [f"{k}={v}" for k, v in sorted(vars(args).items())
                                if k != "func" and v is not None],
        "convention": dict(CONVENTIONS),
    }


def _finish(doc: dict, args, reports: list[RelationReport] | None = None,
            exit_code: int | None = None) -> int:
    if reports is not None:
        doc["relations"] = [r.to_json() for r in reports]
        doc["summary"] = summarize(reports)
        if exit_code is None:
            exit_code = 0 if doc["summary"]["failed"] == 0 else 1
    if exit_code is None:
        exit_code = 0
    doc["exit_code"] = exit_code
    if args.output == "json":
        print(json.dumps(doc, indent=2))
    else:
        _print_text(doc)
    return exit_code


def _print_text(doc: dict) -> None:
    print(f"qclifford {doc['tool']['version']}: {' '.join(doc['command'])}")
    for rel in doc.get("relations", []):
        mark = "exact-zero" if rel["exact_zero"] else "NONZERO   "
        extra = ""
        if "numeric_max_abs" in rel:
            extra = f"  (numeric max |.| = {rel['numeric_max_abs']:.3e})"
        print(f"  [{mark}] {rel['family']} {tuple(rel['indices'])}: "
              f"{rel['relation']}{extra}")
        if not rel["exact_zero"]:
            print(f"              worst entry: {rel['worst_entry']}")
    for key in ("matrix", "projector", "poincare", "star", "value",
                "negative_control", "experiment"):
        if key in doc:
            print(f"  {key}: {json.dumps(doc[key])}")
    if "summary" in doc:
        s = doc["summary"]
        print(f"summary: {s['total']} checks, {s['exact_zero']} exact-zero, "
              f"{s['failed']} failed")
    print(f"exit: {doc['exit_code']}")


def _q_point(args) -> Fraction | None:
    if getattr(args, "q_numeric", None) is None:
        return None
    return Fraction(args.q_numeric)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_rmatrix(args) -> int:
    doc = _document(args, "rmatrix")
    point = _q_point(args)
    if args.algebra == "sl":
        if args.n is None:
            raise ValueError("--n is required for --algebra sl")
        rhat = build_rhat_sl(args.n)
        reports = [check_hecke(rhat), check_braid(rhat)]
        matrix = rhat.subst(point) if point is not None else rhat
        doc["matrix"] = matrix.to_json()
        if point is not None:
            doc["matrix"]["q"] = str(point)
        return _finish(doc, args, reports)
    # sp: formula applied to a user-supplied braid matrix; findings only
    if args.input is None:
        raise ValueError("--algebra sp requires --input with a braid matrix")
    rhat = RMatrix.from_json(_load_json(args.input))
    projector, idempotency = projector_sp(rhat)
    doc["projector"] = projector.to_json()
    doc["relations"] = [idempotency.to_json()]
    doc["summary"] = summarize([idempotency])
    return _finish(doc, args, exit_code=0)


def cmd_verify_map(args) -> int:
    doc = _document(args, "verify-map")
    point = _q_point(args)
    if args.input is not None:
        gens = deform.GeneratorSet.from_json(_load_json(args.input))
        reports = deform.relation_residuals(gens, _rhat_sl_any(gens.modes))
    else:
        gens = deform.build_deforming_map(args.n, check=False)
        reports = deform.map_relations(gens)
    if point is not None:
        for rep, at_point in zip(reports, deform.relations_at(gens, point)):
            rep.numeric_max_abs = at_point.residual.max_abs(point)
    star = deform.star_compatibility(gens, q_point=point)
    reports.append(star)
    doc["star"] = star.to_json()
    return _finish(doc, args, reports)


def cmd_poincare(args) -> int:
    doc = _document(args, "poincare")
    sets = {
        "undeformed": deform.undeformed_set(args.n),
        "deformed": deform.build_deforming_map(args.n),
    }
    doc["poincare"] = {}
    ok = True
    for name, gens in sets.items():
        rank, expected = deform.poincare_rank(gens)
        doc["poincare"][name] = {"rank": rank, "expected": expected}
        ok = ok and rank == expected
    return _finish(doc, args, exit_code=0 if ok else 1)


def cmd_covariance(args) -> int:
    if args.n != 2:
        raise ValueError("covariance checking is built for --n 2")
    doc = _document(args, "covariance")
    data = hopf.deformed_js()
    gens = deform.build_deforming_map(2)
    reports = hopf.check_covariance(gens, data)
    reports += hopf.check_module_algebra(data, gens)
    point = _q_point(args)
    if point is not None:
        for rep in reports:
            rep.numeric_max_abs = rep.residual.max_abs(point)
    control = hopf.check_covariance(deform.undeformed_set(2), data)
    control_nonzero = any(not r.exact_zero for r in control)
    doc["negative_control"] = {
        "undeformed_generators_fail_covariance": control_nonzero,
    }
    code = None if control_nonzero else 1
    return _finish(doc, args, reports, exit_code=code)


def cmd_invariants(args) -> int:
    if args.n != 2:
        raise ValueError("invariant checking is built for --n 2")
    doc = _document(args, "invariants")
    point = _q_point(args)
    data = hopf.deformed_js()
    plain = deform.undeformed_set(2)
    dressed = deform.build_deforming_map(2)
    i1 = hopf.invariant_number(plain, "I1")
    i1q = hopf.invariant_number(dressed, "I1_q")
    reports = []
    for element in (i1, i1q):
        reports += hopf.invariance_check(element, data, "deformed")
        reports += hopf.invariance_check(element, data, "classical")
    reports.append(hopf.verify_I1_identity(dressed, q_point=point))
    if point is not None:
        for rep in reports:
            rep.numeric_max_abs = rep.residual.max_abs(point)
    return _finish(doc, args, reports)


def cmd_chain_experiment(args) -> int:
    doc = _document(args, "chain-experiment")
    variants = chain.VARIANTS if args.variant == "both" else (args.variant,)
    scales = None
    if args.scales:
        scales = [parse_rational(s) for s in args.scales.split(",")]
    findings = chain.lexicographic_experiment(args.m, args.n, scales=scales,
                                              variants=variants)
    experiment: dict = {k: findings[k] for k in
                        ("m_copies", "n_modes", "scales", "realization")}
    experiment["variants"] = {}
    relations = []
    for variant, data in findings["variants"].items():
        experiment["variants"][variant] = {
            "families": data["families"],
            "summary": data["summary"],
        }
        relations += data["reports"]
    doc["experiment"] = experiment
    doc["relations"] = [r.to_json() for r in relations]
    doc["summary"] = summarize(relations)
    return _finish(doc, args, exit_code=0)  # findings, never a failure


def cmd_eval(args) -> int:
    doc = _document(args, "eval")
    value = parse_rational(args.expression)
    doc["value"] = {"canonical": str(value)}
    point = _q_point(args)
    if point is not None:
        exact = value.eval_at(point)
        doc["value"]["at"] = str(point)
        doc["value"]["exact"] = str(exact)
        doc["value"]["float"] = float(exact)
    return _finish(doc, args, exit_code=0)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclifford",
        description="exact verification of q-deformed Clifford algebra "
                    "constructions")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.add_argument("--q-numeric", dest="q_numeric", default=None,
                       help="rational point for an exact numeric substitution "
                            "(decimals allowed, e.g. 1.3)")

    p = sub.add_parser("rmatrix", help="build/validate braid matrices")
    p.add_argument("--algebra", choices=("sl", "sp"), default="sl")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--input", default=None,
                   help="JSON file with a user-supplied braid matrix (sp)")
    common(p)
    p.set_defaults(func=cmd_rmatrix)

    p = sub.add_parser("verify-map", help="check the deforming map relations")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--input", default=None,
                   help="JSON file with a user-supplied generator set")
    common(p)
    p.set_defaults(func=cmd_verify_map)

    p = sub.add_parser("poincare", help="ordered-monomial rank check")
    p.add_argument("--n", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("covariance", help="quantum-group covariance checks")
    p.add_argument("--n", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_covariance)

    p = sub.add_parser("invariants", help="invariant subalgebra checks")
    p.add_argument("--n", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("chain-experiment",
                       help="multi-copy relation findings (always exit 0)")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--variant", choices=(*chain.VARIANTS, "both"),
                   default="both")
    p.add_argument("--scales", default=None,
                   help="comma-separated per-copy scale factors, e.g. '1,q'")
    common(p)
    p.set_defaults(func=cmd_chain_experiment)

    p = sub.add_parser("eval", help="canonicalize/evaluate a scalar expression")
    p.add_argument("expression")
    common(p)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except PoleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OSError,
            KeyError, IndexError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
