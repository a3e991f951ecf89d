"""Command-line driver for the verification suites.

Every command emits a report document (text by default, JSON with
``--output json``) that embeds the convention ledger, so independent
runs can be diffed bit-exactly.  Exit codes: 0 when every assertion-class
check is exactly zero, 1 on a verification failure, 2 on usage or input
errors, 3 on an internal error (a fault of the program, printed with its
traceback).  Experiment-class commands (chain-experiment and the sp
symmetrizer) always exit 0 with findings.

All checks are symbolic; ``--q-numeric`` adds an exact substitution at a
rational point (decimals like 1.3 are read exactly) on top.  Only the
commands that read it accept it: ``verify-map``, ``covariance``,
``invariants``, ``eval`` and ``rmatrix --algebra sl``.  ``verify-map``
substitutes the point into the generators first and recomputes every
relation from them, so a pole at the point exits 2; ``covariance`` and
``invariants`` substitute it into the generators too, so a pole of theirs
exits 2 as well.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import __version__, chain, deform, hopf
from .linalg import MAX_DIM, dim_guard_error
from .report import CONVENTIONS, RelationReport, summarize
from .rmatrix import (RMatrix, build_rhat_sl, check_braid, check_hecke,
                      projector_sp)
from .scalar import MAX_INT_DIGITS, PoleError, parse_rational


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


#: most digits a --q-numeric value may write plus the size of its decimal
#: exponent; this bounds the digits of its numerator and denominator, and
#: 1e400 still reads (and ends in a float-range error)
_MAX_POINT_DIGITS = 500

_POINT_EXPONENT = re.compile(r"[eE]\s*[-+]?([\d_]+)\s*\Z")


def _q_point(args) -> Fraction | None:
    """The --q-numeric value, bounded in size before it is built.

    A short text such as ``1e10000`` is refused (exit 2) before a huge
    integer exists.
    """
    text = args.q_numeric
    if text is None:
        return None
    exponent = _POINT_EXPONENT.search(text)
    mantissa = text if exponent is None else text[:exponent.start()]
    digits = sum(ch.isdecimal() for ch in mantissa)
    if exponent is not None:
        magnitude = exponent.group(1).replace("_", "").lstrip("0")
        digits += (int(magnitude or 0)
                   if len(magnitude) <= len(str(_MAX_POINT_DIGITS))
                   else _MAX_POINT_DIGITS + 1)
    if digits > _MAX_POINT_DIGITS:
        raise ValueError(f"--q-numeric value is too large: its digits plus its "
                         f"decimal exponent exceed {_MAX_POINT_DIGITS}")
    return Fraction(text)


def _spot_check(reports: list[RelationReport], gens: deform.GeneratorSet,
                point: Fraction | None) -> None:
    """Record each report's residual max |.| at the --q-numeric point.

    The point goes into the generators first, so that a pole of theirs
    raises :class:`PoleError` before any numeric value is reported.
    """
    if point is not None:
        gens.subst(point)
        for rep in reports:
            rep.numeric_max_abs = rep.residual.max_abs(point)


def _check_mode_count(args, command: str) -> None:
    """Refuse an --n below 1 before anything is built."""
    if args.n is not None and args.n < 1:
        raise ValueError(f"{command} needs --n of at least 1, not {args.n}")


def _load_json(path: str) -> dict:
    """The JSON document in ``path``, its integers bounded in digits."""
    def bounded_int(text: str) -> int:
        if (digits := len(text.lstrip("-"))) > MAX_INT_DIGITS:
            raise ValueError(f"{path}: a JSON integer of {digits} digits "
                             f"exceeds {MAX_INT_DIGITS}")
        return int(text)

    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, parse_int=bounded_int)
        except RecursionError:
            raise ValueError(f"{path}: the JSON document is nested too "
                             f"deeply to read") from None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_rmatrix(args) -> int:
    doc = _document(args, "rmatrix")
    point = _q_point(args)
    if args.algebra == "sl":
        if args.n is None:
            raise ValueError("--n is required for --algebra sl")
        if args.input is not None:
            raise ValueError("--input is read only by --algebra sp")
        if args.n < 2:
            raise ValueError(f"--algebra sl needs --n of at least 2, "
                             f"not {args.n}")
        if args.n ** 3 > MAX_DIM:   # check_braid builds the n^3 cube
            raise dim_guard_error(f"--algebra sl --n {args.n}: "
                                  f"n^3 = {args.n ** 3}")
        rhat = build_rhat_sl(args.n)
        reports = [check_hecke(rhat), check_braid(rhat)]
        matrix = rhat.subst(point) if point is not None else rhat
        doc["matrix"] = matrix.to_json("braid-sl")
        if point is not None:
            doc["matrix"]["q"] = str(point)
        return _finish(doc, args, reports)
    # sp: formula applied to a user-supplied braid matrix; findings only
    if point is not None:
        raise ValueError("--q-numeric is read only by --algebra sl")
    if args.input is None:
        raise ValueError("--algebra sp requires --input with a braid matrix")
    rhat = RMatrix.from_json(_load_json(args.input))
    if args.n is not None and args.n != rhat.n:
        raise ValueError(f"--n {args.n} does not match the n = {rhat.n} "
                         f"of {args.input}")
    projector, idempotency = projector_sp(rhat)
    doc["projector"] = projector.to_json("projector-sp")
    return _finish(doc, args, [idempotency], exit_code=0)


def cmd_verify_map(args) -> int:
    if args.input is None and args.n is None:
        args.n = 2
    _check_mode_count(args, "verify-map")
    doc = _document(args, "verify-map")
    point = _q_point(args)
    if args.input is not None:
        gens = deform.GeneratorSet.from_json(_load_json(args.input))
        if args.n is not None and args.n != gens.modes:
            raise ValueError(f"--n {args.n} does not match the {gens.modes} "
                             f"modes of {args.input}")
        reports = deform.relation_residuals(gens, build_rhat_sl(gens.modes))
    else:
        gens = deform.build_deforming_map(args.n)
        reports = deform.map_relations(gens)
    if point is not None:
        for rep, at_point in zip(reports, deform.relations_at(gens, point)):
            rep.numeric_max_abs = at_point.residual.max_abs(point)
    star = deform.star_compatibility(gens, q_point=point)
    reports.append(star)
    doc["star"] = star.to_json()
    return _finish(doc, args, reports)


def cmd_poincare(args) -> int:
    _check_mode_count(args, "poincare")
    deform.check_rank_modes(args.n)
    doc = _document(args, "poincare")
    deformed = deform.build_deforming_map(args.n)
    deform.map_relations(deformed)
    sets = {"undeformed": deform.undeformed_set(args.n), "deformed": deformed}
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
    point = _q_point(args)
    data = hopf.deformed_js()
    gens = deform.build_deforming_map(2)
    reports = hopf.check_covariance(gens, data)
    reports += hopf.check_module_algebra(data, gens)
    _spot_check(reports, gens, point)
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
    reports = [*hopf.invariance_check(i1, data),
               *hopf.invariance_check(i1q, data),
               hopf.verify_I1_identity(dressed)]
    _spot_check(reports, dressed, point)
    return _finish(doc, args, reports)


def cmd_chain_experiment(args) -> int:
    doc = _document(args, "chain-experiment")
    variants = chain.VARIANTS if args.variant == "both" else (args.variant,)
    scales = None
    if args.scales:
        scales = []
        for i, text in enumerate(args.scales.split(",")):
            try:
                scales.append(parse_rational(text))
            except (ValueError, ZeroDivisionError) as exc:
                raise type(exc)(f"--scales[{i}]: {exc}") from None
    doc["experiment"], relations = chain.lexicographic_experiment(
        args.m, args.n, scales=scales, variants=variants)
    return _finish(doc, args, relations, exit_code=0)  # findings, never a failure


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

_OUTPUT = ("--output",), {"choices": ("text", "json"), "default": "text"}

_Q_NUMERIC = ("--q-numeric",), {
    "dest": "q_numeric", "default": None,
    "help": "rational point for an exact numeric substitution "
            "(decimals allowed, e.g. 1.3)"}

#: each subcommand's help line, its function and its arguments, in order
#: as (flags, keyword options) of ``add_argument``
_COMMANDS = {
    "rmatrix": ("build/validate braid matrices", cmd_rmatrix, [
        (("--algebra",), {"choices": ("sl", "sp"), "default": "sl"}),
        (("--n",), {"type": int, "default": None}),
        (("--input",), {"default": None, "help": "JSON file with a "
                        "user-supplied braid matrix (sp)"}),
        _OUTPUT, _Q_NUMERIC]),
    "verify-map": ("check the deforming map relations", cmd_verify_map, [
        (("--n",), {"type": int, "default": None,
                    "help": "mode count of the built-in map (default 2); "
                            "with --input it must match the file's modes"}),
        (("--input",), {"default": None, "help": "JSON file with a "
                        "user-supplied generator set"}),
        _OUTPUT, _Q_NUMERIC]),
    "poincare": ("ordered-monomial rank check", cmd_poincare, [
        (("--n",), {"type": int, "default": 2}), _OUTPUT]),
    "covariance": ("quantum-group covariance checks", cmd_covariance, [
        (("--n",), {"type": int, "default": 2}), _OUTPUT, _Q_NUMERIC]),
    "invariants": ("invariant subalgebra checks", cmd_invariants, [
        (("--n",), {"type": int, "default": 2}), _OUTPUT, _Q_NUMERIC]),
    "chain-experiment": ("multi-copy relation findings (always exit 0)",
                         cmd_chain_experiment, [
        (("--m",), {"type": int, "default": 2}),
        (("--n",), {"type": int, "default": 2}),
        (("--variant",), {"choices": (*chain.VARIANTS, "both"),
                          "default": "both"}),
        (("--scales",), {"default": None, "help": "comma-separated per-copy "
                         "scale factors, e.g. '1,q'"}),
        _OUTPUT]),
    "eval": ("canonicalize/evaluate a scalar expression", cmd_eval, [
        (("expression",), {}), _OUTPUT, _Q_NUMERIC]),
}


def build_parser(commands=None) -> argparse.ArgumentParser:
    """The ``qclifford`` parser with every subcommand listed.

    Only the subcommands that ``commands`` names get their arguments, or
    all of them when it is None.  argparse hands a subcommand's arguments
    to its own parser, so a parser built with the arguments of every
    subcommand named in argv parses argv, and prints its help and its
    errors, exactly as the full parser does.
    """
    parser = argparse.ArgumentParser(
        prog="qclifford",
        description="exact verification of q-deformed Clifford algebra "
                    "constructions")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if commands is None or name in commands:
            for flags, options in arguments:
                p.add_argument(*flags, **options)
        p.set_defaults(func=func)
    return parser


def _join_q_numeric(argv: list[str]) -> list[str]:
    """``--q-numeric VALUE`` as the one token ``--q-numeric=VALUE``, so that
    a negative value such as ``-3/4`` is not read as an option."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] == "--q-numeric" and not arg.startswith("--"):
            joined[-1] = f"--q-numeric={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    argv = _join_q_numeric(sys.argv[1:] if argv is None else list(argv))
    parser = build_parser(set(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except PoleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # a value at --q-numeric too large for a float is bad input
        print(f"error: a numeric value is outside the float range ({exc})",
              file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # anything else is a fault of the program, not of its input; the
        # traceback module is imported only then, off every command's start
        import traceback
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
