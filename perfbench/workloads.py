"""Seeded inputs, command lists and known answers for the qclifford benchmark.

A workload is a fixed list of ``qclifford`` commands.  The seed picks only
the inputs the program reads (scale factors, numeric points, an expression,
generator and braid files); the verdict every command must reach is known
beforehand and does not depend on the seed.  The one seed-dependent answer,
the value an ``eval`` prints, is computed here with plain Fractions.

The input files are written by this module from the definitions in the
README of the package (Jordan-Wigner creators, the dressing
``q^(-sum of later occupations)``, the sl(N) braid matrix), never by calling
the program, so the program only ever sees generated inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

WORKLOADS = ("verify", "poincare", "chain", "symmetry")

_CHAIN_FINDINGS = Path(__file__).with_name("chain_findings.json")


@dataclass(frozen=True)
class Command:
    """One CLI call: its metric label, argv and the verdict it must reach.

    ``expect`` maps verdict keys (see :func:`verdict`) to their known
    values; only the keys present are compared.
    """

    label: str
    argv: tuple
    expect: dict


@dataclass
class Workload:
    name: str
    seed: int
    commands: list
    files: dict = field(default_factory=dict)   # file name -> text

    def write_files(self, directory: Path) -> None:
        for name, text in self.files.items():
            (directory / name).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# text of scalars in the program's grammar
# ---------------------------------------------------------------------------

def laurent_text(terms) -> str:
    """``[(coeff, exp), ...]`` (integer coeffs) as ``3*q^2 - q + 5*q^-1``."""
    parts = []
    for coeff, exp in sorted(terms, key=lambda t: -t[1]):
        mag = abs(coeff)
        if exp == 0:
            body = str(mag)
        else:
            body = ("q" if mag == 1 else f"{mag}*q") + ("" if exp == 1 else f"^{exp}")
        sign = "-" if coeff < 0 else "+"
        if parts:
            parts.append(f" {sign} {body}")
        else:
            parts.append(("-" if coeff < 0 else "") + body)
    return "".join(parts)


def monomial_text(coeff: Fraction, exp: int) -> str:
    """``coeff * q^exp`` for a rational coeff, e.g. ``-3*q^-2`` or ``q^2/5``."""
    num = laurent_text([(coeff.numerator, exp)])
    return num if coeff.denominator == 1 else f"{num}/{coeff.denominator}"


def laurent_value(terms, point: Fraction) -> Fraction:
    return sum((Fraction(c) * point ** e for c, e in terms), Fraction(0))


def _decimal(hundredths: int) -> str:
    return f"{hundredths // 100}.{hundredths % 100:02d}"


# ---------------------------------------------------------------------------
# generated input files
# ---------------------------------------------------------------------------

def generator_set_doc(n_modes: int, scales) -> dict:
    """The deforming map with mode i rescaled: Adag_i -> s_i Adag_i and
    A^i -> A^i / s_i, where ``scales[i-1] = (c, k)`` stands for c*q^k.

    Creator i sends basis state s (mode i empty) to s | bit(i) with sign
    (-1)^(occupied modes before i) and weight q^(-occupied modes after i);
    mode 1 is the most significant bit.  The annihilator is the transpose.
    """
    dim = 1 << n_modes
    creators, annihilators = [], []
    for i, (c, k) in enumerate(scales, start=1):
        mask = 1 << (n_modes - i)
        later = mask - 1
        cre, ann = [], []
        for state in range(dim):
            if state & mask:
                continue
            sign = -1 if bin(state >> (n_modes - i + 1)).count("1") & 1 else 1
            m = bin(state & later).count("1")
            cre.append([state | mask, state, monomial_text(sign * c, k - m)])
            ann.append([state, state | mask, monomial_text(sign / c, -k - m)])
        creators.append({"n_modes": n_modes, "dim": dim, "entries": sorted(cre)})
        annihilators.append({"n_modes": n_modes, "dim": dim, "entries": sorted(ann)})
    return {"modes": n_modes, "provenance": "benchmark: mode-rescaled deforming map",
            "creators": creators, "annihilators": annihilators}


def braid_sl_doc(n: int) -> dict:
    """The sl(N) braid matrix: q on (ii, ii), 1 on (ij, ji) for i != j and
    q - q^-1 on (ij, ij) for i < j; pair (i, j) flattens to (i-1)*N + j-1."""
    entries = []
    for i in range(n):
        for j in range(n):
            if i == j:
                entries.append([i * n + i, i * n + i, "q"])
                continue
            entries.append([i * n + j, j * n + i, "1"])
            if i < j:
                entries.append([i * n + j, i * n + j, "q - q^-1"])
    return {"n": n, "dim": n * n, "kind": "braid-sl", "entries": sorted(entries)}


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------

def _mode_scales(rng: random.Random, n_modes: int):
    """Laurent monomials c*q^k with s^2 != 1, so the star check must fail."""
    scales = []
    while len(scales) < n_modes:
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))
        k = rng.randint(-3, 3)
        if k != 0 or abs(c) != 1:
            scales.append((c, k))
    return scales


def _copy_scales(rng: random.Random, m: int) -> str:
    """``m`` generic copy scales (a2 q^2 + a1 q + a0)/(b1 q + b0), comma-joined.

    Numerators are primitive irreducible quadratics and denominators
    primitive linear polynomials, all distinct, so no factor cancels within
    or across copies and every seed costs the same amount of work.
    """
    nums, dens = set(), set()
    while len(nums) < m:
        a2, a1, a0 = (rng.randint(1, 9) for _ in range(3))
        disc = a1 * a1 - 4 * a2 * a0
        if gcd(gcd(a2, a1), a0) == 1 and (disc < 0 or isqrt(disc) ** 2 != disc):
            nums.add((a2, a1, a0))
    while len(dens) < m:
        b1, b0 = rng.randint(1, 9), rng.randint(1, 9)
        if gcd(b1, b0) == 1:
            dens.add((b1, b0))
    return ",".join(
        f"({laurent_text([(a2, 2), (a1, 1), (a0, 0)])})/({laurent_text([(b1, 1), (b0, 0)])})"
        for (a2, a1, a0), (b1, b0) in zip(sorted(nums), sorted(dens)))


def _expression(rng: random.Random):
    """Numerator and denominator Laurent terms; the denominator has positive
    coefficients, so it cannot vanish at a positive point."""
    num = [(rng.choice((-1, 1)) * rng.randint(1, 9), e)
           for e in rng.sample(range(-4, 7), 5)]
    den = [(rng.randint(1, 9), e) for e in rng.sample(range(-3, 5), 3)]
    return num, den


# ---------------------------------------------------------------------------
# known answers
# ---------------------------------------------------------------------------

def _relation_counts(n_modes: int, star: bool) -> dict:
    total = 3 * n_modes * n_modes + 1
    zero = total if star else total - 1
    square = [n_modes * n_modes] * 2
    return {
        "exit_code": 0 if star else 1,
        "summary": {"total": total, "exact_zero": zero, "failed": total - zero},
        "families": {"creator-creator": square, "annihilator-annihilator": square,
                     "mixed": square, "star": [1 if star else 0, 1]},
        "star": star,
    }


def _chain_expect(key: str) -> dict:
    variants = json.loads(_CHAIN_FINDINGS.read_text(encoding="utf-8"))[key]
    total = sum(f["total"] for v in variants.values() for f in v.values())
    zero = sum(f["exact_zero"] for v in variants.values() for f in v.values())
    return {"exit_code": 0, "experiment": variants,
            "summary": {"total": total, "exact_zero": zero, "failed": total - zero}}


def _summary(total: int, zero: int) -> dict:
    return {"total": total, "exact_zero": zero, "failed": total - zero}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _json_out(*argv) -> tuple:
    return (*argv, "--output", "json")


def _verify(rng: random.Random) -> tuple[list, dict]:
    files = {"gens-n5.json": json.dumps(generator_set_doc(5, _mode_scales(rng, 5)))}
    commands = [
        Command("verify-map.n6", _json_out("verify-map", "--n", "6"),
                _relation_counts(6, star=True)),
        Command("verify-map.n7", _json_out("verify-map", "--n", "7"),
                _relation_counts(7, star=True)),
        Command("verify-map.input-n5",
                _json_out("verify-map", "--input", "gens-n5.json"),
                _relation_counts(5, star=False)),
    ]
    return commands, files


def _poincare(rng: random.Random) -> tuple[list, dict]:
    commands = []
    for n in (3, 4):
        full = [4 ** n, 4 ** n]
        commands.append(Command(
            f"poincare.n{n}", _json_out("poincare", "--n", str(n)),
            {"exit_code": 0, "poincare": {"undeformed": full, "deformed": full}}))
    return commands, {}


def _chain(rng: random.Random) -> tuple[list, dict]:
    commands = []
    for m, n in ((2, 3), (3, 2)):
        scales = _copy_scales(rng, m)
        commands.append(Command(
            f"chain-experiment.m{m}n{n}",
            _json_out("chain-experiment", "--m", str(m), "--n", str(n),
                      "--scales", scales),
            _chain_expect(f"m{m}n{n}")))
    return commands, {}


def _symmetry(rng: random.Random) -> tuple[list, dict]:
    files = {"braid-sl-n3.json": json.dumps(braid_sl_doc(3))}
    num, den = _expression(rng)
    point = _decimal(rng.randint(55, 295))
    value = laurent_value(num, Fraction(point)) / laurent_value(den, Fraction(point))
    expression = f"({laurent_text(num)})/({laurent_text(den)})"
    commands = [
        Command("covariance.n2",
                _json_out("covariance", "--n", "2",
                          "--q-numeric", _decimal(rng.randint(105, 295))),
                {"exit_code": 0, "summary": _summary(96, 96),
                 "negative_control": {"undeformed_generators_fail_covariance": True}}),
        Command("invariants.n2",
                _json_out("invariants", "--n", "2",
                          "--q-numeric", _decimal(rng.randint(105, 295))),
                {"exit_code": 0, "summary": _summary(15, 15)}),
        Command("rmatrix.sl-n6", _json_out("rmatrix", "--algebra", "sl", "--n", "6"),
                {"exit_code": 0, "summary": _summary(2, 2),
                 "families": {"hecke": [1, 1], "braid": [1, 1]}}),
        Command("rmatrix.sp-n3",
                _json_out("rmatrix", "--algebra", "sp", "--input", "braid-sl-n3.json"),
                {"exit_code": 0, "summary": _summary(1, 0),
                 "families": {"sp-idempotency": [0, 1]}}),
        Command("eval.expr", _json_out("eval", expression, "--q-numeric", point),
                {"exit_code": 0, "value": {"at": Fraction(point), "exact": value}}),
    ]
    return commands, files


_BUILDERS = {"verify": _verify, "poincare": _poincare, "chain": _chain,
             "symmetry": _symmetry}


def build(name: str, seed: int) -> Workload:
    """The commands, input files and known answers of one workload."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    commands, files = _BUILDERS[name](random.Random(f"{name}/{seed}"))
    return Workload(name, seed, commands, files)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def verdict(exit_code: int, doc: dict) -> dict:
    """Everything a known answer may pin, read from one JSON report.

    ``worst_entry`` texts are deliberately left out: they describe a
    failure, and how they do so may change without changing a verdict.
    """
    out = {"exit_code": exit_code if exit_code == doc.get("exit_code") else
           ("mismatch", exit_code, doc.get("exit_code"))}
    if "summary" in doc:
        out["summary"] = {k: doc["summary"][k] for k in ("total", "exact_zero", "failed")}
    families: dict = {}
    for rel in doc.get("relations", []):
        count = families.setdefault(rel["family"], [0, 0])
        count[0] += bool(rel["exact_zero"])
        count[1] += 1
    out["families"] = families
    if "star" in doc:
        out["star"] = doc["star"]["exact_zero"]
    if "poincare" in doc:
        out["poincare"] = {k: [v["rank"], v["expected"]]
                           for k, v in doc["poincare"].items()}
    if "negative_control" in doc:
        out["negative_control"] = doc["negative_control"]
    if "experiment" in doc:
        out["experiment"] = {
            variant: {fam: {k: f[k] for k in ("holds", "exact_zero", "total", "failing")}
                      for fam, f in data["families"].items()}
            for variant, data in doc["experiment"]["variants"].items()}
    if "value" in doc and "exact" in doc["value"]:
        out["value"] = {"at": Fraction(doc["value"]["at"]),
                        "exact": Fraction(doc["value"]["exact"])}
    return out


def mismatches(command: Command, exit_code: int, report: str) -> list:
    """Keys on which the report's verdict differs from the known answer."""
    try:
        got = verdict(exit_code, json.loads(report))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    return [f"{key}: expected {want!r}, got {got.get(key)!r}"
            for key, want in command.expect.items() if got.get(key) != want]
