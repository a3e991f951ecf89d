"""Deformed relation systems and the explicit deforming map.

The quadratic relation system checked here, for a braid matrix Rhat with
symmetrizer P+_q and P_q = q^-1 Rhat, is

    sum_hk P+_q[(hk), (ij)] Adag_h Adag_k = 0          (creators)
    sum_hk P+_q[(ij), (hk)] A^k A^h     = 0            (annihilators)
    A^i Adag_j + sum_hk P_q[(ih), (jk)] Adag_h A^k = delta_ij   (mixed)

At q = 1 with the permutation matrix these degenerate to the plain
anticommutation relations.  For two modes the mixed relation with i = j
= 1 expands to

    A^1 Adag_1 + Adag_1 A^1 = 1 + (q^-2 - 1) Adag_2 A^2,

with the exponent -2 coming out of the exact contraction of q^-1 Rhat;
the tests pin this coefficient and reject the q^-1 - 1 alternative.
Each relation, here and in the chain families, is one residual
start + sum coeff X Y over a table of (coeff, X, Y) terms, each a
coefficient times a word of two generators, with start the zero
operator or minus the identity.  :class:`report.RelationReport` hands
the table to :func:`linalg.product_sum_rows`, which forms no product
matrix and decides the rows in order: each matrix is read in its cleared
form, rows over Z[q] over one denominator, so every residual entry is a
polynomial sum over the relation's one common denominator, an entry
whose sum cancels is dropped, and each row is finished over every term
before the next is begun.  The relation holds iff no row survives.  A
failing relation stops at its first surviving row, and the report
reduces only what it prints, that row's first entry; the rest of the
canonical residual is computed only when it is read.  Canonical forms
in Q(q) are unique, so the residual, its exact-zero flag and its worst
entry are those the matrix products would give.

The deforming map dresses each undeformed generator with a diagonal
q-exponent over the later modes,

    Adag_i = q^(-sum_{j>i} n_j) adag_i,     A^i = a^i q^(-sum_{j>i} n_j),

and its builder checks nothing.  Each creator entry is written directly
as a signed power of q, with no diagonal matrix and no product, and each
annihilator is its creator's transpose.  A caller that needs the
relation system decided calls :func:`map_relations`, which fails loudly
on any convention drift, so each relation is decided once per run.  The
inverse map reconstructs the undeformed generators as polynomials in the
deformed ones, and the Poincare-series check computes the exact rank of
all 4^N ordered monomials over Q(q), up to 10 modes.  Each monomial is a
creator-subset product times an annihilator-subset product, every subset
product extending the product of its prefix by one generator.  Every
generator row of both built-in sets has at most one entry, each a
nonzero signed power of q, so a subset product is known by its support
alone, the column each Fock row goes to, composed as a list with no Q(q)
value formed, and each monomial's leading column is read off the
supports of its two factors.  The leads are marked in a bytearray of
4^N; when none repeats, each monomial goes to :func:`linalg.rank` as its
bare lead, a plain int, which the rank counts.  A set whose leads repeat,
or with a row of several entries, hands over each monomial's full row,
formed from subset products over Q(q), and the rank eliminates.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import product
from operator import mul

from . import fock
from .fock import build_generators, read_operator
from .linalg import (SparseMatrix, json_field, json_int, json_object,
                     rank as exact_rank, row_product)
from .report import RelationReport
from .rmatrix import RMatrix, build_rhat_sl, projector_sl
from .scalar import ONE, PoleError, Q


class GeneratorSet:
    """N creator/annihilator pairs acting on one Fock space; N is the
    length of either list."""

    def __init__(self, creators, annihilators):
        self.creators = tuple(creators)
        self.annihilators = tuple(annihilators)
        if not self.creators or len(self.creators) != len(self.annihilators):
            raise ValueError("generator lists must be nonempty and of equal length")
        dim = 1 << self.modes
        for op in (*self.creators, *self.annihilators):
            if op.dim != dim:
                raise ValueError("all generator matrices must share one "
                                 "dimension, 2^modes")

    @property
    def modes(self) -> int:
        return len(self.creators)

    def all_generators(self):
        return [*self.creators, *self.annihilators]

    def subst(self, point: Fraction) -> "GeneratorSet":
        return GeneratorSet([op.subst(point) for op in self.creators],
                            [op.subst(point) for op in self.annihilators])

    def to_json(self) -> dict:
        """The set as the document :meth:`from_json` reads."""
        doc: dict = {"modes": self.modes}
        for key, ops in (("creators", self.creators),
                         ("annihilators", self.annihilators)):
            doc[key] = [{"n_modes": self.modes, "dim": op.dim, "entries": [
                [r, c, str(v)] for r, c, v in op.iter_entries()]} for op in ops]
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "GeneratorSet":
        """Read a set, checking that both lists hold objects and comparing
        ``modes`` with their lengths before any matrix is read; any other
        key is ignored."""
        json_object(doc, "generator set")
        modes = json_int(doc, "modes", "generator set")
        creators = _operator_docs(doc, "creators")
        annihilators = _operator_docs(doc, "annihilators")
        if not (modes == len(creators) == len(annihilators)):
            raise ValueError(f"modes = {modes} does not match the "
                             f"{len(creators)} creators and "
                             f"{len(annihilators)} annihilators")
        return cls([read_operator(d, f"creators[{i}]")
                    for i, d in enumerate(creators)],
                   [read_operator(d, f"annihilators[{i}]")
                    for i, d in enumerate(annihilators)])


def _operator_docs(doc: dict, key: str) -> list:
    """The list ``doc[key]``, checked to hold only JSON objects."""
    docs = json_field(doc, key, "generator set")
    if not isinstance(docs, list):
        raise ValueError(f"{key} must be a list of operator objects")
    for i, op in enumerate(docs):
        json_object(op, f"{key}[{i}]")
    return docs


def undeformed_set(n_modes: int) -> GeneratorSet:
    pairs = build_generators(n_modes)
    return GeneratorSet([c for c, _ in pairs], [a for _, a in pairs])


class MapConstructionError(ValueError):
    """A candidate generator set failed its defining relation check."""


# ---------------------------------------------------------------------------
# relation residuals
# ---------------------------------------------------------------------------

def relation_residuals(
        gens: GeneratorSet, rhat: RMatrix, *,
        q_point: Fraction | None = None) -> list[RelationReport]:
    """One report per index pair for each of the three relation families.

    When ``q_point`` is given, each report's ``numeric_max_abs`` is read
    off the residual recomputed over Q after the substitution q := point:
    the point goes into the generators and into the same P+_q and P_q
    before any product is formed, so the residuals are an independent
    check of the exact ones.  A pole at the point, of a generator entry or
    of the relation coefficients (which carry q^-1), raises
    :class:`PoleError` naming the vanishing denominator.
    """
    if rhat.n != gens.modes:
        raise ValueError(f"block dimension {rhat.n} does not match "
                         f"{gens.modes} modes")
    pplus, pq = projector_sl(rhat), rhat.scale(Q ** -1)
    reports = _relation_reports(gens, pplus, pq)
    if q_point is not None:
        point = Fraction(q_point)
        sampled = gens.subst(point)
        if point == 0:
            raise PoleError(Q, point)
        for rep, at_point in zip(reports, _relation_reports(
                sampled, pplus.subst(point), pq.subst(point))):
            rep.numeric_max_abs = at_point.residual.max_abs(point)
    return reports


def _relation_reports(gens: GeneratorSet, pplus: RMatrix,
                      pq: RMatrix) -> list[RelationReport]:
    """The three relation families over P+_q and P_q = q^-1 Rhat."""
    n = gens.modes
    cre, ann = gens.creators, gens.annihilators
    zero, minus_one = fock.zero(n), -fock.identity(n)
    pairs = list(product(range(1, n + 1), repeat=2))
    # only nonzero blocks become terms: column (ij) of P+_q, row (ij) of
    # P+_q, and the entries of P_q rows (ih) in columns (jk); a flat index
    # hk is the pair (hk // n + 1, hk % n + 1)
    pplus_cols = pplus.transpose().rows
    reports = []
    for i, j in pairs:
        col = pplus_cols[(i - 1) * n + j - 1]
        reports.append(RelationReport(
            "creator-creator", (i, j),
            f"sum_hk P+_q[(hk),({i}{j})] Adag_h Adag_k = 0", zero,
            [(v, cre[hk // n], cre[hk % n]) for hk, v in sorted(col.items())]))
    for i, j in pairs:
        row = pplus.rows[(i - 1) * n + j - 1]
        reports.append(RelationReport(
            "annihilator-annihilator", (i, j),
            f"sum_hk P+_q[({i}{j}),(hk)] A^k A^h = 0", zero,
            [(v, ann[hk % n], ann[hk // n]) for hk, v in sorted(row.items())]))
    for i, j in pairs:
        first = (j - 1) * n
        reports.append(RelationReport(
            "mixed", (i, j),
            f"A^{i} Adag_{j} + sum_hk P_q[({i}h),({j}k)] Adag_h A^k "
            f"= delta_{i}{j}", minus_one if i == j else zero,
            [(ONE, ann[i - 1], cre[j - 1])]
            + [(v, cre[h], ann[jk - first]) for h in range(n)
               for jk, v in sorted(pq.rows[(i - 1) * n + h].items())
               if first <= jk < first + n]))
    return reports


# ---------------------------------------------------------------------------
# the deforming map and its inverse
# ---------------------------------------------------------------------------

def deformation_weights(n_modes: int, i: int) -> list[int]:
    """Dressing exponents for mode i: -1 on every mode after i."""
    return [-1 if j > i else 0 for j in range(1, n_modes + 1)]


def build_deforming_map(n_modes: int) -> GeneratorSet:
    """Realize the deformed generators inside the undeformed algebra.

    Creator i is dressed on the left, annihilator i on the right, by the
    diagonal q-exponent with the weights of :func:`deformation_weights`.
    Each creator entry is written directly: row s | bit(i), column s,
    value (-1)^(occupied modes before i) q^e with e = sum_j w_ij bit_j(s)
    (w_ii = 0, so the row's bits give the same e), one canonical value per
    distinct sign and exponent.  No diagonal matrix and no product is
    formed, and each annihilator is its creator's transpose.  The set is
    returned unchecked; :func:`map_relations` decides its relations.
    """
    if n_modes < 1:
        raise ValueError("build_deforming_map expects n_modes >= 1")
    pairs = build_generators(n_modes, [deformation_weights(n_modes, i)
                                       for i in range(1, n_modes + 1)])
    return GeneratorSet([c for c, _ in pairs], [a for _, a in pairs])


def map_relations(gens: GeneratorSet, *,
                  q_point: Fraction | None = None) -> list[RelationReport]:
    """The relation reports of a built deforming map, all exact zero, with
    the spot check at ``q_point`` of :func:`relation_residuals`.

    Raises :class:`MapConstructionError` naming the first nonzero report,
    so a caller that needs the reports anyway checks each relation once.
    """
    reports = relation_residuals(gens, build_rhat_sl(gens.modes),
                                 q_point=q_point)
    for rep in reports:
        if not rep.exact_zero:
            raise MapConstructionError(
                f"deforming map violates {rep.family} relation "
                f"{rep.indices}: worst entry {rep.worst_entry()}")
    return reports


def build_inverse_map(deformed: GeneratorSet) -> GeneratorSet:
    """Reconstruct the undeformed generators from the deformed ones.

    The occupation operators are rebuilt recursively from the deformed
    bilinears, starting at the last mode where Adag_N A^N is already the
    occupation, and each earlier one is corrected by the accumulated
    q^2-exponent of the later modes:

        n_N = Adag_N A^N,
        n_j = prod_{k>j} [1 + (q^2 - 1) n_k] Adag_j A^j.

    Undoing the dressing with weight +1 exponents then returns the
    original generators; the composition is checked to be the exact
    identity on all 2N of them.
    """
    n_modes = deformed.modes
    qq = Q * Q
    ident = fock.identity(n_modes)
    occupations: list[SparseMatrix | None] = [None] * (n_modes + 1)
    accumulated = ident  # q^(2 * sum of later occupations)
    for j in range(n_modes, 0, -1):
        occ = accumulated * (deformed.creators[j - 1] * deformed.annihilators[j - 1])
        occupations[j] = occ
        accumulated = accumulated * (ident + occ.scale(qq - ONE))
    creators = []
    annihilators = []
    for i in range(1, n_modes + 1):
        dress = ident
        for j in range(i + 1, n_modes + 1):
            dress = dress * (ident + occupations[j].scale(Q - ONE))
        creators.append(dress * deformed.creators[i - 1])
        annihilators.append(deformed.annihilators[i - 1] * dress)
    result = GeneratorSet(creators, annihilators)
    plain = undeformed_set(n_modes)
    for built, original in zip(result.all_generators(), plain.all_generators()):
        if built != original:
            raise MapConstructionError(
                "inverse map composed with the forward map is not the identity")
    return result


# ---------------------------------------------------------------------------
# Poincare series
# ---------------------------------------------------------------------------

_EXACT_MODE_LIMIT = 10


def _subset_products(generators, unit, times) -> list:
    """The product of the generators named by each subset, formed by
    ``times`` and indexed by the subset's mask, bit m - 1 for generator m.

    Each product is times(the product of its prefix, the subset without
    its highest member, whose mask is smaller, that generator); the empty
    subset maps to unit, the identity, which is never multiplied.
    """
    products = [unit]
    for mask in range(1, 1 << len(generators)):
        top = mask.bit_length() - 1
        prefix = mask ^ (1 << top)
        products.append(times(products[prefix], generators[top]) if prefix
                        else generators[top])
    return products


def _supports(ops) -> list | None:
    """Each operator as its support, the list row -> column of its one
    entry (-1 for an empty row), or None when some row has several."""
    if any(len(row) > 1 for op in ops for row in op.rows):
        return None
    return [[next(iter(row), -1) for row in op.rows] for op in ops]


def _compose(left: list, right: list) -> list:
    """The support of the product of two operators given by supports.

    Row r of the product holds left's entry in row r times right's entry
    in row left[r], at column right[left[r]]: both are nonzero field
    elements, so their product is nonzero and the support is exact with
    no value formed.
    """
    return [k if k < 0 else right[k] for k in left]


def _support_leads(supports: list, n: int) -> array | None:
    """The lead of each ordered monomial of a set given by the supports of
    its n creators and n annihilators, -1 for a zero monomial, or None
    when two monomials share a lead.

    The monomial (S, T) is left_S * right_T, its creator- and annihilator-
    subset products composed as supports; its lead is r * 2^N +
    right_T[left_S[r]] at the first row r where both are defined.  The
    leads are stored in a flat array, in the order of S's mask and then
    T's, and marked in a bytearray of 4^N.
    """
    dim = 1 << n
    unit = list(range(dim))
    rights = _subset_products(supports[n:], unit, _compose)
    leads, seen = array("q"), bytearray(dim * dim)
    for left in _subset_products(supports[:n], unit, _compose):
        defined = [(r * dim, k) for r, k in enumerate(left) if k >= 0]
        for right in rights:
            lead = -1
            for base, k in defined:
                if (c := right[k]) >= 0:
                    lead = base + c
                    if seen[lead]:
                        return None
                    seen[lead] = 1
                    break
            leads.append(lead)
    return leads


def _monomial_rows(gens: GeneratorSet):
    """Each ordered monomial of gens as a row of :func:`linalg.rank`, in
    the order of its creator subset's mask and then its annihilator
    subset's, over the columns r * 2^N + c for Fock row r and column c.

    When every generator row has at most one entry and no two monomials
    share a lead (:func:`_support_leads`), each monomial is its lead, a
    bare int, or {} when it is zero: no Q(q) value and no row object is
    formed.  Otherwise each monomial is its full dict row, formed from
    the creator- and annihilator-subset products over Q(q).
    """
    n = gens.modes
    dim = 1 << n
    supports = _supports(gens.all_generators())
    leads = None if supports is None else _support_leads(supports, n)
    if leads is not None:
        for lead in leads:
            yield lead if lead >= 0 else {}
        return
    unit = fock.identity(n)
    rights = _subset_products(gens.annihilators, unit, mul)
    for left in _subset_products(gens.creators, unit, mul):
        for right in rights:
            yield {r * dim + c: v for r, row in enumerate(left.rows) if row
                   for c, v in row_product(row, right.rows).items()}


def poincare_rank(gens: GeneratorSet) -> tuple[int, int]:
    """(rank of the 4^N ordered monomials, expected value 4^N).

    The rank is exact over Q(q) and allowed up to 10 modes.  It is one
    :func:`linalg.rank` over the 4^N rows of :func:`_monomial_rows`.
    Every generator row of both built-in sets has at most one entry, so
    each monomial's lead is read off the supports of its two factors,
    composed as lists with no Q(q) product formed.  The ordered monomials
    of a faithful set have pairwise distinct leading columns, so the
    echelon certificate decides full rank from the bare leads alone.  A
    set whose leads repeat, or with a row of several entries, hands over
    each monomial's full row, and the rank eliminates over Q(q).  The
    10-mode limit is measured on the bare leads only: the full rows are
    all formed and held, and their elimination has no budget.  Rank
    deficiency is a result, not an error.
    """
    check_rank_modes(gens.modes)
    return exact_rank(_monomial_rows(gens)), 4 ** gens.modes


def check_rank_modes(n: int) -> None:
    """Raise ``ValueError`` for a mode count the Poincare rank refuses,
    so a caller can refuse before it builds anything."""
    if n > _EXACT_MODE_LIMIT:
        raise ValueError(
            f"the Poincare rank supports at most {_EXACT_MODE_LIMIT} modes")


# ---------------------------------------------------------------------------
# star structure
# ---------------------------------------------------------------------------

def star_compatibility(gens: GeneratorSet, q_point=None) -> RelationReport:
    """Check star(A^i) = Adag_i for every mode.

    At real q star fixes the scalars: it is the plain transpose.  The one
    report covers the N per-mode residuals star(A^i) - Adag_i: its
    residual is the first nonzero one (or mode 1's), so it is exact zero
    iff every mode is, and its worst entry is that mode's.  Each
    annihilator is transposed once, and the reported mode is the first
    whose transpose differs from its creator (mode 1 if none does), a
    matrix comparison that is exact because canonical forms in Q(q) are
    unique and that forms no Q(q) value.  Only that mode's residual goes
    to the relation evaluator, as the start (A^i)^T and the one term
    (-1, Adag_i).  When ``q_point`` is given (a real q > 0),
    ``numeric_max_abs`` is the worst numeric deviation over all modes,
    not only the reported one, read off residuals recomputed from the
    generators after the substitution q := point, an independent check
    of the exact ones.
    """
    pairs = [(ann.transpose(), cre)
             for ann, cre in zip(gens.annihilators, gens.creators)]
    start, creator = next((pair for pair in pairs if pair[0] != pair[1]),
                          pairs[0])
    report = RelationReport(
        "star", tuple(range(1, gens.modes + 1)),
        "star(A^i) = Adag_i for all modes", start, [(-ONE, creator)])
    if q_point is not None:
        sampled = gens.subst(Fraction(q_point))
        report.numeric_max_abs = max(
            (ann.transpose() - cre).max_abs(q_point)
            for ann, cre in zip(sampled.annihilators, sampled.creators))
    return report
