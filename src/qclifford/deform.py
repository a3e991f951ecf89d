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

and its builder checks nothing.  A caller that needs the relation system
decided calls :func:`map_relations`, which fails loudly on any convention
drift, so each relation is decided once per run.  The inverse map
reconstructs the undeformed generators as polynomials in the deformed
ones, and the Poincare-series check computes the exact rank of all 4^N
ordered monomials over Q(q).  Each monomial is a creator-subset product
times an annihilator-subset product, every subset product extending the
product of its prefix by one generator, and is handed to
:func:`linalg.rank` as a lazy row that can be read again: its Fock rows
are formed one at a time, on request.  The rank keeps a row whose
leading column is new after reading it up to its first nonzero Fock row,
with no arithmetic, as the small row object alone, and reads rows in
full and eliminates over Q(q) only when leading columns collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import fock
from .fock import build_generators, ordered_monomials, q_exponent, read_operator
from .linalg import (SparseMatrix, json_field, json_int, json_object,
                     rank as exact_rank, row_product)
from .report import RelationReport
from .rmatrix import RMatrix, build_rhat_sl, projector_sl
from .scalar import ONE, PoleError, Q


@dataclass
class GeneratorSet:
    """N creator/annihilator pairs acting on one Fock space; N is the
    length of either list."""

    creators: tuple
    annihilators: tuple

    def __post_init__(self):
        self.creators = tuple(self.creators)
        self.annihilators = tuple(self.annihilators)
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

def relation_residuals(gens: GeneratorSet,
                       rhat: RMatrix) -> list[RelationReport]:
    """One report per index pair for each of the three relation families."""
    if rhat.n != gens.modes:
        raise ValueError(f"block dimension {rhat.n} does not match "
                         f"{gens.modes} modes")
    return _relation_reports(gens, projector_sl(rhat), rhat.scale(Q ** -1))


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
    diagonal q-exponent D with weight -1 on every later mode.  D is
    diagonal, so D adag_i is adag_i with row r scaled by D[r, r], and
    a_i D = (D adag_i)^T is the creator's transpose: no matrix product is
    formed, and each annihilator shares its creator's entries.  The set is
    returned unchecked; :func:`map_relations` decides its relations.
    """
    if n_modes < 1:
        raise ValueError("build_deforming_map expects n_modes >= 1")
    creators = []
    for i, (adag, _) in enumerate(build_generators(n_modes), start=1):
        dress = q_exponent(deformation_weights(n_modes, i)).rows
        creators.append(SparseMatrix(adag.dim, [
            {c: v * dress[r][r] for c, v in row.items()}
            for r, row in enumerate(adag.rows)]))
    return GeneratorSet(creators, [op.transpose() for op in creators])


def map_relations(gens: GeneratorSet) -> list[RelationReport]:
    """The relation reports of a built deforming map, all exact zero.

    Raises :class:`MapConstructionError` naming the first nonzero report,
    so a caller that needs the reports anyway checks each relation once.
    """
    reports = relation_residuals(gens, build_rhat_sl(gens.modes))
    for rep in reports:
        if not rep.exact_zero:
            raise MapConstructionError(
                f"deforming map violates {rep.family} relation "
                f"{rep.indices}: worst entry {rep.worst_entry()}")
    return reports


def relations_at(gens: GeneratorSet, point: Fraction) -> list[RelationReport]:
    """The relation reports recomputed over Q after the substitution q := point.

    P+_q and P_q are built over Q(q), and the point goes into them and
    into the generators before any product is formed, so the residuals
    are an independent check of the exact ones.  A pole at the point, of
    a generator entry or of the relation coefficients (which carry q^-1),
    raises :class:`PoleError` naming the vanishing denominator.
    """
    point = Fraction(point)
    sampled = gens.subst(point)
    if point == 0:
        raise PoleError(Q, point)
    rhat = build_rhat_sl(gens.modes)
    return _relation_reports(sampled, projector_sl(rhat).subst(point),
                             rhat.scale(Q ** -1).subst(point))


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

_EXACT_MODE_LIMIT = 8


def _subset_products(generators, subsets, unit: SparseMatrix) -> dict:
    """Product of the generators named by each ascending subset.

    Subsets arrive with every prefix before its extensions, so each
    product is its prefix's product times one generator; the empty
    subset maps to unit, the identity, which is never multiplied.
    """
    products: dict = {(): unit}
    for subset in subsets:
        if subset:
            prefix, last = subset[:-1], generators[subset[-1] - 1]
            products[subset] = products[prefix] * last if prefix else last
    return products


def _monomial_rows(gens: GeneratorSet):
    """Each ordered monomial in the given generators as a re-iterable row
    of :func:`linalg.rank`: a :class:`_MonomialRow` whose pieces are the
    nonzero Fock rows r of left * right, each flattened to the columns
    r * 2^N + c.

    left is the monomial's creator-subset product and right its
    annihilator-subset product.  Only the nonzero rows of left are
    visited, and a Fock row is formed only when the rank asks for it, so
    on a faithful set, whose monomials the rank tells apart by their
    first nonzero Fock row, each monomial forms one row, and the rank
    keeps each monomial as its small row object, with no Fock row held.
    """
    n = gens.modes
    monomials = ordered_monomials(n)
    subsets = [ann for cre, ann in monomials if not cre]  # all, prefixes first
    unit = fock.identity(n)
    lefts = _subset_products(gens.creators, subsets, unit)
    rights = _subset_products(gens.annihilators, subsets, unit)
    nonzero = {cre: [(r, row) for r, row in enumerate(op.rows) if row]
               for cre, op in lefts.items()}
    for cre, ann in monomials:
        yield _MonomialRow(nonzero[cre], rights[ann].rows, unit.dim)


class _MonomialRow:
    """One ordered monomial left * right as a row of pieces that can be
    read any number of times: left is given as its nonzero rows (r, row),
    right as its rows, and dim is the Fock dimension."""

    __slots__ = ("left", "right", "dim")

    def __init__(self, left: list, right, dim: int):
        self.left, self.right, self.dim = left, right, dim

    def __iter__(self):
        """The nonzero rows of left * right in ascending order, each
        flattened to the columns r * dim + c, formed one per request."""
        right, dim = self.right, self.dim
        for r, lrow in self.left:
            row = row_product(lrow, right)
            if row:
                yield {r * dim + c: v for c, v in row.items()}


def poincare_rank(gens: GeneratorSet) -> tuple[int, int]:
    """(rank of the 4^N ordered monomials, expected value 4^N).

    The rank is exact over Q(q) and allowed up to 8 modes.  It is one
    :func:`linalg.rank` over the 4^N re-iterable rows of
    :func:`_monomial_rows`.  The ordered monomials of a faithful set have
    pairwise distinct leading columns, so the echelon certificate decides
    full rank from each monomial's first nonzero Fock row, with no
    elimination, and keeps each monomial as its row object, with no Fock
    row or suspended iterator held; on a degenerate set the colliding
    rows are read in full, a kept one anew from its start, and
    eliminated.  Rank deficiency is a result, not an error.
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
    iff every mode is, and its worst entry is that mode's.  When
    ``q_point`` is given (a real q > 0), ``numeric_max_abs`` is the worst
    numeric deviation over all modes, not only the reported one.
    """
    residuals = [gens.annihilators[i].transpose() - gens.creators[i]
                 for i in range(gens.modes)]
    report = RelationReport(
        "star", tuple(range(1, gens.modes + 1)),
        "star(A^i) = Adag_i for all modes",
        next((r for r in residuals if not r.is_zero), residuals[0]))
    if q_point is not None:
        report.numeric_max_abs = max(r.max_abs(q_point) for r in residuals)
    return report
