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

The deforming map dresses each undeformed generator with a diagonal
q-exponent over the later modes,

    Adag_i = q^(-sum_{j>i} n_j) adag_i,     A^i = a^i q^(-sum_{j>i} n_j),

which the constructor verifies against the full relation system before
returning (it fails loudly on any convention drift).  The inverse map
reconstructs the undeformed generators as polynomials in the deformed
ones, and the Poincare-series check computes the exact rank of all 4^N
ordered monomials over Q(q).  Each monomial is built as a creator-subset
product times an annihilator-subset product, every subset product
extending the product of its prefix by one generator, and the rank is
decided by the echelon certificate of :func:`linalg.rank` (distinct
leading columns), with Bareiss elimination when leading columns collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import fock
from .fock import FockOperator, build_generators, ordered_monomials, q_exponent
from .linalg import invert_sparse, rank as exact_rank
from .report import RelationReport
from .rmatrix import RMatrix, _rhat_sl_any, projector_sl
from .scalar import ONE, PoleError, Q, RationalFunction


@dataclass
class GeneratorSet:
    """N creator/annihilator pairs acting on one Fock space."""

    modes: int
    creators: tuple
    annihilators: tuple
    provenance: str = "user"

    def __post_init__(self):
        if len(self.creators) != self.modes or len(self.annihilators) != self.modes:
            raise ValueError("generator lists must have length == modes")
        dim = 1 << self.modes
        for op in (*self.creators, *self.annihilators):
            if op.dim != dim:
                raise ValueError("all generator matrices must share one dimension")
        self.creators = tuple(self.creators)
        self.annihilators = tuple(self.annihilators)

    def all_generators(self):
        return [*self.creators, *self.annihilators]

    def subst(self, point: Fraction) -> "GeneratorSet":
        return GeneratorSet(
            self.modes,
            tuple(op.subst(point) for op in self.creators),
            tuple(op.subst(point) for op in self.annihilators),
            provenance=f"{self.provenance}@q={point}",
        )

    def to_json(self) -> dict:
        return {
            "modes": self.modes,
            "provenance": self.provenance,
            "creators": [op.to_json() for op in self.creators],
            "annihilators": [op.to_json() for op in self.annihilators],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "GeneratorSet":
        return cls(
            int(doc["modes"]),
            tuple(FockOperator.from_json(d) for d in doc["creators"]),
            tuple(FockOperator.from_json(d) for d in doc["annihilators"]),
            provenance=str(doc.get("provenance", "user")),
        )


def undeformed_set(n_modes: int) -> GeneratorSet:
    pairs = build_generators(n_modes)
    return GeneratorSet(n_modes,
                        tuple(c for c, _ in pairs),
                        tuple(a for _, a in pairs),
                        provenance="undeformed")


class MapConstructionError(ValueError):
    """A candidate generator set failed its defining relation check."""

    def __init__(self, message, failing_report: RelationReport | None = None):
        super().__init__(message)
        self.failing_report = failing_report


# ---------------------------------------------------------------------------
# relation residuals
# ---------------------------------------------------------------------------

def relation_residuals(gens: GeneratorSet, rhat: RMatrix,
                       q_scalar: RationalFunction = Q) -> list[RelationReport]:
    """One report per index pair for each of the three relation families."""
    n = gens.modes
    if rhat.n != n:
        raise ValueError(f"block dimension {rhat.n} does not match {n} modes")
    pplus = projector_sl(rhat, q_scalar)
    pq = rhat.scale(q_scalar ** -1)
    cre, ann = gens.creators, gens.annihilators
    ident = fock.identity(n)
    reports = []
    for i, j in product(range(1, n + 1), repeat=2):
        res = fock.zero(n)
        for h, k in product(range(1, n + 1), repeat=2):
            coeff = pplus.block(h, k, i, j)
            if not coeff.is_zero:
                res = res + (cre[h - 1] * cre[k - 1]).scale(coeff)
        reports.append(RelationReport(
            family="creator-creator", indices=(i, j),
            relation=f"sum_hk P+_q[(hk),({i}{j})] Adag_h Adag_k = 0",
            residual=res, exact_zero=res.is_zero))
    for i, j in product(range(1, n + 1), repeat=2):
        res = fock.zero(n)
        for h, k in product(range(1, n + 1), repeat=2):
            coeff = pplus.block(i, j, h, k)
            if not coeff.is_zero:
                res = res + (ann[k - 1] * ann[h - 1]).scale(coeff)
        reports.append(RelationReport(
            family="annihilator-annihilator", indices=(i, j),
            relation=f"sum_hk P+_q[({i}{j}),(hk)] A^k A^h = 0",
            residual=res, exact_zero=res.is_zero))
    for i, j in product(range(1, n + 1), repeat=2):
        res = ann[i - 1] * cre[j - 1]
        for h, k in product(range(1, n + 1), repeat=2):
            coeff = pq.block(i, h, j, k)
            if not coeff.is_zero:
                res = res + (cre[h - 1] * ann[k - 1]).scale(coeff)
        if i == j:
            res = res - ident
        reports.append(RelationReport(
            family="mixed", indices=(i, j),
            relation=f"A^{i} Adag_{j} + sum_hk P_q[({i}h),({j}k)] Adag_h A^k "
                     f"= delta_{i}{j}",
            residual=res, exact_zero=res.is_zero))
    return reports


# ---------------------------------------------------------------------------
# the deforming map and its inverse
# ---------------------------------------------------------------------------

def deformation_weights(n_modes: int, i: int) -> list[int]:
    """Dressing exponents for mode i: -1 on every mode after i."""
    return [-1 if j > i else 0 for j in range(1, n_modes + 1)]


def build_deforming_map(n_modes: int, check: bool = True) -> GeneratorSet:
    """Realize the deformed generators inside the undeformed algebra.

    Creator i is dressed on the left, annihilator i on the right, by the
    diagonal q-exponent with weight -1 on every later mode.  The returned
    set is verified against the full relation system with the sl(N) braid
    matrix; construction fails loudly if any residual is nonzero.
    """
    if n_modes < 1:
        raise ValueError("build_deforming_map expects n_modes >= 1")
    pairs = build_generators(n_modes)
    creators = []
    annihilators = []
    for i in range(1, n_modes + 1):
        dress = q_exponent(deformation_weights(n_modes, i))
        creators.append(dress * pairs[i - 1][0])
        annihilators.append(pairs[i - 1][1] * dress)
    gens = GeneratorSet(n_modes, tuple(creators), tuple(annihilators),
                        provenance="deforming-map")
    if check:
        map_relations(gens)
    return gens


def map_relations(gens: GeneratorSet) -> list[RelationReport]:
    """The relation reports of a built deforming map, all exact zero.

    Raises :class:`MapConstructionError` naming the first nonzero report,
    so a caller that needs the reports anyway checks each relation once.
    """
    reports = relation_residuals(gens, _rhat_sl_any(gens.modes), Q)
    for rep in reports:
        if not rep.exact_zero:
            raise MapConstructionError(
                f"deforming map violates {rep.family} relation "
                f"{rep.indices}: worst entry {rep.worst_entry()}", rep)
    return reports


def relations_at(gens: GeneratorSet, point: Fraction) -> list[RelationReport]:
    """The relation reports recomputed over Q after the substitution q := point.

    The point goes into the generators and the braid matrix before any
    product is formed, so the residuals are an independent check of the
    exact ones.  A pole at the point, of a generator entry or of the
    relation coefficients (which carry q^-1), raises :class:`PoleError`
    naming the vanishing denominator.
    """
    point = Fraction(point)
    sampled = gens.subst(point)
    if point == 0:
        raise PoleError(Q, point)
    rhat = _rhat_sl_any(gens.modes).subst(point)
    return relation_residuals(sampled, rhat,
                              RationalFunction.from_fraction(point))


def build_inverse_map(n_modes: int, deformed: GeneratorSet) -> GeneratorSet:
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
    if deformed.modes != n_modes:
        raise ValueError("mode count mismatch")
    qq = Q * Q
    ident = fock.identity(n_modes)
    occupations: list[FockOperator | None] = [None] * (n_modes + 1)
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
    result = GeneratorSet(n_modes, tuple(creators), tuple(annihilators),
                          provenance="inverse-composition")
    plain = undeformed_set(n_modes)
    for built, original in zip(result.all_generators(), plain.all_generators()):
        if built != original:
            raise MapConstructionError(
                "inverse map composed with the forward map is not the identity")
    return result


def conjugate_realization(gens: GeneratorSet, alpha: FockOperator) -> GeneratorSet:
    """New realization alpha . X . alpha^-1 for an invertible alpha."""
    try:
        alpha_inv = invert_sparse(alpha)
    except ValueError:
        raise ValueError("alpha is singular (exact determinant zero)") from None
    return GeneratorSet(
        gens.modes,
        tuple(alpha * op * alpha_inv for op in gens.creators),
        tuple(alpha * op * alpha_inv for op in gens.annihilators),
        provenance="conjugated",
    )


# ---------------------------------------------------------------------------
# Poincare series
# ---------------------------------------------------------------------------

_EXACT_MODE_LIMIT = 6


def _subset_products(generators, subsets) -> dict:
    """Product of the generators named by each ascending subset.

    Subsets arrive with every prefix before its extensions, so each
    product is its prefix's product times one generator; the empty
    subset maps to None (the identity, never multiplied).
    """
    products: dict = {(): None}
    for subset in subsets:
        if subset:
            prefix = products[subset[:-1]]
            last = generators[subset[-1] - 1]
            products[subset] = last if prefix is None else prefix * last
    return products


def _monomial_rows(gens: GeneratorSet):
    """Each ordered monomial in the given generators, flattened to a row."""
    n = gens.modes
    dim = 1 << n
    monomials = ordered_monomials(n)
    subsets = [ann for cre, ann in monomials if not cre]  # all, prefixes first
    cre_products = _subset_products(gens.creators, subsets)
    ann_products = _subset_products(gens.annihilators, subsets)
    for cre, ann in monomials:
        left, right = cre_products[cre], ann_products[ann]
        if left is None:
            op = fock.identity(n) if right is None else right
        else:
            op = left if right is None else left * right
        yield {r * dim + c: v for r, row in enumerate(op.rows)
               for c, v in row.items()}


def poincare_rank(gens: GeneratorSet) -> tuple[int, int]:
    """(rank of the 4^N ordered monomials, expected value 4^N).

    The rank is exact over Q(q) and allowed up to 6 modes.  The ordered
    monomials of a faithful set have pairwise distinct leading columns,
    so the echelon certificate decides full rank without elimination; a
    degenerate set falls back to fraction-free elimination.  Rank
    deficiency is a result, not an error.
    """
    n = gens.modes
    if n > _EXACT_MODE_LIMIT:
        raise ValueError(
            f"the Poincare rank supports at most {_EXACT_MODE_LIMIT} modes")
    return exact_rank(_monomial_rows(gens)), 4 ** n


# ---------------------------------------------------------------------------
# star structure
# ---------------------------------------------------------------------------

def star_compatibility(gens: GeneratorSet, q_point=None) -> RelationReport:
    """Check star(A^i) = Adag_i for every mode.

    The exact flag is decided by the symbolic transpose; when ``q_point``
    is given (a real q > 0) the worst numeric deviation is recorded too.
    """
    residuals = [gens.annihilators[i].star() - gens.creators[i]
                 for i in range(gens.modes)]
    worst = next((r for r in residuals if not r.is_zero), residuals[0])
    numeric = None
    if q_point is not None:
        numeric = max(r.max_abs(q_point) for r in residuals)
    return RelationReport(
        family="star",
        indices=tuple(range(1, gens.modes + 1)),
        relation="star(A^i) = Adag_i for all modes",
        residual=worst,
        exact_zero=all(r.is_zero for r in residuals),
        numeric_max_abs=numeric,
    )
