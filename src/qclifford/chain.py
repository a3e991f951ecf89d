"""Multi-copy braided-chain relation checking.

M copies of an N-mode system live on the M*N-mode Fock space with the
copy-major flattening (alpha, i) -> (alpha - 1) * N + i.  The relation
families checked here, for copy indices alpha <= beta, are

    creators:      C[a,i] C[b,j] + q Rn[(hk),(ij)] C[b,h] C[a,k] = 0
    annihilators:  A[a,j] A[b,i] + q Rn[(ij),(hk)] A[b,k] A[a,h] = 0
    mixed:
        A[a,i] C[b,j] + RMinv[(ag),(bd)] Rn[(ih),(jk)] C[g,h] A[d,k]
            = delta_ij delta_ab

with summation over repeated lower-pair indices.  A mixed variant is its
copy braid RM: q P_M for diagonal-mixed, whose inverse q^-1 P_M leaves
the term q^-1 Rn[(ih),(jk)] C[b,h] A[a,k], and the sl(M) braid matrix
for RM-braided-mixed.  For M = 1 the three families have the same zero
set as the single-copy relation system.  Substituting q = 1 turns Rn and
both copy braids into permutations, and the residuals of the undeformed
generators then vanish: plain anticommutation relations on M*N modes.

No realization of the chain generators is asserted correct here: the
lexicographic experiment dresses the M*N modes as one big system and
reports, family by family, which relations that realization actually
satisfies at generic q.  Those verdicts are findings, not assertions.

A run decides each relation once.  The experiment builds the deforming
map without its own relation check (``verify-map`` and the golden
reports decide that system), and since the creator and annihilator
families read only Rn, :func:`chain_residuals` runs
:func:`ordering_residuals` once and pairs its reports with each copy
braid's :func:`mixed_residuals`.  Reports are read-only, so sharing them
leaves every report byte unchanged.
"""

from __future__ import annotations

from itertools import product

from . import fock
from .deform import GeneratorSet, build_deforming_map
from .linalg import invert_dense
from .report import RelationReport, summarize
from .rmatrix import RMatrix, build_permutation, build_rhat_sl
from .scalar import ONE, Q

VARIANTS = ("diagonal-mixed", "RM-braided-mixed")
MAX_EXPERIMENT_MODES = 10


def _copies(gens: GeneratorSet, n: int):
    """The copy count M = modes / N, the creators and annihilators keyed
    by (copy, mode) in copy-major order, and the (alpha, beta, i, j) with
    alpha <= beta in report order."""
    m, rest = divmod(gens.modes, n)
    if rest:
        raise ValueError(f"{gens.modes} modes do not split into copies "
                         f"of rhat_n's {n} modes")
    keys = list(product(range(1, m + 1), range(1, n + 1)))
    indices = [(a, b, i, j) for a in range(1, m + 1) for b in range(a, m + 1)
               for i, j in product(range(1, n + 1), repeat=2)]
    return (m, dict(zip(keys, gens.creators)),
            dict(zip(keys, gens.annihilators)), indices)


def ordering_residuals(gens: GeneratorSet,
                       rhat_n: RMatrix) -> list[RelationReport]:
    """The chain-creator and chain-annihilator reports.

    They read only ``rhat_n``, never the copy braid, so one evaluation
    serves every variant of a run.  Only nonzero entries become terms:
    the creator relation (alpha, beta, i, j) reads column (ij) of q Rn,
    the annihilator relation row (ij), each in ascending (h, k).
    """
    n = rhat_n.n
    _, cre, ann, indices = _copies(gens, n)
    q_rn = rhat_n.scale(Q)
    zero = fock.zero(gens.modes)
    # a flat index hk is the pair (hk // n + 1, hk % n + 1)
    columns = q_rn.transpose().rows
    reports = [RelationReport(
        "chain-creator", (alpha, beta, i, j),
        f"C[{alpha}{i}] C[{beta}{j}] "
        f"+ q Rn[(hk),({i}{j})] C[{beta}h] C[{alpha}k] = 0", zero,
        [(ONE, cre[alpha, i], cre[beta, j])]
        + [(v, cre[beta, hk // n + 1], cre[alpha, hk % n + 1])
           for hk, v in sorted(columns[(i - 1) * n + j - 1].items())])
        for alpha, beta, i, j in indices]
    reports += [RelationReport(
        "chain-annihilator", (alpha, beta, i, j),
        f"A[{alpha}{j}] A[{beta}{i}] "
        f"+ q Rn[({i}{j}),(hk)] A[{beta}k] A[{alpha}h] = 0", zero,
        [(ONE, ann[alpha, j], ann[beta, i])]
        + [(v, ann[beta, hk % n + 1], ann[alpha, hk // n + 1])
           for hk, v in sorted(q_rn.rows[(i - 1) * n + j - 1].items())])
        for alpha, beta, i, j in indices]
    return reports


def _block_terms(matrix: RMatrix) -> dict:
    """(a, b) -> [(h, k, value)] for every index pair of ``matrix``: its
    nonzero entries in rows (a h) and columns (b k), in ascending (h, k)."""
    n = matrix.n
    pairs = list(product(range(1, n + 1), repeat=2))
    return {(a, b): [(h, c % n + 1, v) for h in range(1, n + 1)
                     for c, v in sorted(matrix.rows[(a - 1) * n + h - 1].items())
                     if c // n + 1 == b]
            for a, b in pairs}


def mixed_residuals(gens: GeneratorSet, rhat_n: RMatrix,
                    rhat_m: RMatrix) -> list[RelationReport]:
    """The chain-mixed reports over the copy braid ``rhat_m``: the sl(M)
    braid matrix for RM-braided-mixed, q P_M for diagonal-mixed.

    Only nonzero entries become terms: the relation (alpha, beta, i, j)
    forms the coefficient u v once for each nonzero entry u of RM^-1 in
    rows (alpha gamma) and block column beta and each nonzero entry v of
    Rn in rows (i h) and block column j, in ascending (gamma, delta) and
    then (h, k).
    """
    m, cre, ann, indices = _copies(gens, rhat_n.n)
    if rhat_m.n != m:
        raise ValueError(f"rhat_m block dimension {rhat_m.n} is not "
                         f"the copy count {m}")
    rm_terms = _block_terms(invert_dense(rhat_m))
    rn_terms = _block_terms(rhat_n)
    zero, minus_one = fock.zero(gens.modes), -fock.identity(gens.modes)
    return [RelationReport(
        "chain-mixed", (alpha, beta, i, j),
        f"A[{alpha}{i}] C[{beta}{j}] + braided reorder "
        f"= delta_{i}{j} delta_{alpha}{beta}",
        minus_one if i == j and alpha == beta else zero,
        [(ONE, ann[alpha, i], cre[beta, j])]
        + [(u * v, cre[gamma, h], ann[delta, k])
           for gamma, delta, u in rm_terms[alpha, beta]
           for h, k, v in rn_terms[i, j]])
        for alpha, beta, i, j in indices]


def chain_residuals(gens: GeneratorSet, rhat_n: RMatrix,
                    rhat_ms) -> list[list[RelationReport]]:
    """One report list per copy braid of ``rhat_ms``: the ordering reports,
    evaluated once and shared, then that braid's mixed reports."""
    ordering = ordering_residuals(gens, rhat_n)
    return [ordering + mixed_residuals(gens, rhat_n, rhat_m)
            for rhat_m in rhat_ms]


# ---------------------------------------------------------------------------
# generator bookkeeping
# ---------------------------------------------------------------------------

def scale_copies(gens: GeneratorSet, scales) -> GeneratorSet:
    """Rescale copy alpha by s_alpha (creators) and 1/s_alpha (annihilators).

    M is the number of scale factors.  Probes the normalization freedom
    of the chain relations; the mixed delta term pins the annihilator
    scale to the inverse.
    """
    scales = list(scales)
    if any(s.is_zero for s in scales):
        raise ValueError("scale factors must be nonzero")
    m = len(scales)
    if m < 1 or gens.modes % m:
        raise ValueError(f"{gens.modes} modes do not split into {m} copies")
    _, cre, ann, _ = _copies(gens, gens.modes // m)
    inverses = [s ** -1 for s in scales]
    return GeneratorSet(
        [op.scale(scales[alpha - 1]) for (alpha, _), op in cre.items()],
        [op.scale(inverses[alpha - 1]) for (alpha, _), op in ann.items()])


# ---------------------------------------------------------------------------
# the experiment
# ---------------------------------------------------------------------------

def lexicographic_experiment(m: int, n: int, scales=None,
                             variants=VARIANTS) -> tuple[dict, list]:
    """Dress the M*N modes as one big system and test every chain family.

    The generators come from the single-system deforming map applied to
    M*N modes in copy-major lexicographic order.  Every relation family
    of every requested variant is evaluated and reported; which families
    hold is an empirical finding of this run, and the report states each
    verdict explicitly.  Each relation is evaluated once: the map is
    built unchecked, and the creator and annihilator reports, which do
    not depend on the variant, are shared by every variant.  Returns the
    experiment document and the reports of every variant, in order.
    """
    if m < 1:
        raise ValueError(f"the copy count m must be at least 1, not {m}")
    if n < 1:
        raise ValueError(f"the mode count n must be at least 1, not {n}")
    total = m * n
    if total > MAX_EXPERIMENT_MODES:
        raise ValueError(
            f"experiment supports 1..{MAX_EXPERIMENT_MODES} total modes")
    if scales is not None and len(scales) != m:
        raise ValueError(f"expected {m} scale factors")
    if not set(variants) <= set(VARIANTS):
        raise ValueError(f"variant must be one of {VARIANTS}")
    rhat_ms = {variant: build_rhat_sl(m) if variant == "RM-braided-mixed"
               else build_permutation(m).scale(Q) for variant in variants}
    gens = build_deforming_map(total)
    if scales is not None:
        gens = scale_copies(gens, scales)
    rhat_n = build_rhat_sl(n)
    experiment: dict = {
        "m_copies": m,
        "n_modes": n,
        "scales": [str(s) for s in scales] if scales is not None else None,
        "realization": "deforming map on M*N modes, copy-major order",
        "variants": {},
    }
    relations: list = []
    for variant, reports in zip(rhat_ms, chain_residuals(
            gens, rhat_n, rhat_ms.values())):
        families: dict = {}
        for family in dict.fromkeys(rep.family for rep in reports):
            group = [rep for rep in reports if rep.family == family]
            failing = [list(rep.indices) for rep in group if not rep.exact_zero]
            families[family] = {"total": len(group),
                                "exact_zero": len(group) - len(failing),
                                "failing": failing, "holds": not failing}
        experiment["variants"][variant] = {
            "families": families,
            "summary": summarize(reports),
        }
        relations += reports
    return experiment, relations
