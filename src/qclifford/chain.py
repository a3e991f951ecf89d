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
set as the single-copy relation system, and at q = 1 with permutation
matrices everything collapses to plain anticommutation relations on M*N
modes.

No realization of the chain generators is asserted correct here: the
lexicographic experiment dresses the M*N modes as one big system and
reports, family by family, which relations that realization actually
satisfies at generic q.  Those verdicts are findings, not assertions.

A run decides each relation once.  The experiment builds the deforming
map without its own relation check (``verify-map`` and the golden
reports decide that system), and since the creator and annihilator
families read only Rn and q, :func:`ordering_residuals` runs once per
run and its reports are paired with each variant's
:func:`mixed_residuals`.  Reports are read-only, so sharing them leaves
every report byte unchanged.
"""

from __future__ import annotations

from itertools import product

from . import fock
from .deform import GeneratorSet, build_deforming_map
from .linalg import invert_dense
from .report import RelationReport, summarize
from .rmatrix import RMatrix, build_permutation, build_rhat_sl
from .scalar import ONE, Q, RationalFunction

VARIANTS = ("diagonal-mixed", "RM-braided-mixed")
_MAX_EXPERIMENT_MODES = 6


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


def ordering_residuals(gens: GeneratorSet, rhat_n: RMatrix,
                       q_scalar: RationalFunction = Q) -> list[RelationReport]:
    """The chain-creator and chain-annihilator reports.

    They read only ``rhat_n`` and ``q_scalar``, never the mixed variant,
    so one evaluation serves every variant of a run.
    """
    _, cre, ann, indices = _copies(gens, rhat_n.n)
    q_rn = rhat_n.scale(q_scalar)
    zero = fock.zero(gens.modes)
    mode_pairs = list(product(range(1, rhat_n.n + 1), repeat=2))
    reports = [RelationReport(
        "chain-creator", (alpha, beta, i, j),
        f"C[{alpha}{i}] C[{beta}{j}] "
        f"+ q Rn[(hk),({i}{j})] C[{beta}h] C[{alpha}k] = 0", zero,
        [(ONE, cre[alpha, i], cre[beta, j])]
        + [(q_rn.block(h, k, i, j), cre[beta, h], cre[alpha, k])
           for h, k in mode_pairs])
        for alpha, beta, i, j in indices]
    reports += [RelationReport(
        "chain-annihilator", (alpha, beta, i, j),
        f"A[{alpha}{j}] A[{beta}{i}] "
        f"+ q Rn[({i}{j}),(hk)] A[{beta}k] A[{alpha}h] = 0", zero,
        [(ONE, ann[alpha, j], ann[beta, i])]
        + [(q_rn.block(i, j, h, k), ann[beta, k], ann[alpha, h])
           for h, k in mode_pairs])
        for alpha, beta, i, j in indices]
    return reports


def mixed_residuals(gens: GeneratorSet, rhat_n: RMatrix,
                    rhat_m: RMatrix | None = None,
                    q_scalar: RationalFunction = Q) -> list[RelationReport]:
    """The chain-mixed reports over the copy braid ``rhat_m``: the sl(M)
    braid matrix for RM-braided-mixed, q P_M (the default) for
    diagonal-mixed."""
    m, cre, ann, indices = _copies(gens, rhat_n.n)
    if rhat_m is None:
        rhat_m = build_permutation(m).scale(q_scalar)
    if rhat_m.n != m:
        raise ValueError(f"rhat_m block dimension {rhat_m.n} is not "
                         f"the copy count {m}")
    rm_inv = invert_dense(rhat_m)
    zero, minus_one = fock.zero(gens.modes), -fock.identity(gens.modes)
    mode_pairs = list(product(range(1, rhat_n.n + 1), repeat=2))
    return [RelationReport(
        "chain-mixed", (alpha, beta, i, j),
        f"A[{alpha}{i}] C[{beta}{j}] + braided reorder "
        f"= delta_{i}{j} delta_{alpha}{beta}",
        minus_one if i == j and alpha == beta else zero,
        [(ONE, ann[alpha, i], cre[beta, j])]
        + [(rm_inv.block(alpha, gamma, beta, delta)
            * rhat_n.block(i, h, j, k), cre[gamma, h], ann[delta, k])
           for gamma, delta in product(range(1, m + 1), repeat=2)
           for h, k in mode_pairs])
        for alpha, beta, i, j in indices]


def chain_residuals(gens: GeneratorSet, rhat_n: RMatrix,
                    rhat_m: RMatrix | None = None,
                    q_scalar: RationalFunction = Q) -> list[RelationReport]:
    """One report per (alpha, beta, i, j) with alpha <= beta per family.

    N is ``rhat_n.n`` and M is the mode count of ``gens`` over N.
    """
    return (ordering_residuals(gens, rhat_n, q_scalar)
            + mixed_residuals(gens, rhat_n, rhat_m, q_scalar))


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
    return GeneratorSet(
        [op.scale(scales[alpha - 1]) for (alpha, _), op in cre.items()],
        [op.scale(scales[alpha - 1] ** -1) for (alpha, _), op in ann.items()])


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
    if total > _MAX_EXPERIMENT_MODES:
        raise ValueError(
            f"experiment supports 1..{_MAX_EXPERIMENT_MODES} total modes")
    if scales is not None and len(scales) != m:
        raise ValueError(f"expected {m} scale factors")
    if not set(variants) <= set(VARIANTS):
        raise ValueError(f"variant must be one of {VARIANTS}")
    # each variant's copy braid; None is mixed_residuals' default, q P_M
    rhat_ms = {variant: build_rhat_sl(m) if variant == "RM-braided-mixed"
               else None for variant in variants}
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
    ordering = ordering_residuals(gens, rhat_n)
    for variant, rhat_m in rhat_ms.items():
        reports = ordering + mixed_residuals(gens, rhat_n, rhat_m)
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
