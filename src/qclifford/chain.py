"""Multi-copy braided-chain relation checking.

M copies of an N-mode system live on the M*N-mode Fock space with the
copy-major flattening (alpha, i) -> (alpha - 1) * N + i.  The relation
families checked here, for copy indices alpha <= beta, are

    creators:      C[a,i] C[b,j] + q Rn[(hk),(ij)] C[b,h] C[a,k] = 0
    annihilators:  A[a,j] A[b,i] + q Rn[(ij),(hk)] A[b,k] A[a,h] = 0
    mixed (diagonal-mixed variant):
        A[a,i] C[b,j] + q^-1 Rn[(ih),(jk)] C[b,h] A[a,k]
            = delta_ij delta_ab
    mixed (RM-braided-mixed variant):
        A[a,i] C[b,j] + RMinv[(ag),(bd)] Rn[(ih),(jk)] C[g,h] A[d,k]
            = delta_ij delta_ab

with summation over repeated lower-pair indices.  For M = 1 the three
families have the same zero set as the single-copy relation system, and
at q = 1 with permutation matrices everything collapses to plain
anticommutation relations on M*N modes.

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

from dataclasses import dataclass
from itertools import product

from . import fock
from .deform import GeneratorSet, build_deforming_map, undeformed_set
from .linalg import invert_dense
from .report import RelationReport, summarize
from .rmatrix import RMatrix, _rhat_sl_any, build_permutation
from .scalar import ONE, Q, RationalFunction

VARIANTS = ("diagonal-mixed", "RM-braided-mixed")
_MAX_TOTAL_MODES = 8
_MAX_EXPERIMENT_MODES = 6


@dataclass
class ChainSpec:
    """Copy count, per-copy mode count, mixed-relation variant, braid data."""

    m_copies: int
    n_modes: int
    variant: str
    rhat_n: RMatrix
    rhat_m: RMatrix | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        total = self.m_copies * self.n_modes
        if total < 1 or total > _MAX_TOTAL_MODES:
            raise ValueError(
                f"total mode count {total} outside 1..{_MAX_TOTAL_MODES}")
        if self.rhat_n.n != self.n_modes:
            raise ValueError("rhat_n block dimension must equal n_modes")
        if self.variant == "RM-braided-mixed":
            if self.rhat_m is None:
                raise ValueError("RM-braided-mixed requires rhat_m")
            if self.rhat_m.n != self.m_copies:
                raise ValueError("rhat_m block dimension must equal m_copies")

    def flat(self, alpha: int, i: int) -> int:
        """Copy-major 1-based mode index of (alpha, i)."""
        return (alpha - 1) * self.n_modes + i


def _copy_generators(spec: ChainSpec, gens: GeneratorSet):
    """Creators and annihilators keyed by (copy, mode)."""
    m, n = spec.m_copies, spec.n_modes
    if gens.modes != m * n:
        raise ValueError(f"generator set must carry {m * n} modes")
    keys = [(a, i) for a in range(1, m + 1) for i in range(1, n + 1)]
    return ({key: gens.creators[spec.flat(*key) - 1] for key in keys},
            {key: gens.annihilators[spec.flat(*key) - 1] for key in keys})


def _index_tuples(spec: ChainSpec):
    """(alpha, beta, i, j) with alpha <= beta, in report order."""
    m, n = spec.m_copies, spec.n_modes
    return [(a, b, i, j) for a in range(1, m + 1) for b in range(a, m + 1)
            for i, j in product(range(1, n + 1), repeat=2)]


def ordering_residuals(spec: ChainSpec, gens: GeneratorSet,
                       q_scalar: RationalFunction = Q) -> list[RelationReport]:
    """The chain-creator and chain-annihilator reports.

    They read only ``rhat_n`` and ``q_scalar``, never the mixed variant,
    so one evaluation serves every variant of a run.
    """
    cre, ann = _copy_generators(spec, gens)
    q_rn = spec.rhat_n.scale(q_scalar)
    zero = fock.zero(gens.modes)
    mode_pairs = list(product(range(1, spec.n_modes + 1), repeat=2))
    indices = _index_tuples(spec)
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


def mixed_residuals(spec: ChainSpec, gens: GeneratorSet,
                    q_scalar: RationalFunction = Q) -> list[RelationReport]:
    """The chain-mixed reports of ``spec.variant``."""
    m = spec.m_copies
    cre, ann = _copy_generators(spec, gens)
    rn = spec.rhat_n
    zero, minus_one = fock.zero(gens.modes), -fock.identity(gens.modes)
    mode_pairs = list(product(range(1, spec.n_modes + 1), repeat=2))
    if spec.variant == "diagonal-mixed":
        qinv_rn = rn.scale(q_scalar ** -1)

        def mixed_terms(alpha, beta, i, j):
            return [(qinv_rn.block(i, h, j, k), cre[beta, h], ann[alpha, k])
                    for h, k in mode_pairs]
    else:
        rm_inv = invert_dense(spec.rhat_m)

        def mixed_terms(alpha, beta, i, j):
            return [(rm_inv.block(alpha, gamma, beta, delta)
                     * rn.block(i, h, j, k), cre[gamma, h], ann[delta, k])
                    for gamma, delta in product(range(1, m + 1), repeat=2)
                    for h, k in mode_pairs]
    return [RelationReport(
        "chain-mixed", (alpha, beta, i, j),
        f"A[{alpha}{i}] C[{beta}{j}] + braided reorder "
        f"= delta_{i}{j} delta_{alpha}{beta}",
        minus_one if i == j and alpha == beta else zero,
        [(ONE, ann[alpha, i], cre[beta, j])] + mixed_terms(alpha, beta, i, j))
        for alpha, beta, i, j in _index_tuples(spec)]


def chain_residuals(spec: ChainSpec, gens: GeneratorSet,
                    q_scalar: RationalFunction = Q) -> list[RelationReport]:
    """One report per (alpha, beta, i, j) with alpha <= beta per family."""
    return (ordering_residuals(spec, gens, q_scalar)
            + mixed_residuals(spec, gens, q_scalar))


# ---------------------------------------------------------------------------
# generator bookkeeping
# ---------------------------------------------------------------------------

def scale_copies(gens: GeneratorSet, m: int, n: int, scales) -> GeneratorSet:
    """Rescale copy alpha by s_alpha (creators) and 1/s_alpha (annihilators).

    Probes the normalization freedom of the chain relations; the mixed
    delta term pins the annihilator scale to the inverse.
    """
    scales = list(scales)
    if len(scales) != m:
        raise ValueError(f"expected {m} scale factors")
    creators = list(gens.creators)
    annihilators = list(gens.annihilators)
    for alpha, s in enumerate(scales, start=1):
        if s.is_zero:
            raise ValueError("scale factors must be nonzero")
        for i in range(1, n + 1):
            flat = (alpha - 1) * n + i - 1
            creators[flat] = creators[flat].scale(s)
            annihilators[flat] = annihilators[flat].scale(s ** -1)
    return GeneratorSet(gens.modes, tuple(creators), tuple(annihilators),
                        provenance=f"{gens.provenance}-scaled")


def relabel_copies(gens: GeneratorSet, m: int, n: int,
                   permutation) -> GeneratorSet:
    """Reassign copy labels: new copy alpha takes permutation[alpha-1]'s
    generators.  Used as the misordering negative control."""
    perm = list(permutation)
    if sorted(perm) != list(range(1, m + 1)):
        raise ValueError("permutation must reorder 1..M")
    creators = []
    annihilators = []
    for alpha in range(1, m + 1):
        src = perm[alpha - 1]
        for i in range(1, n + 1):
            flat = (src - 1) * n + i - 1
            creators.append(gens.creators[flat])
            annihilators.append(gens.annihilators[flat])
    return GeneratorSet(gens.modes, tuple(creators), tuple(annihilators),
                        provenance=f"{gens.provenance}-relabelled")


# ---------------------------------------------------------------------------
# experiments and degenerations
# ---------------------------------------------------------------------------

def lexicographic_experiment(m: int, n: int, scales=None,
                             variants=VARIANTS) -> dict:
    """Dress the M*N modes as one big system and test every chain family.

    The generators come from the single-system deforming map applied to
    M*N modes in copy-major lexicographic order.  Every relation family
    of every requested variant is evaluated and reported; which families
    hold is an empirical finding of this run, and the report states each
    verdict explicitly.  Each relation is evaluated once: the map is
    built unchecked, and the creator and annihilator reports, which do
    not depend on the variant, are shared by every variant.
    """
    total = m * n
    if total < 1 or total > _MAX_EXPERIMENT_MODES:
        raise ValueError(
            f"experiment supports 1..{_MAX_EXPERIMENT_MODES} total modes")
    gens = build_deforming_map(total, check=False)
    if scales is not None:
        gens = scale_copies(gens, m, n, scales)
    rhat_n = _rhat_sl_any(n)
    rhat_m = _rhat_sl_any(m)
    findings: dict = {
        "m_copies": m,
        "n_modes": n,
        "scales": [str(s) for s in scales] if scales is not None else None,
        "realization": "deforming map on M*N modes, copy-major order",
        "variants": {},
    }
    ordering = None
    for variant in variants:
        spec = ChainSpec(m, n, variant, rhat_n,
                         rhat_m if variant == "RM-braided-mixed" else None)
        if ordering is None:
            ordering = ordering_residuals(spec, gens)
        reports = ordering + mixed_residuals(spec, gens)
        families: dict = {}
        for rep in reports:
            entry = families.setdefault(
                rep.family, {"total": 0, "exact_zero": 0, "failing": []})
            entry["total"] += 1
            if rep.exact_zero:
                entry["exact_zero"] += 1
            else:
                entry["failing"].append(list(rep.indices))
        for entry in families.values():
            entry["holds"] = entry["exact_zero"] == entry["total"]
        findings["variants"][variant] = {
            "families": families,
            "summary": summarize(reports),
            "reports": reports,
        }
    return findings


def classical_chain_check(m: int, n: int,
                          variant: str = "diagonal-mixed") -> list[RelationReport]:
    """Chain relations at q = 1 on undeformed M*N-mode generators.

    With permutation matrices in place of the braid data all families
    collapse to plain anticommutation relations and must hold exactly.
    """
    gens = undeformed_set(m * n)
    rhat_m = build_permutation(m) if variant == "RM-braided-mixed" else None
    spec = ChainSpec(m, n, variant, build_permutation(n), rhat_m)
    return chain_residuals(spec, gens, q_scalar=ONE)
