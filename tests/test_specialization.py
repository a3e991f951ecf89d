"""Each q = 1 degeneration, stated by substituting q = 1 into the symbolic
results of the same checkers that the commands run over Q(q).

No checker takes a point: the relations, the chain families, the
symmetrizer and the adjoint action are computed over Q(q) once, and the
classical statement is read off after the substitution.
"""

import pytest

from qclifford.chain import VARIANTS, chain_residuals
from qclifford.deform import (build_deforming_map, relation_residuals,
                              undeformed_set)
from qclifford.hopf import act, classical_js, deformed_js
from qclifford.linalg import SparseMatrix
from qclifford.rmatrix import build_permutation, build_rhat_sl, projector_sl
from qclifford.scalar import parse_rational

from oracles import at_one, classical_act, copy_braid


def relations(n):
    """The undeformed set fails the deformed relations over Q(q) for
    n >= 2, and every residual vanishes at q = 1."""
    reports = relation_residuals(undeformed_set(n), build_rhat_sl(n))
    assert len(reports) == 3 * n * n
    if n > 1:
        assert any(not rep.exact_zero for rep in reports)
    return [(res, SparseMatrix(res.dim)) for res in at_one(reports)]


def chain(m, n):
    """The ordering and mixed reports of the undeformed set with both copy
    braids, q P_M and the sl(M) braid matrix, vanish at q = 1."""
    per_braid = chain_residuals(undeformed_set(m * n), build_rhat_sl(n),
                                [copy_braid(m, v) for v in VARIANTS])
    families = {rep.family for reports in per_braid for rep in reports}
    assert families == {"chain-creator", "chain-annihilator", "chain-mixed"}
    return [(res, SparseMatrix(res.dim))
            for reports in per_braid for res in at_one(reports)]


def projector(n):
    """P+_q at q = 1 is the symmetric projector (1 + P)/2."""
    perm = build_permutation(n)
    half = parse_rational("1/2")
    return [(projector_sl(build_rhat_sl(n)).subst(1),
             (perm + perm.identity_like()).scale(half))]


def action(name, classical):
    """x |> a at q = 1 is the commutator with the classical bilinear, on
    the bare and on the dressed generators."""
    data, js = deformed_js(), classical_js()
    ops = [*undeformed_set(2).all_generators(),
           *build_deforming_map(2).all_generators()]
    return [(act(name, op, data).subst(1),
             classical_act(classical, op.subst(1), js)) for op in ops]


CASES = {
    **{f"relations-n{n}": (relations, (n,)) for n in (1, 2, 3)},
    **{f"chain-m{m}n{n}": (chain, (m, n)) for m, n in ((1, 2), (2, 1),
                                                       (2, 2))},
    **{f"projector-n{n}": (projector, (n,)) for n in (1, 2, 3)},
    "act-E": (action, ("E", "j+")),
    "act-F": (action, ("F", "j-")),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_q_one_substitution(case):
    build, args = CASES[case]
    pairs = build(*args)
    assert pairs
    for got, expected in pairs:
        assert got == expected
