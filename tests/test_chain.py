import sys

import pytest

from qclifford import chain, deform, fock, linalg
from qclifford.chain import (VARIANTS, chain_residuals,
                             lexicographic_experiment, mixed_residuals,
                             scale_copies)
from qclifford.deform import (GeneratorSet, build_deforming_map,
                              relation_residuals, undeformed_set)
from qclifford.report import RelationReport
from qclifford.rmatrix import build_permutation, build_rhat_sl
from qclifford.scalar import ONE, Q, RationalFunction, parse_rational

from oracles import classical_chain_check, relabel_copies


class TestSpecValidation:
    """A chain is specified by its generators and braid matrices alone:
    N is rhat_n.n, M is the mode count over N, and rhat_m selects the
    RM-braided-mixed variant."""

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            lexicographic_experiment(2, 2, variants=("mixed",))
        with pytest.raises(ValueError, match="variant"):
            classical_chain_check(2, 2, "mixed")

    def test_missing_rhat_m(self):
        # no rhat_m selects diagonal-mixed, a given one RM-braided-mixed
        gens = build_deforming_map(4)
        rn, rm = build_rhat_sl(2), build_rhat_sl(2)
        diag = mixed_residuals(gens, rn)
        braided = mixed_residuals(gens, rn, rm)
        assert [r.exact_zero for r in diag] != [r.exact_zero for r in braided]
        findings, _ = lexicographic_experiment(2, 2)
        for variant, reports in (("diagonal-mixed", diag),
                                 ("RM-braided-mixed", braided)):
            failing = findings["variants"][variant]["families"][
                "chain-mixed"]["failing"]
            assert failing == [list(r.indices) for r in reports
                               if not r.exact_zero]

    def test_block_dimension_checks(self):
        with pytest.raises(ValueError, match="copies of rhat_n's 3 modes"):
            chain_residuals(undeformed_set(4), build_rhat_sl(3))
        with pytest.raises(ValueError, match="rhat_m block dimension 3 is "
                                             "not the copy count 2"):
            chain_residuals(undeformed_set(4), build_rhat_sl(2),
                            build_rhat_sl(3))

    def test_copy_major_flattening(self):
        # M = 2 copies of N = 3 modes: flat mode 4 is (copy 2, mode 1), so
        # zeroing its creator breaks exactly the diagonal mixed relation
        # (2, 2, 1, 1) among the (alpha, alpha, i, i) ones at q = 1
        plain = undeformed_set(6)
        creators = list(plain.creators)
        creators[3] = fock.zero(6)
        broken = GeneratorSet(creators, plain.annihilators)
        reports = mixed_residuals(broken, build_permutation(3), q_scalar=ONE)
        assert len(reports) == 3 * 9
        diagonal = [r for r in reports
                    if r.indices[0] == r.indices[1]
                    and r.indices[2] == r.indices[3]]
        assert [r.indices for r in diagonal if not r.exact_zero] == [
            (2, 2, 1, 1)]


class TestDegenerations:
    def test_single_copy_agrees_tuple_for_tuple(self):
        gens = build_deforming_map(2)
        chain_reports = chain_residuals(gens, build_rhat_sl(2))
        single_reports = relation_residuals(gens, build_rhat_sl(2))
        assert len(chain_reports) == len(single_reports) == 12
        for chain_rep, single_rep in zip(chain_reports, single_reports):
            assert chain_rep.indices[:2] == (1, 1)
            assert chain_rep.indices[2:] == single_rep.indices
            assert chain_rep.exact_zero == single_rep.exact_zero
            assert chain_rep.residual == single_rep.residual  # both zero

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_classical_collapse_to_car(self, variant):
        reports = classical_chain_check(2, 2, variant)
        assert len(reports) == 3 * 3 * 4
        assert all(r.exact_zero for r in reports)

    def test_classical_collapse_m4_n1(self):
        assert all(r.exact_zero for r in classical_chain_check(4, 1))

    def test_permutation_variant2_equals_variant1_at_q_one(self):
        # on a deliberately broken set the residuals are nonzero but must
        # coincide between the two variants when rhat_m is the permutation
        broken = undeformed_set(4)
        broken = GeneratorSet(
            (fock.zero(4),) + broken.creators[1:], broken.annihilators)
        perm2, perm2n = build_permutation(2), build_permutation(2)
        v1 = chain_residuals(broken, perm2n, q_scalar=ONE)
        v2 = chain_residuals(broken, perm2n, perm2, q_scalar=ONE)
        assert any(not r.exact_zero for r in v1)
        for a, b in zip(v1, v2):
            assert a.indices == b.indices
            assert a.residual == b.residual

    def test_relabelling_preserves_verdicts_at_q_one(self):
        gens = undeformed_set(4)
        shifted = relabel_copies(gens, [2, 1])
        perm = build_permutation(2)
        before = [r.exact_zero
                  for r in chain_residuals(gens, perm, q_scalar=ONE)]
        after = [r.exact_zero
                 for r in chain_residuals(shifted, perm, q_scalar=ONE)]
        assert sorted(before) == sorted(after)
        assert all(after)


@pytest.fixture(scope="module")
def findings():
    return lexicographic_experiment(2, 2)[0]


class TestLexicographicExperiment:
    def test_single_copy_realization_holds(self):
        findings, _ = lexicographic_experiment(1, 2)
        for variant_data in findings["variants"].values():
            assert all(entry["holds"]
                       for entry in variant_data["families"].values())

    def test_report_is_complete(self, findings):
        assert set(findings["variants"]) == set(VARIANTS)
        for variant_data in findings["variants"].values():
            families = variant_data["families"]
            assert set(families) == {"chain-creator", "chain-annihilator",
                                     "chain-mixed"}
            for entry in families.values():
                assert entry["total"] == 3 * 4
                assert isinstance(entry["holds"], bool)
                assert entry["exact_zero"] + len(entry["failing"]) == entry["total"]

    def test_recorded_findings_for_two_by_two(self, findings):
        # observed verdicts of this realization at generic q: intra-copy
        # relation blocks mostly hold, the inter-copy ones do not
        diag = findings["variants"]["diagonal-mixed"]["families"]
        assert sorted(map(tuple, diag["chain-creator"]["failing"])) == [
            (1, 2, 1, 1), (1, 2, 1, 2), (1, 2, 2, 1), (1, 2, 2, 2)]
        assert sorted(map(tuple, diag["chain-annihilator"]["failing"])) == [
            (1, 2, 1, 1), (1, 2, 1, 2), (1, 2, 2, 2)]
        assert sorted(map(tuple, diag["chain-mixed"]["failing"])) == [
            (1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 1, 1), (1, 2, 2, 2)]
        braided = findings["variants"]["RM-braided-mixed"]["families"]
        assert braided["chain-creator"]["failing"] == diag["chain-creator"]["failing"]
        assert len(braided["chain-mixed"]["failing"]) == 10

    def test_misordered_assignment_fails(self):
        gens = relabel_copies(build_deforming_map(4), [2, 1])
        reports = chain_residuals(gens, build_rhat_sl(2))
        assert any(not r.exact_zero for r in reports)
        # the intra-copy blocks survive relabelling, the ordering-sensitive
        # inter-copy creator block changes its failure pattern
        intra = [r for r in reports if r.indices[0] == r.indices[1]
                 and r.family == "chain-creator"]
        assert all(r.exact_zero for r in intra)

    def test_scale_factors_leave_verdicts_unchanged(self, findings):
        scaled, _ = lexicographic_experiment(2, 2, scales=[ONE, Q])
        for variant in VARIANTS:
            for family, entry in findings["variants"][variant]["families"].items():
                scaled_entry = scaled["variants"][variant]["families"][family]
                assert scaled_entry["failing"] == entry["failing"]

    def test_scale_validation(self):
        with pytest.raises(ValueError, match="expected 2 scale factors"):
            lexicographic_experiment(2, 3, scales=[ONE, Q, Q * Q])
        with pytest.raises(ValueError, match="nonzero"):
            scale_copies(build_deforming_map(4), [Q, Q - Q])

    def test_relabel_validation(self):
        gens = build_deforming_map(4)
        with pytest.raises(ValueError, match="permutation"):
            relabel_copies(gens, [1, 1])

    @pytest.mark.parametrize("copies", [3, 5])
    def test_copy_count_must_divide_the_modes(self, copies):
        gens = build_deforming_map(4)
        with pytest.raises(ValueError, match=f"4 modes do not split into "
                                             f"{copies} copies"):
            scale_copies(gens, [Q] * copies)
        with pytest.raises(ValueError, match="do not split"):
            relabel_copies(gens, range(1, copies + 1))

    def test_one_scale_rescales_every_mode(self):
        gens = build_deforming_map(4)
        scaled = scale_copies(gens, [Q])
        assert scaled.creators == tuple(op.scale(Q) for op in gens.creators)
        assert scaled.annihilators == tuple(op.scale(Q ** -1)
                                            for op in gens.annihilators)

    def test_copies_are_cut_copy_major(self):
        # M = 3 copies of N = 2 modes: flat modes 3 and 4 are copy 2
        gens = build_deforming_map(6)
        scaled = scale_copies(gens, [ONE, Q, ONE])
        assert [a == b for a, b in zip(scaled.creators, gens.creators)] == [
            True, True, False, False, True, True]
        moved = relabel_copies(gens, [3, 1, 2])
        assert moved.creators == gens.creators[4:] + gens.creators[:4]
        assert moved.annihilators == (gens.annihilators[4:]
                                      + gens.annihilators[:4])

    @pytest.mark.parametrize("kwargs, expected", [
        ({}, 2 * 27 + 2 * 27),      # orderings once, mixed once per variant
        ({"variants": ("RM-braided-mixed",)}, 3 * 27),
    ])
    def test_each_relation_evaluated_once(self, monkeypatch, kwargs,
                                          expected):
        calls = []

        def counted(original):
            def wrapper(family, *rest):
                calls.append(family)
                return original(family, *rest)
            return wrapper

        # the map check would build its reports in deform
        for module in (chain, deform):
            monkeypatch.setattr(module, "RelationReport",
                                counted(module.RelationReport))
        lexicographic_experiment(2, 3, **kwargs)
        assert len(calls) == expected
        assert not any(family in {"creator-creator", "mixed"}
                       for family in calls)

    def test_kernel_reduces_one_entry_per_failing_report(self, monkeypatch):
        reductions = []
        init = RationalFunction.__init__

        def counted(self, *args):
            # the kernel reduces an entry by building it in linalg
            if sys._getframe(1).f_globals["__name__"] == linalg.__name__:
                reductions.append(args)
            init(self, *args)

        monkeypatch.setattr(RationalFunction, "__init__", counted)
        scales = [parse_rational("(2*q^2 + q + 3)/(q + 2)"),
                  parse_rational("(q^2 + 3)/(3*q + 1)")]
        _, relations = lexicographic_experiment(2, 2, scales=scales)
        reports = {id(rep): rep for rep in relations}.values()
        for rep in reports:
            rep.to_json()
        failing = [rep for rep in reports if not rep.exact_zero]
        assert failing
        assert len(reductions) == len(failing)
        for rep in failing:  # the reduced entry is the residual's first
            r, c, v = rep.residual.first_nonzero()
            assert rep.worst_entry() == f"{v} at ({r}, {c})"

    def test_failing_residual_is_finished_on_first_read(self, monkeypatch):
        tables = {}
        init = RelationReport.__init__

        def recorded(self, family, indices, relation, start, terms=()):
            tables[id(self)] = start, list(terms)
            init(self, family, indices, relation, start, terms)

        monkeypatch.setattr(RelationReport, "__init__", recorded)
        scales = [parse_rational("(q^2 + 3)/(3*q + 1)"),
                  parse_rational("(2*q^2 + q + 3)/(q + 2)")]
        _, relations = lexicographic_experiment(2, 3, scales=scales)
        reports = {id(rep): rep for rep in relations}.values()
        for rep in reports:
            rep.to_json()
        failing = [rep for rep in reports if not rep.exact_zero]
        assert failing
        for rep in failing:
            start, terms = tables[id(rep)]
            residual = rep.residual
            assert residual == linalg.product_sum(start, terms)
            assert type(residual) is type(start)
            assert rep.residual is residual

    def test_ordering_families_shared_by_both_variants(self, findings):
        diag, braided = (findings["variants"][v]["families"] for v in VARIANTS)
        for family in ("chain-creator", "chain-annihilator"):
            assert diag[family] == braided[family]
        assert diag["chain-mixed"] != braided["chain-mixed"]

    def test_experiment_guard(self):
        with pytest.raises(ValueError):
            lexicographic_experiment(4, 2)


def _plant_entry(gens: GeneratorSet) -> GeneratorSet:
    """gens with the diagonal entry 2 added at (0, 0) of the first creator."""
    first = gens.creators[0]
    rows = [dict(row) for row in first.rows]
    rows[0][0] = ONE + ONE
    return GeneratorSet((linalg.SparseMatrix(first.dim, rows),)
                        + gens.creators[1:], gens.annihilators)


@pytest.mark.parametrize("planted", [False, True], ids=["map", "planted"])
@pytest.mark.parametrize("q_scalar", [Q, ONE], ids=["Q", "ONE"])
@pytest.mark.parametrize("m, n", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 1),
                                  (3, 2)])
def test_diagonal_mixed_is_the_braided_formula_over_q_permutation(
        m, n, q_scalar, planted):
    # (q P_M)^-1 = q^-1 P_M, so the diagonal-mixed copy term is the
    # braided one over the copy braid q P_M, failing reports included
    scales = [parse_rational(text) for text in
              ("(q + 2)/(3*q + 1)", "2*q^2 + 1", "(q^2 + 3)/(q)")[:m]]
    gens = scale_copies(build_deforming_map(m * n), scales)
    if planted:
        gens = _plant_entry(gens)
    rn = build_rhat_sl(n)
    diagonal = mixed_residuals(gens, rn, q_scalar=q_scalar)
    braided = mixed_residuals(gens, rn, build_permutation(m).scale(q_scalar),
                              q_scalar=q_scalar)
    assert len(diagonal) == len(braided) == m * (m + 1) // 2 * n * n
    for a, b in zip(diagonal, braided):
        assert a.indices == b.indices
        assert a.exact_zero == b.exact_zero
        assert a.worst_entry() == b.worst_entry()
        assert a.residual == b.residual
    if planted:
        assert any(not rep.exact_zero for rep in diagonal)
