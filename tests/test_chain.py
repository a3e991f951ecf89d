import sys

import pytest
from hypothesis import given, settings, strategies as st

from qclifford import chain, cli, deform, fock, linalg
from qclifford.chain import (VARIANTS, chain_residuals,
                             lexicographic_experiment, mixed_residuals,
                             scale_copies)
from qclifford.deform import (GeneratorSet, build_deforming_map,
                              relation_residuals, undeformed_set)
from qclifford.report import RelationReport
from qclifford.rmatrix import RMatrix, build_permutation, build_rhat_sl
from qclifford.scalar import ONE, Q, RationalFunction, parse_rational

from oracles import (all_pairs_chain_residuals, at_one, block,
                     classical_chain_check, copy_braid, relabel_copies)


class TestSpecValidation:
    """A chain is specified by its generators and braid matrices alone:
    N is rhat_n.n, M is the mode count over N, and the copy braid rhat_m
    selects the variant: q P_M for diagonal-mixed, the sl(M) braid matrix
    for RM-braided-mixed."""

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            lexicographic_experiment(2, 2, variants=("mixed",))
        with pytest.raises(ValueError, match="variant"):
            classical_chain_check(2, 2, "mixed")

    def test_missing_rhat_m(self):
        # the copy braid is required; q P_M gives the experiment's
        # diagonal-mixed reports, the sl(M) braid its RM-braided-mixed ones
        gens = build_deforming_map(4)
        rn = build_rhat_sl(2)
        with pytest.raises(TypeError, match="rhat_m"):
            mixed_residuals(gens, rn)
        diag = mixed_residuals(gens, rn, build_permutation(2).scale(Q))
        braided = mixed_residuals(gens, rn, build_rhat_sl(2))
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
            chain_residuals(undeformed_set(4), build_rhat_sl(3),
                            [build_rhat_sl(2)])
        with pytest.raises(ValueError, match="rhat_m block dimension 3 is "
                                             "not the copy count 2"):
            chain_residuals(undeformed_set(4), build_rhat_sl(2),
                            [build_rhat_sl(3)])

    def test_copy_major_flattening(self):
        # M = 2 copies of N = 3 modes: flat mode 4 is (copy 2, mode 1), so
        # zeroing its creator breaks exactly the diagonal mixed relation
        # (2, 2, 1, 1) among the (alpha, alpha, i, i) ones at q = 1
        plain = undeformed_set(6)
        creators = list(plain.creators)
        creators[3] = fock.zero(6)
        broken = GeneratorSet(creators, plain.annihilators)
        reports = mixed_residuals(broken, build_rhat_sl(3),
                                  build_permutation(2).scale(Q))
        assert len(reports) == 3 * 9
        diagonal = [(r.indices, res) for r, res in zip(reports, at_one(reports))
                    if r.indices[0] == r.indices[1]
                    and r.indices[2] == r.indices[3]]
        assert [indices for indices, res in diagonal if res.nnz() != 0] == [
            (2, 2, 1, 1)]


class TestDegenerations:
    def test_single_copy_agrees_tuple_for_tuple(self):
        gens = build_deforming_map(2)
        [chain_reports] = chain_residuals(gens, build_rhat_sl(2),
                                          [copy_braid(1, "diagonal-mixed")])
        single_reports = relation_residuals(gens, build_rhat_sl(2))
        assert len(chain_reports) == len(single_reports) == 12
        for chain_rep, single_rep in zip(chain_reports, single_reports):
            assert chain_rep.indices[:2] == (1, 1)
            assert chain_rep.indices[2:] == single_rep.indices
            assert chain_rep.exact_zero == single_rep.exact_zero
            assert chain_rep.residual == single_rep.residual  # both zero

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_classical_collapse_to_car(self, variant):
        residuals = classical_chain_check(2, 2, variant)
        assert len(residuals) == 3 * 3 * 4
        assert all(res.nnz() == 0 for res in residuals)

    def test_classical_collapse_m4_n1(self):
        assert all(res.nnz() == 0 for res in classical_chain_check(4, 1))

    def test_permutation_variant2_equals_variant1_at_q_one(self):
        # on a deliberately broken set the residuals at q = 1 are nonzero
        # but coincide between the variants: both copy braids become P
        broken = undeformed_set(4)
        broken = GeneratorSet(
            (fock.zero(4),) + broken.creators[1:], broken.annihilators)
        v1, v2 = chain_residuals(broken, build_rhat_sl(2),
                                 [copy_braid(2, v) for v in VARIANTS])
        assert [a.indices for a in v1] == [b.indices for b in v2]
        assert any(res.nnz() != 0 for res in at_one(v1))
        assert at_one(v1) == at_one(v2)

    def test_relabelling_preserves_verdicts_at_q_one(self):
        gens = undeformed_set(4)
        shifted = relabel_copies(gens, [2, 1])
        rhat_ms = [copy_braid(2, "diagonal-mixed")]
        [before], [after] = (chain_residuals(g, build_rhat_sl(2), rhat_ms)
                             for g in (gens, shifted))
        before, after = ([res.nnz() == 0 for res in at_one(reports)]
                         for reports in (before, after))
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
        [reports] = chain_residuals(gens, build_rhat_sl(2),
                                    [copy_braid(2, "diagonal-mixed")])
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
        # the bound is 10 modes, the poincare limit
        for m, n in ((11, 1), (4, 3)):
            with pytest.raises(ValueError, match="1..10 total modes"):
                lexicographic_experiment(m, n)


def _plant_entry(gens: GeneratorSet) -> GeneratorSet:
    """gens with the diagonal entry 2 added at (0, 0) of the first creator."""
    first = gens.creators[0]
    rows = [dict(row) for row in first.rows]
    rows[0][0] = ONE + ONE
    return GeneratorSet((linalg.SparseMatrix(first.dim, rows),)
                        + gens.creators[1:], gens.annihilators)


def _diagonal_mixed_reference(gens: GeneratorSet, rn, m: int) -> list:
    """((alpha, beta, i, j), residual) of the diagonal-mixed relations
    A[a,i] C[b,j] + q^-1 Rn[(ih),(jk)] C[b,h] A[a,k] = delta_ij delta_ab,
    each residual formed with plain matrix products and sums."""
    n = rn.n
    cre = {(a, i): gens.creators[(a - 1) * n + i - 1]
           for a in range(1, m + 1) for i in range(1, n + 1)}
    ann = {(a, i): gens.annihilators[(a - 1) * n + i - 1]
           for a in range(1, m + 1) for i in range(1, n + 1)}
    out = []
    for a in range(1, m + 1):
        for b in range(a, m + 1):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    res = ann[a, i] * cre[b, j]
                    for h in range(1, n + 1):
                        for k in range(1, n + 1):
                            coeff = Q ** -1 * block(rn, i, h, j, k)
                            res = res + (cre[b, h] * ann[a, k]).scale(coeff)
                    if i == j and a == b:
                        res = res - res.identity_like()
                    out.append(((a, b, i, j), res))
    return out


@pytest.mark.parametrize("planted", [False, True], ids=["map", "planted"])
@pytest.mark.parametrize("point", [None, 1], ids=["Q", "ONE"])
@pytest.mark.parametrize("m, n", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 1),
                                  (3, 2)])
def test_diagonal_mixed_is_the_braided_formula_over_q_permutation(
        m, n, point, planted):
    # (q P_M)^-1 = q^-1 P_M, so the braided copy term over the copy braid
    # q P_M is the diagonal-mixed term q^-1 Rn C[b,h] A[a,k], failing
    # reports included, over Q(q) and with q = 1 substituted
    scales = [parse_rational(text) for text in
              ("(q + 2)/(3*q + 1)", "2*q^2 + 1", "(q^2 + 3)/(q)")[:m]]
    gens = scale_copies(build_deforming_map(m * n), scales)
    if planted:
        gens = _plant_entry(gens)
    rn = build_rhat_sl(n)
    braided = mixed_residuals(gens, rn, build_permutation(m).scale(Q))
    reference = _diagonal_mixed_reference(gens, rn, m)
    assert len(braided) == len(reference) == m * (m + 1) // 2 * n * n
    for rep, (indices, res) in zip(braided, reference):
        assert rep.indices == indices
        if point is None:
            assert rep.exact_zero == (res.nnz() == 0)
            assert rep.residual == res
        else:
            assert rep.residual.subst(point) == res.subst(point)
    if planted:
        assert any(not rep.exact_zero for rep in braided)


SCALE_TEXTS = {"m2n3": "(q + 2)/(3*q + 1),(2*q^2 + 1)/(q + 3)",
               "m3n2": "(q^2 + 3)/(3*q + 1),(2*q^2 + q + 3)/(q + 2),q"}


@pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
@pytest.mark.parametrize("shape", ["m2n3", "m3n2"])
def test_no_product_has_a_zero_operand(q_products, capsys, shape, scaled):
    # the relation writers read q Rn and RM^-1 by their nonzero entries,
    # so no Q(q) product of the command has a zero operand
    argv = ["chain-experiment", "--m", shape[1], "--n", shape[3]]
    if scaled:
        argv += ["--scales", SCALE_TEXTS[shape]]
    code = cli.main(argv)
    capsys.readouterr()
    assert code == 0 and q_products
    assert not [pair for pair in q_products if not all(pair)]


SCALE_PALETTE = ["1", "-1", "2", "q", "q^-2", "-3*q^2", "q + 1", "1/(q - 2)",
                 "(q^2 + 3)/(3*q + 1)", "(2*q^2 + q + 3)/(q + 2)"]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(m, n) for m in range(1, 7) for n in range(1, 7)
                        if m * n <= 6]), st.data())
def test_nonzero_entry_writers_match_the_all_pairs_reference(shape, data):
    # every report of both copy braids, failing ones included, agrees with
    # the writers that look up every block, zero blocks included, over the
    # sl braid matrix and over a copy with one entry planted off the
    # diagonal, which is not symmetric, so that rows and columns differ
    m, n = shape
    scales = data.draw(st.lists(st.sampled_from(SCALE_PALETTE),
                                min_size=m, max_size=m))
    gens = scale_copies(build_deforming_map(m * n),
                        [parse_rational(text) for text in scales])
    rn = build_rhat_sl(n)
    rows = [dict(row) for row in rn.rows]
    if n > 1:
        r, c = data.draw(st.sampled_from(
            [(r, c) for r in range(n * n) for c in range(n * n) if r != c]))
        rows[r][c] = parse_rational(data.draw(st.sampled_from(
            SCALE_PALETTE[1:])))
        assert rows[r][c] != rows[c].get(r)
    braids = [copy_braid(m, variant) for variant in VARIANTS]

    def digest(reports):
        return [(rep.family, rep.indices, rep.exact_zero, rep.worst_entry())
                for rep in reports]

    for rhat_n in (rn, RMatrix(n, rows)):
        assert ([digest(reports) for reports
                 in chain_residuals(gens, rhat_n, braids)]
                == [digest(reports) for reports
                    in all_pairs_chain_residuals(gens, rhat_n, braids)])
