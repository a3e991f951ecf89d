import gc
import inspect
from fractions import Fraction

import pytest

from qclifford import deform, fock, linalg
from qclifford.deform import (GeneratorSet, MapConstructionError,
                              build_deforming_map, build_inverse_map,
                              poincare_rank, relation_residuals,
                              star_compatibility, undeformed_set)
from qclifford.fock import build_generators, identity, q_exponent
from qclifford.hopf import check_covariance, deformed_js
from qclifford.linalg import SparseMatrix, rank_numeric, row_product
from qclifford.rmatrix import build_rhat_sl, check_braid, check_hecke
from qclifford.report import RelationReport
from qclifford.scalar import ONE, Poly, Q, RationalFunction, ZERO, q_power

from oracles import (conjugate_realization, modular_rank,
                     ordered_monomials, plain_rows, star_by_subtraction,
                     word_to_operator)


@pytest.fixture(scope="module")
def lastf2():
    return build_deforming_map(2)


@pytest.fixture(scope="module")
def plain2():
    return undeformed_set(2)


class TestDeformingMap:
    def test_two_mode_closed_form(self, lastf2):
        gens = build_generators(2)
        dress = q_exponent((0, -1))  # q^(-n_2)
        assert lastf2.creators[0] == dress * gens[0][0]
        assert lastf2.creators[1] == gens[1][0]
        assert lastf2.annihilators[0] == gens[0][1] * dress
        assert lastf2.annihilators[1] == gens[1][1]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_the_dressing_products(self, n):
        # oracle: the dressing applied by sparse matrix products
        built = build_deforming_map(n)
        for i, (adag, a) in enumerate(build_generators(n), start=1):
            dress = q_exponent(deform.deformation_weights(n, i))
            assert built.creators[i - 1] == dress * adag
            assert built.annihilators[i - 1] == a * dress
            assert type(built.annihilators[i - 1]) is SparseMatrix

    def test_single_mode_is_undeformed(self):
        assert build_deforming_map(1).creators[0] == build_generators(1)[0][0]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_relations_exactly_zero(self, n):
        gens = build_deforming_map(n)
        reports = relation_residuals(gens, build_rhat_sl(n))
        assert len(reports) == 3 * n * n
        assert all(r.exact_zero for r in reports)

    def test_mixed_relation_coefficient_is_q_minus_two(self, lastf2):
        # A^1 Adag_1 + Adag_1 A^1 - 1 - (q^-2 - 1) Adag_2 A^2 == 0
        a1, ad1 = lastf2.annihilators[0], lastf2.creators[0]
        a2, ad2 = lastf2.annihilators[1], lastf2.creators[1]
        anticommutator = a1 * ad1 + ad1 * a1
        good = anticommutator - identity(2) - (ad2 * a2).scale(q_power(-2) - ONE)
        assert good.nnz() == 0
        # the q^-1 - 1 alternative does not close
        bad = anticommutator - identity(2) - (ad2 * a2).scale(q_power(-1) - ONE)
        assert bad.nnz() != 0

    def test_reversed_dressing_orientation_fails(self):
        # weights on the modes before i instead of after i
        gens = build_generators(2)
        creators = (gens[0][0], q_exponent((-1, 0)) * gens[1][0])
        annihilators = (gens[0][1], gens[1][1] * q_exponent((-1, 0)))
        wrong = GeneratorSet(creators, annihilators)
        reports = relation_residuals(wrong, build_rhat_sl(2))
        assert any(not r.exact_zero for r in reports)

    def test_classical_substitution_recovers_plain_generators(self, lastf2, plain2):
        at_one = lastf2.subst(Fraction(1))
        for built, original in zip(at_one.all_generators(),
                                   plain2.all_generators()):
            assert built == original

    def test_deformed_vacuum_properties(self, lastf2, plain2):
        for a in lastf2.annihilators:
            assert [a.get(r, 0) for r in range(a.dim)] == [ZERO] * a.dim
        for dressed, bare in zip(lastf2.creators, plain2.creators):
            assert ([dressed.get(r, 0) for r in range(dressed.dim)]
                    == [bare.get(r, 0) for r in range(bare.dim)])


class TestRelationChecker:
    def test_classical_degeneration(self, plain2):
        # the undeformed set fails over Q(q) but holds at q = 1
        reports = relation_residuals(plain2, build_rhat_sl(2))
        assert all(r.residual.subst(1).nnz() == 0 for r in reports)

    def test_undeformed_fails_deformed_relations(self, plain2):
        reports = relation_residuals(plain2, build_rhat_sl(2))
        assert any(not r.exact_zero for r in reports)

    def test_dimension_mismatch(self, plain2):
        with pytest.raises(ValueError, match="does not match"):
            relation_residuals(plain2, build_rhat_sl(3))

    def test_report_families_and_indices(self, lastf2):
        reports = relation_residuals(lastf2, build_rhat_sl(2))
        families = {r.family for r in reports}
        assert families == {"creator-creator", "annihilator-annihilator", "mixed"}
        indices = [r.indices for r in reports if r.family == "mixed"]
        assert indices == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_no_sum_starts_from_the_zero_polynomial(self, monkeypatch):
        # an entry's first product is stored as it is, not added to zero
        gens = build_deforming_map(3)
        sums, add = [], Poly.__add__

        def counting_add(a, b):
            sums.append(a)
            return add(a, b)

        monkeypatch.setattr(Poly, "__add__", counting_add)
        reports = deform.map_relations(gens)
        assert len(reports) == 27 and all(r.exact_zero for r in reports)
        assert sums and not any(a.is_zero for a in sums)


class TestRelationKernelGcds:
    """The relation kernel sums over one common denominator, so deciding a
    relation takes no gcd; only a printed entry is reduced."""

    @pytest.fixture
    def kernel_gcds(self, monkeypatch):
        """The Poly.gcd calls made while a RelationReport is built."""
        calls, inside = [], []
        gcd, init = Poly.gcd, RelationReport.__init__

        def counting_gcd(a, b):
            if inside:
                calls.append((a, b))
            return gcd(a, b)

        def tracked_init(self, *args, **kwargs):
            inside.append(True)
            try:
                init(self, *args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(Poly, "gcd", staticmethod(counting_gcd))
        monkeypatch.setattr(RelationReport, "__init__", tracked_init)
        return calls

    def test_passing_map_relations_take_no_gcd(self, kernel_gcds):
        reports = deform.map_relations(build_deforming_map(4))
        assert len(reports) == 48 and all(r.exact_zero for r in reports)
        assert kernel_gcds == []

    def test_failing_report_takes_one_gcd_for_its_printed_entry(
            self, kernel_gcds, monkeypatch):
        gens = build_deforming_map(4)
        broken = GeneratorSet([gens.creators[0].scale(2), *gens.creators[1:]],
                              gens.annihilators)
        reports = relation_residuals(broken, build_rhat_sl(4))
        failing = [r for r in reports if not r.exact_zero]
        assert failing and kernel_gcds == []
        printed, gcd = [], Poly.gcd
        monkeypatch.setattr(Poly, "gcd", staticmethod(
            lambda a, b: printed.append((a, b)) or gcd(a, b)))
        assert failing[0].worst_entry().endswith(")")
        assert len(printed) == 1

    def test_hecke_braid_and_covariance_take_no_gcd(self, kernel_gcds):
        # words of one and three matrices, and the U_q sl(2) self-check
        rhat = build_rhat_sl(3)
        reports = [check_hecke(rhat), check_braid(rhat),
                   *check_covariance(build_deforming_map(2), deformed_js())]
        assert len(reports) == 14 and all(r.exact_zero for r in reports)
        assert kernel_gcds == []


class TestInverseMap:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_composition_is_identity(self, n):
        inverse = build_inverse_map(build_deforming_map(n))
        plain = undeformed_set(n)
        for built, original in zip(inverse.all_generators(),
                                   plain.all_generators()):
            assert built == original

    def test_two_mode_matches_printed_form(self, lastf2):
        # [1 + (q - 1) N_2] Adag_1 with N_2 = Adag_2 A^2 reproduces adag_1
        n2 = lastf2.creators[1] * lastf2.annihilators[1]
        rebuilt = (identity(2) + n2.scale(Q - ONE)) * lastf2.creators[0]
        assert rebuilt == build_generators(2)[0][0]

    def test_wrong_input_set_rejected(self, plain2):
        with pytest.raises(MapConstructionError):
            build_inverse_map(plain2)


class TestConjugation:
    def test_identity_alpha_is_noop(self, lastf2):
        conj = conjugate_realization(lastf2, identity(2))
        assert conj.creators == lastf2.creators
        assert conj.annihilators == lastf2.annihilators

    def test_relations_preserved(self, lastf2):
        alpha = q_exponent((1, 0))
        conj = conjugate_realization(lastf2, alpha)
        reports = relation_residuals(conj, build_rhat_sl(2))
        assert all(r.exact_zero for r in reports)

    def test_diagonal_alpha_fixes_vacuum(self):
        alpha = q_exponent((1, 0))
        assert ([alpha.get(r, 0) for r in range(alpha.dim)]
                == [ONE] + [ZERO] * (alpha.dim - 1))

    def test_singular_alpha_rejected(self, lastf2):
        nilpotent = build_generators(2)[0][0]
        with pytest.raises(ValueError, match="singular"):
            conjugate_realization(lastf2, nilpotent)

    def test_unipotent_alpha_breaks_star(self, lastf2):
        gens = build_generators(2)
        alpha = identity(2) + gens[0][0] * gens[1][1]
        conj = conjugate_realization(lastf2, alpha)
        assert all(r.exact_zero
                   for r in relation_residuals(conj, build_rhat_sl(2)))
        assert not star_compatibility(conj).exact_zero


class TestPoincare:
    @pytest.mark.parametrize("n,expected", [(2, 16), (3, 64), (4, 256)])
    def test_full_rank_both_sets(self, n, expected):
        for gens in (undeformed_set(n), build_deforming_map(n)):
            rank, want = poincare_rank(gens)
            assert (rank, want) == (expected, expected)

    def test_degenerate_set_drops_to_half(self, lastf2):
        crippled = GeneratorSet(
            (fock.zero(2), lastf2.creators[1]), lastf2.annihilators)
        rank, expected = poincare_rank(crippled)
        assert (rank, expected) == (8, 16)

    def test_numeric_mode_agrees(self, lastf2):
        # the rank at a sampled q agrees with the exact echelon certificate
        rows = plain_rows(lastf2)
        sampled = rank_numeric([{c: v.eval_at(Fraction(5, 7))
                                 for c, v in row.items()} for row in rows])
        assert poincare_rank(lastf2) == (sampled, 16) == (16, 16)

    def test_bare_leads_are_the_lowest_columns_of_plain_words(self):
        gens = build_deforming_map(3)
        leads = list(deform._monomial_rows(gens))
        rows = plain_rows(gens)
        assert len(leads) == len(rows) == 64
        assert leads == [min(row) for row in rows]

    def test_prefix_products_match_plain_words(self, lastf2):
        # Adag_1 := Adag_2 makes monomials repeat, so each monomial is
        # handed over as its full row, formed from the subset products
        doubled = GeneratorSet(
            (lastf2.creators[1], lastf2.creators[1]), lastf2.annihilators)
        assert list(deform._monomial_rows(doubled)) == plain_rows(doubled)
        conj = conjugate_realization(build_deforming_map(3),
                                     identity(3) + build_generators(3)[0][0])
        assert deform._supports(conj.all_generators()) is None
        assert list(deform._monomial_rows(conj)) == plain_rows(conj)

    def test_colliding_leads_fall_back_to_elimination(self, lastf2):
        # Adag_1 := Adag_2 makes monomials repeat, so leading columns collide
        doubled = GeneratorSet(
            (lastf2.creators[1], lastf2.creators[1]), lastf2.annihilators)
        rows = plain_rows(doubled)
        leads = [min(row) for row in rows if row]
        assert len(set(leads)) < len(leads)
        sampled = max(
            rank_numeric([{c: v.eval_at(pt) for c, v in row.items()}
                          for row in rows])
            for pt in (Fraction(5, 7), Fraction(9, 4), Fraction(13, 10)))
        assert poincare_rank(doubled) == (sampled, 16)
        assert sampled < 16
        # the modular oracle agrees, on plain ints
        assert modular_rank(rows) == sampled

    def test_zero_monomials_are_empty_rows(self, lastf2):
        # a zero creator leaves half the monomials zero, but no lead repeats
        crippled = GeneratorSet(
            (fock.zero(2), lastf2.creators[1]), lastf2.annihilators)
        handed = list(deform._monomial_rows(crippled))
        assert handed.count({}) == 8
        assert [row for row in handed if row != {}] == [
            min(row) for row in plain_rows(crippled) if row]

    @pytest.fixture
    def formed(self, monkeypatch):
        """The left rows of every Fock row that the Poincare rank forms."""
        formed = []

        def spy(arow, brows):
            formed.append(arow)
            return row_product(arow, brows)

        monkeypatch.setattr(deform, "row_product", spy)
        return formed

    @pytest.mark.parametrize("build", [undeformed_set, build_deforming_map])
    def test_faithful_set_forms_no_fock_row(self, build, formed):
        # every creator product has at most one entry per row, so each
        # monomial's lead is read off its factors' supports, and the leads
        # are pairwise distinct
        assert poincare_rank(build(4)) == (256, 256)
        assert formed == []

    @pytest.mark.parametrize("build", [undeformed_set, build_deforming_map])
    def test_built_in_sets_form_no_subset_product(self, build, monkeypatch):
        # every generator row of both sets has at most one entry, so the
        # subset products are composed as supports, with no Q(q) product
        gens = build(4)
        products = []
        real_mul = SparseMatrix.__mul__

        def mul_spy(left, right):
            products.append((left, right))
            return real_mul(left, right)

        monkeypatch.setattr(SparseMatrix, "__mul__", mul_spy)
        assert poincare_rank(gens) == (256, 256)
        assert products == []

    @pytest.fixture
    def handed(self, monkeypatch):
        """What the rank reads: "rows", every row handed over, "kept", the
        rows it keeps by lead, and "suspended", the number of deform
        generators left suspended once every row is handed over."""
        seen = {"rows": [], "kept": {}, "suspended": []}
        echelon = linalg._echelon

        def spy(rows):
            def handed():
                for row in rows:
                    seen["rows"].append(row)
                    yield row
                seen["suspended"].append(sum(
                    1 for obj in gc.get_objects()
                    if inspect.isgenerator(obj) and obj.gi_frame is not None
                    and obj.gi_code.co_filename == deform.__file__))
            pivots = echelon(handed())
            seen["kept"].update(pivots)
            return pivots

        monkeypatch.setattr(linalg, "_echelon", spy)
        return seen

    @pytest.mark.parametrize("build", [undeformed_set, build_deforming_map])
    def test_rank_sees_only_bare_leads(self, build, handed):
        # the rank of a faithful set reads each monomial as a plain int,
        # its lead read off its supports, and keeps it as itself; no row
        # object is formed, and no deform generator is left suspended
        assert poincare_rank(build(4)) == (256, 256)
        leads = handed["rows"]
        assert all(type(row) is int for row in leads)
        assert handed["kept"] == {lead: lead for lead in leads}
        assert handed["suspended"] == [0]
        # the monomial (S, T) leads at row S, column T of the Fock basis
        index = {ann: sum(1 << (4 - m) for m in ann)
                 for cre, ann in ordered_monomials(4) if not cre}
        assert leads == [index[cre] * 16 + index[ann]
                         for cre, ann in ordered_monomials(4)]

    def test_colliding_monomials_are_handed_over_in_full(self, lastf2,
                                                         handed):
        # a repeated lead sends every monomial to the rank as its full
        # row, and the rank eliminates
        doubled = GeneratorSet(
            (lastf2.creators[1], lastf2.creators[1]), lastf2.annihilators)
        assert poincare_rank(doubled)[0] < 16
        assert handed["rows"] == plain_rows(doubled)
        assert max(len(row) for row in handed["rows"]) > 1

    def test_rank_invariant_under_conjugation(self, lastf2):
        conj = conjugate_realization(lastf2, q_exponent((1, 0)))
        assert poincare_rank(conj) == (16, 16)

    def test_mode_guards(self):
        with pytest.raises(ValueError, match="at most 10 modes"):
            poincare_rank(undeformed_set(11))


def worst_text(residual: SparseMatrix) -> str:
    """The worst-entry text read off a residual by its own row-major scan."""
    first = residual.first_nonzero()
    return "0" if first is None else f"{first[2]} at ({first[0]}, {first[1]})"


class TestStarCompatibility:
    @pytest.mark.parametrize("rescaled", [(2,), (2, 3)])
    def test_reports_the_first_failing_mode(self, rescaled):
        # mode i's creator times 3q^2 and its annihilator times its
        # inverse: the relations hold, and star fails on mode i alone
        built = build_deforming_map(3)
        scale = 3 * Q * Q
        gens = GeneratorSet(
            [op.scale(scale) if i in rescaled else op
             for i, op in enumerate(built.creators, start=1)],
            [op.scale(ONE / scale) if i in rescaled else op
             for i, op in enumerate(built.annihilators, start=1)])
        report = star_compatibility(gens)
        expected = star_by_subtraction(gens)
        assert not report.exact_zero
        assert report.residual == expected == (
            gens.annihilators[1].transpose() - gens.creators[1])
        assert type(report.residual) is SparseMatrix
        assert report.worst_entry() == worst_text(expected)

    def test_decides_with_no_matrix_subtraction(self, monkeypatch):
        gens = build_deforming_map(3)
        calls = []
        for cls, name in ((SparseMatrix, "__sub__"),
                          (RationalFunction, "__add__")):
            def spy(self, other, original=getattr(cls, name), name=name):
                calls.append(name)
                return original(self, other)

            monkeypatch.setattr(cls, name, spy)
        report = star_compatibility(gens)
        assert report.exact_zero and report.worst_entry() == "0"
        assert calls == []
        # the oracle subtracts once per mode, so the spies do see it
        assert star_by_subtraction(gens).nnz() == 0
        assert calls.count("__sub__") == 3

    def test_deforming_map_is_star_compatible(self, lastf2):
        report = star_compatibility(lastf2, q_point=1.5)
        assert report.exact_zero
        assert report.numeric_max_abs == 0.0

    def test_undeformed_is_star_compatible(self, plain2):
        assert star_compatibility(plain2).exact_zero

    def test_numeric_check_is_recomputed_at_the_point(self, lastf2,
                                                      monkeypatch):
        # mode 1 rescaled by 3q^2 breaks star; the value at the point is
        # read off residuals formed from the substituted generators, whose
        # entries are constants, not off the exact residuals
        scale = 3 * Q * Q
        rescaled = GeneratorSet(
            [lastf2.creators[0].scale(scale), lastf2.creators[1]],
            [lastf2.annihilators[0].scale(ONE / scale),
             lastf2.annihilators[1]])
        point = Fraction(3, 2)
        exact = max((a.transpose() - c).max_abs(point) for a, c in
                    zip(rescaled.annihilators, rescaled.creators))
        original = SparseMatrix.max_abs

        def constants_only(matrix, at):
            assert all(v.num.degree <= 0 and v.den.degree <= 0
                       for _, _, v in matrix.iter_entries())
            return original(matrix, at)

        monkeypatch.setattr(SparseMatrix, "max_abs", constants_only)
        report = star_compatibility(rescaled, q_point=point)
        assert not report.exact_zero
        assert report.numeric_max_abs == exact > 0


class TestSerialization:
    def test_generator_set_round_trip(self, lastf2):
        doc = lastf2.to_json()
        again = GeneratorSet.from_json(doc)
        assert again.creators == lastf2.creators
        assert again.annihilators == lastf2.annihilators
        assert again.modes == 2 and "provenance" not in doc
        # older files carry a provenance key, which is ignored
        older = GeneratorSet.from_json({**doc, "provenance": "user"})
        assert older.creators == again.creators
        assert older.annihilators == again.annihilators

    def test_length_validation(self, lastf2):
        with pytest.raises(ValueError, match="length"):
            GeneratorSet(lastf2.creators[:1], lastf2.annihilators)
        with pytest.raises(ValueError, match="nonempty"):
            GeneratorSet((), ())

    def test_dimension_validation(self, lastf2):
        with pytest.raises(ValueError, match="dimension"):
            GeneratorSet((identity(1), identity(1)), lastf2.annihilators)
