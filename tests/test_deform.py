import gc
import inspect
from collections.abc import Iterator
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
from qclifford.scalar import ONE, Poly, Q, ZERO, q_power

from oracles import conjugate_realization, full_rows, word_to_operator


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
        assert good.is_zero
        # the q^-1 - 1 alternative does not close
        bad = anticommutator - identity(2) - (ad2 * a2).scale(q_power(-1) - ONE)
        assert not bad.is_zero

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
        assert all(r.residual.subst(1).is_zero for r in reports)

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
        rows = full_rows(deform._monomial_rows(lastf2))
        sampled = rank_numeric([{c: v.eval_at(Fraction(5, 7))
                                 for c, v in row.items()} for row in rows])
        assert poincare_rank(lastf2) == (sampled, 16) == (16, 16)

    def test_prefix_products_match_plain_words(self):
        gens = build_deforming_map(3)
        pairs = list(zip(gens.creators, gens.annihilators))
        keys = fock.ordered_monomials(3)
        rows = full_rows(deform._monomial_rows(gens))
        assert len(rows) == len(keys) == 64
        for (cre, ann), row in zip(keys, rows):
            op = word_to_operator([*cre, *(-i for i in ann)], pairs)
            assert row == {r * 8 + c: v for r, c, v in op.iter_entries()}

    def test_colliding_leads_fall_back_to_elimination(self, lastf2):
        # Adag_1 := Adag_2 makes monomials repeat, so leading columns collide
        doubled = GeneratorSet(
            (lastf2.creators[1], lastf2.creators[1]), lastf2.annihilators)
        rows = full_rows(deform._monomial_rows(doubled))
        leads = [min(row) for row in rows if row]
        assert len(set(leads)) < len(leads)
        sampled = max(
            rank_numeric([{c: v.eval_at(pt) for c, v in row.items()}
                          for row in rows])
            for pt in (Fraction(5, 7), Fraction(9, 4), Fraction(13, 10)))
        assert poincare_rank(doubled) == (sampled, 16)
        assert sampled < 16

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
    def test_faithful_set_forms_one_fock_row_per_monomial(self, build, formed):
        # every ordered monomial is nonzero, and its first nonzero Fock row
        # already gives it a lead of its own
        assert poincare_rank(build(4)) == (256, 256)
        assert len(formed) == 256

    def test_kept_rows_are_the_monomials_themselves(self, monkeypatch):
        # the rank keeps each monomial of a faithful set as its row object,
        # and once every row is handed over, at most the last one's Fock
        # rows are still suspended
        kept, suspended = [], []
        echelon = linalg._echelon

        def spy(rows):
            def handed():
                yield from rows
                suspended.append(sum(
                    1 for obj in gc.get_objects()
                    if inspect.isgenerator(obj) and obj.gi_frame is not None
                    and obj.gi_code.co_filename == deform.__file__))
            pivots = echelon(handed())
            kept.extend(pivots.values())
            return pivots

        monkeypatch.setattr(linalg, "_echelon", spy)
        assert poincare_rank(build_deforming_map(4)) == (256, 256)
        assert len(kept) == 256 and suspended[0] <= 1
        assert not any(isinstance(row, Iterator) or inspect.isgenerator(row)
                       for row in kept)
        assert all(iter(row) is not row for row in kept)

    def test_colliding_monomials_are_read_past_their_first_row(self, lastf2,
                                                               formed):
        doubled = GeneratorSet(
            (lastf2.creators[1], lastf2.creators[1]), lastf2.annihilators)
        assert poincare_rank(doubled)[0] < 16
        assert len(formed) > 16

    def test_rank_invariant_under_conjugation(self, lastf2):
        conj = conjugate_realization(lastf2, q_exponent((1, 0)))
        assert poincare_rank(conj) == (16, 16)

    def test_mode_guards(self):
        with pytest.raises(ValueError, match="at most 8 modes"):
            poincare_rank(undeformed_set(9))


class TestStarCompatibility:
    def test_deforming_map_is_star_compatible(self, lastf2):
        report = star_compatibility(lastf2, q_point=1.5)
        assert report.exact_zero
        assert report.numeric_max_abs == 0.0

    def test_undeformed_is_star_compatible(self, plain2):
        assert star_compatibility(plain2).exact_zero


class TestSerialization:
    def test_generator_set_round_trip(self, lastf2):
        doc = lastf2.to_json()
        again = GeneratorSet.from_json(doc)
        assert again.creators == lastf2.creators
        assert again.annihilators == lastf2.annihilators
        assert again.modes == 2 and "provenance" not in doc
        # older files carry a provenance key, which is ignored
        assert GeneratorSet.from_json({**doc, "provenance": "user"}) == again

    def test_length_validation(self, lastf2):
        with pytest.raises(ValueError, match="length"):
            GeneratorSet(lastf2.creators[:1], lastf2.annihilators)
        with pytest.raises(ValueError, match="nonempty"):
            GeneratorSet((), ())

    def test_dimension_validation(self, lastf2):
        with pytest.raises(ValueError, match="dimension"):
            GeneratorSet((identity(1), identity(1)), lastf2.annihilators)
