from fractions import Fraction

import pytest

from qclifford import fock, hopf
from qclifford.deform import build_deforming_map, undeformed_set
from qclifford.fock import build_generators, identity, number_op
from qclifford.hopf import (GENERATOR_NAMES, act, check_covariance,
                            check_module_algebra, classical_js,
                            deformed_js, invariance_check,
                            invariant_number, verify_I1_identity)
from qclifford.linalg import SparseMatrix
from qclifford.report import CONVENTIONS
from qclifford.scalar import ONE, Q, ZERO, parse_rational, q_power

from oracles import (classical_act, degree_two_invariant_basis, hopf_data_at,
                     invariant_from_tensor, mirror_js)


@pytest.fixture(scope="module")
def data():
    return deformed_js()


@pytest.fixture(scope="module")
def lastf2():
    return build_deforming_map(2)


@pytest.fixture(scope="module")
def plain2():
    return undeformed_set(2)


class TestDeformedBilinears:
    def test_defining_relations(self, data):
        E, F, K, Kinv = (data.sigma[n] for n in ("E", "F", "K", "Kinv"))
        assert K * Kinv == identity(2)
        assert K * E * Kinv == E.scale(Q * Q)
        assert K * F * Kinv == F.scale(q_power(-2))
        bracket = E * F - F * E
        assert bracket == (K - Kinv).scale((Q - q_power(-1)) ** -1)

    def test_k_fixes_vacuum(self, data):
        k = data.sigma["K"]
        assert [k.get(r, 0) for r in range(4)] == [ONE, ZERO, ZERO, ZERO]

    def test_classical_point_matches_bilinears(self):
        at_one = hopf_data_at(deformed_js(), 1)
        js = classical_js()
        assert at_one.sigma["E"] == js["j+"]
        assert at_one.sigma["F"] == js["j-"]
        assert at_one.sigma["K"] == identity(2)

    def test_k_derivative_reduces_to_weight(self, data):
        # (sigma(K) - 1)/(q - 1) evaluated at q = 1 is n_1 - n_2 = 2 j0
        js = classical_js()
        ratio = (data.sigma["K"] - identity(2)).scale((Q - ONE) ** -1)
        assert ratio.subst(Fraction(1)) == js["j0"].scale(2)


def _doubled_creator_1(n_modes):
    """build_generators with adag_1 doubled, so sigma(E) = adag_1 a^2 is
    doubled and sigma(F) = adag_2 a^1 is not."""
    (adag_1, a_1), *rest = build_generators(n_modes)
    return [(adag_1.scale(2), a_1), *rest]


class TestSelfCheck:
    def test_doubled_weight_fails_the_e_conjugation(self, monkeypatch):
        # K = q^(2 (n_1 - n_2)) still inverts Kinv but weighs E by q^4
        q_exponent = fock.q_exponent
        monkeypatch.setattr(fock, "q_exponent",
                            lambda weights: q_exponent([2 * w for w in weights]))
        with pytest.raises(ValueError, match=r"^K E Kinv = q\^2 E fails$"):
            deformed_js()

    def test_doubled_e_fails_the_bracket(self, monkeypatch):
        monkeypatch.setattr(hopf, "build_generators", _doubled_creator_1)
        with pytest.raises(
                ValueError,
                match=r"^\[E, F\] = \(K - Kinv\)/\(q - q\^-1\) fails$"):
            deformed_js()


def _word(word):
    return " ".join(word) or "1"


class TestFrozenConvention:
    """The ledger's text and the tables the action runs on agree."""

    def test_coproduct_matches_the_ledger(self):
        text = "; ".join(
            f"D({x}) = " + " + ".join(f"{_word(left)}@{_word(right)}"
                                      for left, right in hopf.COPRODUCT[x])
            for x in GENERATOR_NAMES)
        assert text == CONVENTIONS["coproduct"]
        assert hopf.COPRODUCT["Kinv"] == [(("Kinv",), ("Kinv",))]

    def test_antipode_matches_the_ledger(self):
        text = "; ".join(
            f"S({x}) = {'-' if sign < 0 else ''}{_word(word)}"
            for x in GENERATOR_NAMES for sign, word in [hopf.ANTIPODE[x]])
        assert text == CONVENTIONS["antipode"]
        assert hopf.ANTIPODE["Kinv"] == (1, ("K",))

    def test_counit_matches_the_ledger(self):
        names_by_value = {}
        for x, value in hopf.COUNIT.items():
            names_by_value.setdefault(str(value), []).append(f"eps({x})")
        text = "; ".join(" = ".join(names) + f" = {value}"
                         for value, names in names_by_value.items())
        assert text == CONVENTIONS["counit"]

    def test_data_reads_the_frozen_tables(self, data):
        assert (data.coproduct, data.antipode, data.counit) == \
            (hopf.COPRODUCT, hopf.ANTIPODE, hopf.COUNIT)


class TestClassicalBilinears:
    def test_sl2_bracket(self):
        js = classical_js()
        plus, minus, zero_gen = js["j+"], js["j-"], js["j0"]
        assert plus * minus - minus * plus == zero_gen.scale(2)
        assert zero_gen * plus - plus * zero_gen == plus
        assert zero_gen * minus - minus * zero_gen == -minus

    def test_vacuum_annihilated(self):
        assert [classical_js()["j0"].get(r, 0) for r in range(4)] == [ZERO] * 4

    def test_raising_action_on_first_excited_state(self):
        # j+ maps the mode-2 one-particle state to the mode-1 one
        plus = classical_js()["j+"]
        assert [plus.get(r, 1) for r in range(4)] == [ZERO, ZERO, ONE, ZERO]


class TestAdjointAction:
    def test_k_weight_on_bare_creator(self, data):
        creator = build_generators(2)[0][0]
        assert act("K", creator, data) == creator.scale(Q)

    def test_unit_is_invariant(self, data):
        ident = identity(2)
        for x in ("E", "F", "K"):
            assert act(x, ident, data) == ident.scale(data.counit[x])

    def test_empty_word_acts_as_identity(self, data):
        op = number_op(2, 1)
        assert act((), op, data) == op

    def test_raising_sends_second_creator_to_first(self, data, lastf2):
        assert act("E", lastf2.creators[1], data) == lastf2.creators[0]

    def test_classical_point_is_commutator_action(self):
        at_one = hopf_data_at(deformed_js(), 1)
        js = classical_js()
        for name, classical in (("E", "j+"), ("F", "j-")):
            for op in (build_generators(2)[0][0], number_op(2, 2)):
                assert act(name, op, at_one) == classical_act(classical, op, js)


class TestModuleAlgebra:
    def test_all_axioms_exactly_zero(self, data, lastf2):
        reports = check_module_algebra(data, lastf2)
        assert len(reports) == 9 * 4 + 3 * 16
        assert all(r.exact_zero for r in reports)

    def test_diagonal_pair_is_trivially_associative(self, data, lastf2):
        reports = check_module_algebra(data, lastf2)
        kk = [r for r in reports
              if r.family == "module-assoc" and r.indices[:2] == ("K", "K")]
        assert kk and all(r.exact_zero for r in kk)

    def test_classical_point_obeys_plain_leibniz(self):
        at_one = hopf_data_at(deformed_js(), 1)
        gens = build_generators(2)
        a, b = gens[0][0], gens[1][1]
        lhs = act("E", a * b, at_one)
        rhs = act("E", a, at_one) * b + a * act("E", b, at_one)
        assert lhs == rhs

    def test_each_action_and_sandwich_product_computed_once(self, monkeypatch):
        data = deformed_js()
        gens = build_deforming_map(2)
        calls = {"mul": 0, "act": 0}
        mul, act_once = SparseMatrix.__mul__, hopf.act

        def counted_mul(self, other):
            calls["mul"] += 1
            return mul(self, other)

        def counted_act(*args):
            calls["act"] += 1
            return act_once(*args)

        monkeypatch.setattr(SparseMatrix, "__mul__", counted_mul)
        monkeypatch.setattr(hopf, "act", counted_act)
        reports = check_module_algebra(data, gens)
        assert all(r.exact_zero for r in reports)
        # y |> a once per generator word and sample (5 words x 4 samples);
        # matrix products only for those actions and the sigma words, none
        # with the identity; the residuals are words of matrices and form
        # none
        assert calls["act"] <= 20
        assert calls["mul"] <= 81


class TestCovariance:
    def test_deformed_generators_transform_exactly(self, data, lastf2):
        reports = check_covariance(lastf2, data)
        assert len(reports) == 12
        assert all(r.exact_zero for r in reports)

    def test_undeformed_generators_fail_generically(self, data, plain2):
        reports = check_covariance(plain2, data)
        assert any(not r.exact_zero for r in reports)

    def test_exactly_one_convention_passes(self, lastf2):
        frozen = deformed_js()
        mirror = mirror_js()
        assert all(r.exact_zero for r in check_covariance(lastf2, frozen))
        assert any(not r.exact_zero for r in check_covariance(lastf2, mirror))

    def test_k_rows_use_fundamental_weights(self, data):
        assert data.rho["K"] == SparseMatrix(2, [{0: Q}, {1: q_power(-1)}])

    def test_classical_point_reduces_to_commutator_covariance(self, plain2):
        at_one = hopf_data_at(deformed_js(), 1)
        reports = check_covariance(plain2, at_one)
        assert all(r.exact_zero for r in reports)


def _family(reports, action):
    """The reports of one action, "deformed" or "classical"."""
    return [r for r in reports if r.family == f"invariance-{action}"]


class TestInvariants:
    def test_deformed_reports_come_first(self, data, plain2):
        reports = invariance_check(invariant_number(plain2, "I1"), data)
        assert [(r.family, r.indices[1]) for r in reports] == [
            *(("invariance-deformed", x) for x in ("E", "F", "K", "Kinv")),
            *(("invariance-classical", x) for x in ("j+", "j-", "j0"))]

    def test_quadratic_invariants_under_both_actions(self, data, lastf2, plain2):
        i1 = invariant_number(plain2, "I1")
        i1q = invariant_number(lastf2, "I1_q")
        for element in (i1, i1q):
            reports = invariance_check(element, data)
            assert all(r.exact_zero for r in _family(reports, "deformed"))
            assert all(r.exact_zero for r in _family(reports, "classical"))

    def test_degree_two_basis_cross_invariance(self, data):
        classical_basis, deformed_basis = degree_two_invariant_basis()
        for element in (*classical_basis, *deformed_basis):
            reports = invariance_check(element, data)
            assert all(r.exact_zero
                       for r in _family(reports, "deformed")), element.label
            assert all(r.exact_zero
                       for r in _family(reports, "classical")), element.label

    def test_non_invariant_element_detected(self, data, plain2):
        lone = invariant_from_tensor({(1,): ONE}, plain2, "creators", "adag_1")
        assert any(not r.exact_zero
                   for r in _family(invariance_check(lone, data), "deformed"))

    def test_tensor_builder_validation(self, plain2):
        with pytest.raises(ValueError, match="kind"):
            invariant_from_tensor({(1,): ONE}, plain2, "both")


class TestInvariantIdentity:
    def test_exact_zero_two_modes(self, lastf2):
        report = verify_I1_identity(lastf2)
        assert report.exact_zero

    def test_exact_zero_three_modes(self):
        assert verify_I1_identity(build_deforming_map(3)).exact_zero

    def test_doubly_occupied_eigenvalue(self, lastf2):
        i1q = invariant_number(lastf2, "I1_q").expression
        assert i1q.get(3, 3) == parse_rational("(q^2 + 1)/(q^2)")

    def test_vacuum_sector_vanishes(self, lastf2):
        i1q = invariant_number(lastf2, "I1_q").expression
        assert [i1q.get(r, 0) for r in range(i1q.dim)] == [ZERO] * i1q.dim

    def test_numeric_spot_check(self, lastf2):
        report = verify_I1_identity(lastf2)
        assert report.residual.max_abs(1.3) < 1e-12

    def test_classical_point_identity(self, lastf2, plain2):
        deformed_inv = invariant_number(lastf2, "I1_q").expression
        plain_inv = invariant_number(plain2, "I1").expression
        assert deformed_inv.subst(Fraction(1)) == plain_inv

    def test_mode_guard(self):
        with pytest.raises(ValueError):
            verify_I1_identity(build_deforming_map(4))
