"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Every identity below is checked by structural equality over the
exact scalar field; float tolerances appear only in the explicitly
numeric spot checks.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from qclifford.chain import (VARIANTS, chain_residuals,
                             lexicographic_experiment)
from qclifford.deform import (build_deforming_map, build_inverse_map,
                              poincare_rank, relation_residuals,
                              star_compatibility, undeformed_set)
from qclifford.fock import identity
from qclifford.hopf import (check_covariance, check_module_algebra,
                            classical_js, deformed_js, invariance_check,
                            invariant_number, verify_I1_identity)
from qclifford.rmatrix import (build_permutation, build_rhat_sl, check_braid,
                               check_hecke, projector_sl)
from qclifford.scalar import ONE, Q, parse_rational, q_power

from oracles import classical_chain_check, copy_braid, gamma_ratio


@contextmanager
def criterion(number, description):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"PASS criterion {number}: {description} [{elapsed:.2f}s]")


def test_criterion_01_deforming_map_relations():
    with criterion(1, "N=2 deforming map satisfies all quadratic relations "
                      "exactly (structural zero)"):
        started = time.monotonic()
        gens = build_deforming_map(2)
        reports = relation_residuals(gens, build_rhat_sl(2))
        assert len(reports) == 12
        for rep in reports:
            assert rep.exact_zero, (rep.family, rep.indices, rep.worst_entry())
        assert time.monotonic() - started < 1.0


def test_criterion_02_poincare_series():
    with criterion(2, "ordered-monomial rank is 16 (N=2) and 64 (N=3) for "
                      "both generator sets, exact"):
        started = time.monotonic()
        for n, expected in ((2, 16), (3, 64)):
            for gens in (undeformed_set(n), build_deforming_map(n)):
                rank, want = poincare_rank(gens)
                assert rank == expected and want == expected
        assert time.monotonic() - started < 30.0


def test_criterion_03_braid_matrix_validity():
    with criterion(3, "Hecke and braid residuals exactly zero for N=2,3,4; "
                      "q=1 value is the permutation matrix"):
        for n in (2, 3, 4):
            rhat = build_rhat_sl(n)
            assert check_hecke(rhat).exact_zero
            assert check_braid(rhat).exact_zero
            assert rhat.subst(Fraction(1)) == build_permutation(n)


def test_criterion_04_symmetrizer_projector():
    with criterion(4, "(P+_q)^2 = P+_q exactly for N=2,3 and equals "
                      "(1+P)/2 at q=1"):
        half = parse_rational("(1)/(2)")
        for n in (2, 3):
            p = projector_sl(build_rhat_sl(n))
            assert (p * p - p).nnz() == 0
            perm = build_permutation(n)
            assert p.subst(Fraction(1)) == (perm + perm.identity_like()).scale(half)


def test_criterion_05_inverse_map():
    with criterion(5, "inverse map composed with the forward map fixes all "
                      "2N generators exactly for N=2,3"):
        for n in (2, 3):
            rebuilt = build_inverse_map(build_deforming_map(n))
            plain = undeformed_set(n)
            for built, original in zip(rebuilt.all_generators(),
                                       plain.all_generators()):
                assert built == original


def test_criterion_06_covariance():
    with criterion(6, "quantum-group covariance exact on the deformed "
                      "generators; undeformed generators fail (control)"):
        data = deformed_js()
        dressed = check_covariance(build_deforming_map(2), data)
        assert len(dressed) == 12
        assert all(r.exact_zero for r in dressed)
        control = check_covariance(undeformed_set(2), data)
        assert any(not r.exact_zero for r in control)


def test_criterion_07_module_algebra():
    with criterion(7, "module-algebra axioms exact for all generator pairs "
                      "and all products of two deformed generators"):
        data = deformed_js()
        reports = check_module_algebra(data, build_deforming_map(2))
        assert len(reports) == 9 * 4 + 3 * 16
        assert all(r.exact_zero for r in reports)


def test_criterion_08_invariant_identity():
    with criterion(8, "deformed quadratic invariant equals its q-integer "
                      "closed form exactly; numeric residual < 1e-12 at 1.3"):
        gens = build_deforming_map(2)
        report = verify_I1_identity(gens)
        assert report.exact_zero
        assert report.residual.max_abs(1.3) < 1e-12
        i1q = invariant_number(gens, "I1_q").expression
        assert i1q.get(3, 3) == ONE + q_power(-2)  # doubly occupied sector


def test_criterion_09_invariant_equality():
    with criterion(9, "classical invariant is exactly invariant under the "
                      "deformed action and conversely"):
        data = deformed_js()
        i1 = invariant_number(undeformed_set(2), "I1")
        i1q = invariant_number(build_deforming_map(2), "I1_q")
        assert all(r.exact_zero for r in invariance_check(i1, data)
                   if r.family == "invariance-deformed")
        assert all(r.exact_zero for r in invariance_check(i1q, data)
                   if r.family == "invariance-classical")


def test_criterion_10_star_structure():
    with criterion(10, "star(A^i) = Adag_i symbolically; numeric deviation "
                       "< 1e-12 at q=1.5"):
        report = star_compatibility(build_deforming_map(2), q_point=1.5)
        assert report.exact_zero
        assert report.numeric_max_abs < 1e-12


def test_criterion_11_classical_limits():
    with criterion(11, "q=1 substitution reproduces every undeformed "
                       "counterpart exactly"):
        one = Fraction(1)
        half = parse_rational("(1)/(2)")
        for n in (2, 3):
            dressed = build_deforming_map(n).subst(one)
            plain = undeformed_set(n)
            for built, original in zip(dressed.all_generators(),
                                       plain.all_generators()):
                assert built == original
            perm = build_permutation(n)
            assert build_rhat_sl(n).subst(one) == perm
            assert projector_sl(build_rhat_sl(n)).subst(one) == \
                (perm + perm.identity_like()).scale(half)
        data = deformed_js()
        js = classical_js()
        assert data.sigma["E"] == js["j+"]
        assert data.sigma["F"] == js["j-"]
        assert data.sigma["K"].subst(one) == identity(2)
        ratio = (data.sigma["K"] - identity(2)).scale((Q - ONE) ** -1)
        assert ratio.subst(one) == js["j0"].scale(2)
        classical = relation_residuals(undeformed_set(2), build_rhat_sl(2))
        assert all(r.residual.subst(one).nnz() == 0 for r in classical)


def test_criterion_12_scalar_identities():
    with criterion(12, "gamma quotient: 2/(1+q^2) at m=2 and value 1 at "
                       "q=1 for all m <= 8"):
        assert gamma_ratio(2) == parse_rational("(2)/(q^2 + 1)")
        for m in range(9):
            assert gamma_ratio(m).eval_at(Fraction(1)) == 1


def test_criterion_13_chain_degenerations():
    with criterion(13, "M=1 chain coincides tuple-for-tuple, q=1 collapses "
                       "to plain anticommutation, (2,2) experiment reports "
                       "complete per-family verdicts"):
        started = time.monotonic()
        gens = build_deforming_map(2)
        [chain_reports] = chain_residuals(gens, build_rhat_sl(2),
                                          [copy_braid(1, "diagonal-mixed")])
        single_reports = relation_residuals(gens, build_rhat_sl(2))
        assert len(chain_reports) == len(single_reports)
        for chain_rep, single_rep in zip(chain_reports, single_reports):
            assert chain_rep.indices[2:] == single_rep.indices
            assert chain_rep.exact_zero == single_rep.exact_zero
            assert chain_rep.residual == single_rep.residual
        for variant in VARIANTS:
            assert all(res.nnz() == 0 for res in classical_chain_check(2, 2, variant))
        findings, _ = lexicographic_experiment(2, 2)
        for variant in VARIANTS:
            families = findings["variants"][variant]["families"]
            assert set(families) == {"chain-creator", "chain-annihilator",
                                     "chain-mixed"}
            for entry in families.values():
                assert entry["total"] == 12
                assert isinstance(entry["holds"], bool)
        assert time.monotonic() - started < 60.0
