from fractions import Fraction

import pytest

from qclifford.rmatrix import (RMatrix, build_permutation, build_rhat_sl,
                               check_braid, check_hecke, projector_sl,
                               projector_sp)
from qclifford.scalar import ONE, PoleError, Q, ZERO, parse_rational, q_power


class TestBraidMatrix:
    def test_two_mode_entry_table(self):
        r = build_rhat_sl(2)
        omega = Q - q_power(-1)
        expected = [
            [Q, ZERO, ZERO, ZERO],
            [ZERO, omega, ONE, ZERO],
            [ZERO, ONE, ZERO, ZERO],
            [ZERO, ZERO, ZERO, Q],
        ]
        assert [list(row) for row in r.entries] == expected

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_classical_limit_is_permutation(self, n):
        assert build_rhat_sl(n).subst(1) == build_permutation(n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hecke_identity(self, n):
        assert check_hecke(build_rhat_sl(n)).exact_zero

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_braid_identity(self, n):
        assert check_braid(build_rhat_sl(n)).exact_zero

    def test_entry_alphabet(self):
        allowed = {ZERO, ONE, Q, Q - q_power(-1)}
        for n in (2, 3, 4):
            entries = {v for row in build_rhat_sl(n).entries for v in row}
            assert entries <= allowed

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            build_rhat_sl(1)


class TestPermutation:
    def test_involution(self):
        p = build_permutation(3)
        assert p * p == p.identity_like()

    def test_two_mode_swap_block(self):
        p = build_permutation(2)
        assert p.block(1, 2, 2, 1) == ONE
        assert p.block(1, 2, 1, 2) == ZERO
        assert p.block(1, 1, 1, 1) == ONE

    def test_permutation_fails_hecke_generically(self):
        assert not check_hecke(build_permutation(2)).exact_zero

    def test_identity_fails_braid_trivially_holds(self):
        ident = build_permutation(2).identity_like()
        assert check_braid(ident).exact_zero

    def test_random_non_braid_matrix_fails(self):
        entries = [[parse_rational(str((r * 7 + c * 3) % 5))
                    for c in range(4)] for r in range(4)]
        wild = RMatrix(2, entries, kind="user-supplied")
        assert not check_braid(wild).exact_zero


class TestSymmetrizer:
    @pytest.mark.parametrize("n", [2, 3])
    def test_idempotent(self, n):
        p = projector_sl(build_rhat_sl(n))
        assert (p * p - p).is_zero

    @pytest.mark.parametrize("n", [2, 3])
    def test_classical_limit(self, n):
        half = parse_rational("(1)/(2)")
        perm = build_permutation(n)
        classical = (perm + perm.identity_like()).scale(half)
        assert projector_sl(build_rhat_sl(n)).subst(1) == classical

    def test_rank_of_q_symmetric_subspace(self):
        assert projector_sl(build_rhat_sl(2)).rank() == 3

    @pytest.mark.parametrize("n", [2, 3])
    def test_spectral_decomposition(self, n):
        rhat = build_rhat_sl(n)
        p = projector_sl(rhat)
        complement = p.identity_like() - p
        assert rhat == p.scale(Q) - complement.scale(q_power(-1))

    def test_rejects_non_hecke_input(self):
        with pytest.raises(ValueError, match="not an sl-type braid matrix"):
            projector_sl(build_permutation(2))

    def test_classical_projector_at_q_one(self):
        # the permutation satisfies the Hecke identity at q = 1
        p = projector_sl(build_permutation(2), q_scalar=ONE)
        assert (p * p - p).is_zero


class TestSpSymmetrizer:
    def test_output_dimension(self):
        p, _ = projector_sp(build_rhat_sl(2))
        assert p.dim == 4 and p.kind == "projector-sp"

    def test_sl_input_is_reported_not_idempotent(self):
        # negative control: the expression is not a projector on an sl braid
        _, finding = projector_sp(build_rhat_sl(2))
        assert not finding.exact_zero

    def test_three_eigenvalue_input_finding(self):
        # user-supplied diagonal with eigenvalues q, -q^-1, -q^-1-n:
        # the expression annihilates the lower eigenspaces but scales the
        # q-eigenspace by (q + q^-1-n)/(q - q^-1-n); recorded as a finding.
        n = 2
        eigs = [Q, -q_power(-1), -q_power(-1 - n), Q]
        entries = [[eigs[r] if r == c else ZERO for c in range(4)]
                   for r in range(4)]
        p, finding = projector_sp(RMatrix(n, entries))
        assert not finding.exact_zero
        assert p.entries[1][1].is_zero and p.entries[2][2].is_zero
        expected = (Q + q_power(-1 - n)) / (Q - q_power(-1 - n))
        assert p.entries[0][0] == expected
        # the scale factor is singular at q = 1, so no classical limit exists
        with pytest.raises(PoleError):
            p.subst(Fraction(1))


class TestSerialization:
    def test_json_round_trip(self):
        r = build_rhat_sl(3)
        assert RMatrix.from_json(r.to_json()) == r

    def test_user_kind_default(self):
        doc = {"n": 2, "entries": [[0, 0, "q"]]}
        m = RMatrix.from_json(doc)
        assert m.kind == "user-supplied"
        assert m.block(1, 1, 1, 1) == Q

    @pytest.mark.parametrize("r, c", [(0, -1), (-1, 0), (4, 0), (0, 4)])
    def test_out_of_range_index_rejected(self, r, c):
        doc = {"n": 2, "entries": [[r, c, "q"]]}
        with pytest.raises(ValueError, match=rf"entry \[{r}, {c}, 'q'\]"):
            RMatrix.from_json(doc)
