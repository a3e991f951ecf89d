import tracemalloc
from fractions import Fraction

import pytest

from qclifford.linalg import SparseMatrix, rank
from qclifford.rmatrix import (RMatrix, build_permutation, build_rhat_sl,
                               check_braid, check_hecke, projector_sl,
                               projector_sp)
from qclifford.scalar import ONE, PoleError, Q, ZERO, parse_rational, q_power

from oracles import composed_projector


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
        assert [[r.get(row, col) for col in range(4)]
                for row in range(4)] == expected

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
            entries = {v for _, _, v in build_rhat_sl(n).iter_entries()}
            assert entries <= allowed


class TestPermutation:
    def test_involution(self):
        p = build_permutation(3)
        assert p * p == p.identity_like()

    def test_two_mode_swap_block(self):
        p = build_permutation(2)
        # the pair (i, j) is the flat index (i - 1) * 2 + (j - 1)
        assert p.get(1, 2) == ONE
        assert p.get(1, 1) == ZERO
        assert p.get(0, 0) == ONE

    def test_permutation_fails_hecke_generically(self):
        assert not check_hecke(build_permutation(2)).exact_zero

    def test_identity_fails_braid_trivially_holds(self):
        ident = build_permutation(2).identity_like()
        assert check_braid(ident).exact_zero

    def test_random_non_braid_matrix_fails(self):
        rows = [{c: parse_rational(str((r * 7 + c * 3) % 5))
                 for c in range(4) if (r * 7 + c * 3) % 5}
                for r in range(4)]
        wild = RMatrix(2, rows)
        assert not check_braid(wild).exact_zero


class TestNoProductFormed:
    """The Hecke and braid residuals are words of matrices for the
    relation kernel, which multiplies no matrices."""

    @pytest.fixture
    def no_products(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("a SparseMatrix product was formed")
        for cls in (SparseMatrix, RMatrix):
            monkeypatch.setattr(cls, "__mul__", refuse)

    @pytest.mark.parametrize("n", [2, 3])
    def test_check_hecke(self, no_products, n):
        assert check_hecke(build_rhat_sl(n)).exact_zero
        assert not check_hecke(build_permutation(n)).exact_zero

    @pytest.mark.parametrize("n", [2, 3])
    def test_check_braid(self, no_products, n):
        assert check_braid(build_rhat_sl(n)).exact_zero
        wild = RMatrix(n, [{0: Q, 1: ONE}] + [{}] * (n * n - 1))
        assert not check_braid(wild).exact_zero


class TestSymmetrizer:
    @pytest.mark.parametrize("n", [2, 3])
    def test_idempotent(self, n):
        p = projector_sl(build_rhat_sl(n))
        assert (p * p - p).nnz() == 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_classical_limit(self, n):
        half = parse_rational("(1)/(2)")
        perm = build_permutation(n)
        classical = (perm + perm.identity_like()).scale(half)
        assert projector_sl(build_rhat_sl(n)).subst(1) == classical

    def test_rank_of_q_symmetric_subspace(self):
        assert rank(projector_sl(build_rhat_sl(2)).rows) == 3

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
        # q = 1 substituted into P+_q is still idempotent
        p = projector_sl(build_rhat_sl(2)).subst(1)
        assert (p * p - p).nnz() == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_the_composed_formula(self, n):
        rhat = build_rhat_sl(n)
        p = projector_sl(rhat)
        assert type(p) is RMatrix and p.n == n
        assert p == composed_projector(rhat)

    def test_products_do_not_grow_with_n(self, q_products):
        # one product per distinct (on-diagonal, value) pair of Rhat: the
        # sl braid matrix has the same four pairs at every N >= 2
        counts = []
        for n in (3, 6):
            rhat = build_rhat_sl(n)
            q_products.clear()
            projector_sl(rhat)
            counts.append(len(q_products))
        assert counts[0] == counts[1] == 4

    def test_diagonal_entries_missing_cancelled_or_shared(self):
        # a triangular Hecke matrix: the -q^-1 diagonal entries cancel and
        # are not stored, and the off-diagonal q is only scaled although
        # the value q also sits on the diagonal
        qinv = q_power(-1)
        rhat = RMatrix(2, [{0: Q}, {0: Q, 1: -qinv}, {2: Q}, {3: -qinv}])
        p = projector_sl(rhat)
        assert list(p.rows) == [{0: ONE}, {0: Q * (Q + qinv) ** -1},
                                {2: ONE}, {}]
        # a row with no diagonal entry gets q^-1 / (q + q^-1) there
        p = projector_sl(build_rhat_sl(2))
        assert 2 not in build_rhat_sl(2).rows[2]
        assert p.rows[2][2] == q_power(-1) * (Q + q_power(-1)) ** -1


class TestSpSymmetrizer:
    def test_output_dimension(self):
        p, _ = projector_sp(build_rhat_sl(2))
        assert type(p) is RMatrix and (p.n, p.dim) == (2, 4)

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
        p, finding = projector_sp(RMatrix(n, [{r: e} for r, e in enumerate(eigs)]))
        assert not finding.exact_zero
        assert p.get(1, 1).is_zero and p.get(2, 2).is_zero
        expected = (Q + q_power(-1 - n)) / (Q - q_power(-1 - n))
        assert p.get(0, 0) == expected
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
        assert m.to_json()["kind"] == "user-supplied"
        assert m.get(0, 0) == Q
        # a file's "kind" is a tag that the reader ignores
        assert RMatrix.from_json({**doc, "kind": "braid-sl"}).to_json() == \
            m.to_json()

    @pytest.mark.parametrize("doc", [{"n": 2, "dim": 0}, {"n": 2, "dim": 4097},
                                     {"n": 2, "dim": 10 ** 9}, {"n": 10 ** 6}])
    def test_dimension_guarded_before_allocating(self, doc):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dimension guard"):
                RMatrix.from_json({**doc, "entries": []})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n, dim", [(2, 5), (2, 9), (3, 4), (2, 4096)])
    def test_dim_must_be_n_squared(self, n, dim):
        message = rf"dim = {dim} is not n\^2 = {n * n} for n = {n}"
        with pytest.raises(ValueError, match=message):
            RMatrix.from_json({"n": n, "dim": dim,
                               "entries": [[dim - 1, dim - 1, "q"]]})

    @pytest.mark.parametrize("n", [0, -2])
    def test_block_dimension_must_be_positive(self, n):
        with pytest.raises(ValueError, match=f"n = {n} is not a positive"):
            RMatrix.from_json({"n": n, "dim": 4, "entries": []})

    def test_largest_empty_matrix_stays_small(self):
        # dim 4096 passes the guard; the rows are sparse, so an empty
        # entry list allocates no dim x dim table
        tracemalloc.start()
        try:
            m = RMatrix.from_json({"n": 64, "dim": 4096, "entries": []})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.dim == 4096 and m.nnz() == 0
        assert peak < 1 << 20

    def test_explicit_zero_entry_not_stored(self):
        doc = {"n": 2, "entries": [[0, 0, "q"], [1, 2, "0"], [3, 3, "q - q"]]}
        m = RMatrix.from_json(doc)
        assert m == RMatrix.from_json({"n": 2, "entries": [[0, 0, "q"]]})
        assert m.nnz() == 1
        assert m.to_json()["entries"] == [[0, 0, "q"]]

    @pytest.mark.parametrize("r, c", [(0, -1), (-1, 0), (4, 0), (0, 4)])
    def test_out_of_range_index_rejected(self, r, c):
        doc = {"n": 2, "entries": [[r, c, "q"]]}
        with pytest.raises(ValueError, match=rf"entry \[{r}, {c}, 'q'\]"):
            RMatrix.from_json(doc)
