import random
from fractions import Fraction

import pytest

from qclifford.linalg import (SparseMatrix, _echelon, invert_dense,
                              product_sum, product_sum_rows, rank,
                              rank_numeric)
from qclifford.report import CONVENTIONS, RelationReport, summarize
from qclifford.fock import identity
from qclifford.rmatrix import RMatrix, build_rhat_sl
from qclifford.scalar import ONE, Poly, Q, RationalFunction, ZERO, q_power


def random_rf(rng, max_deg=2, span=3):
    num = Poly([rng.randint(-span, span) for _ in range(max_deg + 1)])
    return RationalFunction(num, Poly((rng.randint(1, span), 1)))


class TestSparseMatrix:
    def test_identity_and_trace(self):
        ident = SparseMatrix(4).identity_like()
        diagonal = [ident.get(r, r) for r in range(4)]
        assert sum(diagonal, ZERO) == RationalFunction(4)
        assert ident * ident == ident

    def test_identity_like_keeps_class_and_shape(self):
        ident = SparseMatrix(16).identity_like()
        assert type(ident) is SparseMatrix
        assert len(ident.rows) == ident.dim == 16 and ident.get(10, 10) == ONE
        assert ident == identity(4)
        rhat = build_rhat_sl(2)
        ident = rhat.identity_like()
        assert type(ident) is RMatrix and ident.n == 2 and len(ident.rows) == 4
        assert rhat * ident == ident * rhat == rhat

    def test_add_cancellation_prunes_zeros(self):
        m = SparseMatrix(2, ({0: Q}, {1: ONE}))
        diff = m - m
        assert diff.is_zero and diff.nnz() == 0

    def test_transpose_of_product(self):
        rng = random.Random(7)
        a = SparseMatrix(3, tuple({c: random_rf(rng) for c in range(3)}
                                  for _ in range(3)))
        b = SparseMatrix(3, tuple({c: random_rf(rng) for c in range(3)}
                                  for _ in range(3)))
        assert (a * b).transpose() == b.transpose() * a.transpose()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            SparseMatrix(2).identity_like() + SparseMatrix(3).identity_like()

    def test_numeric_entry_evaluation(self):
        m = SparseMatrix(2, ({0: Q - q_power(-1)}, {}))
        assert m.subst(Fraction(1)).is_zero
        assert m.max_abs(2.0) == pytest.approx(1.5)


class TestRank:
    def test_identity_full_rank(self):
        rows = [{i: ONE} for i in range(5)]
        assert rank(rows) == 5

    def test_zero_rows_ignored(self):
        assert rank([{}, {}, {0: Q}]) == 1

    def test_dependent_rows(self):
        r0 = {0: Q, 1: ONE}
        r1 = {0: Q * Q, 1: Q}  # q * r0
        r2 = {1: ONE}
        assert rank([r0, r1, r2]) == 2

    def test_symbolic_agrees_with_sampled_numeric(self):
        rng = random.Random(2024)
        for _ in range(10):
            n = rng.randint(2, 5)
            rows = [{c: random_rf(rng) for c in range(n) if rng.random() < 0.7}
                    for _ in range(n + 1)]
            symbolic = rank([dict(r) for r in rows])
            sampled = max(
                rank_numeric([{c: v.eval_at(pt) for c, v in row.items()}
                              for row in rows])
                for pt in (Fraction(5, 7), Fraction(9, 4), Fraction(13, 10)))
            assert symbolic == sampled


def pieces_then_stop(*pieces):
    """A row of pieces that fails the test when read past its last piece."""
    yield from pieces
    raise AssertionError("the row was read past its last given piece")


class TestLazyRows:
    def test_new_lead_reads_only_the_first_nonzero_piece(self):
        rows = [pieces_then_stop({}, {0: ZERO}, {1: Q, 2: ONE}),
                pieces_then_stop({0: ONE}),
                pieces_then_stop({3: q_power(-1)})]
        assert rank(rows) == 3

    def test_colliding_leads_read_both_rows_in_full(self):
        # rows 0 and 1 share their lead and their first piece; only the
        # pieces past it tell them apart
        def row(last):
            return iter([{0: ONE}, {}, {5: last}])
        assert rank([row(ONE), row(ONE)]) == 1
        assert rank([row(ONE), row(Q)]) == 2
        assert rank([row(ONE), {0: ONE, 5: ONE}, row(Q)]) == 2

    def test_rest_of_a_kept_row_is_read_once(self):
        read = []

        def row():
            for piece in ({0: ONE}, {4: Q}, {6: ONE}):
                read.append(piece)
                yield piece
        assert rank([row(), {0: ONE, 4: Q}, {0: ONE, 6: ONE}]) == 3
        assert len(read) == 3

    def test_rows_that_vanish_in_pieces(self):
        assert rank([iter([{}, {1: ZERO}]), iter([]), {2: ZERO}]) == 0


class Reiterable:
    """A row of pieces that can be read any number of times; ``reads``
    holds the number of pieces taken in each read."""

    def __init__(self, *pieces):
        self.pieces, self.reads = pieces, []

    def __iter__(self):
        self.reads.append(0)
        for piece in self.pieces:
            self.reads[-1] += 1
            yield piece


class TestReiterableRows:
    def test_row_with_a_new_lead_is_kept_as_itself(self):
        a, b = Reiterable({}, {0: ONE}, {3: Q}), Reiterable({1: ONE})
        pivots = _echelon([a, b])
        assert pivots[0] is a and pivots[1] is b
        assert a.reads == [2] and b.reads == [1]

    def test_collision_reads_the_kept_row_anew(self):
        a = Reiterable({0: ONE}, {}, {5: ONE})
        b = Reiterable({0: ONE}, {}, {5: Q})
        assert rank([a, b]) == 2
        # a is read again from its start; b goes on from its first piece
        assert a.reads == [1, 3] and b.reads == [3]
        assert rank([Reiterable({0: ONE}, {5: ONE}),
                     Reiterable({0: ONE}, {5: ONE})]) == 1

    def test_reduced_row_is_kept_as_its_entries(self):
        a, b = Reiterable({0: ONE}, {1: ONE}), Reiterable({0: ONE}, {2: ONE})
        pivots = _echelon([a, b])
        assert pivots == {0: {0: ONE, 1: ONE}, 1: {1: -ONE, 2: ONE}}
        a, b = Reiterable({0: ONE}, {1: ONE}), Reiterable({0: ONE}, {2: ONE})
        assert rank([a, b, {1: ONE, 2: -ONE}]) == 2


class TestInversion:
    def test_round_trip(self):
        rng = random.Random(99)
        n = 4
        m = SparseMatrix(n, tuple(
            {c: random_rf(rng) + (ONE if r == c else ZERO) for c in range(n)}
            for r in range(n)))
        try:
            inv = invert_dense(m)
        except ValueError:
            pytest.skip("random matrix happened to be singular")
        assert m * inv == m.identity_like()
        assert inv * m == m.identity_like()

    def test_singular_detection(self):
        with pytest.raises(ValueError, match="singular"):
            invert_dense(SparseMatrix(2, ({0: ONE, 1: ONE}, {0: ONE, 1: ONE})))

    def test_inverse_keeps_the_class(self):
        m = SparseMatrix(2, ({0: Q}, {0: ONE, 1: ONE}))
        assert m * invert_dense(m) == m.identity_like()
        rhat = RMatrix(1, ({0: Q},))
        inv = invert_dense(rhat)
        assert isinstance(inv, RMatrix) and inv.block(1, 1, 1, 1) == Q ** -1


def expected_worst(residual: SparseMatrix) -> str:
    """The worst-entry text read off a residual by its own row-major scan."""
    if residual.is_zero:
        return "0"
    r, c, v = residual.first_nonzero()
    return f"{v} at ({r}, {c})"


class RecordingRows(tuple):
    """Matrix rows that record the index of every row read from them."""

    def __new__(cls, rows, reads: list):
        self = super().__new__(cls, rows)
        self.reads = reads
        return self

    def __getitem__(self, r):
        self.reads.append(r)
        return super().__getitem__(r)

    def __iter__(self):
        return (self[r] for r in range(len(self)))


class TestProductSumRows:
    def test_entry_meeting_an_empty_row_multiplies_nothing(self, monkeypatch):
        # X's only entry, X[0, 1], points at Y's row 1, which is empty
        x = SparseMatrix(2, ({1: Q + ONE}, {}))
        y = SparseMatrix(2, ({0: Q}, {}))
        calls = []
        mul = Poly.__mul__

        def counting_mul(a, b):
            calls.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(Poly, "__mul__", counting_mul)
        rows = list(product_sum_rows(SparseMatrix(2), [(Q, x, y)]))
        assert rows == [] and calls == []


class TestReports:
    def test_failing_report_reads_no_row_after_its_first(self):
        # row 0 survives; rows 2 and 3 fail too but are read only when the
        # residual is requested
        x = SparseMatrix(4, ({1: Q}, {}, {0: ONE}, {3: Q - ONE}))
        y = x.identity_like()
        expected = product_sum(SparseMatrix(4), [(ONE, x, y)])
        reads = []
        x.rows = RecordingRows(x.rows, reads)
        rep = RelationReport("f", (), "X = 0", SparseMatrix(4), [(ONE, x, y)])
        assert not rep.exact_zero and rep.worst_entry() == "q at (0, 1)"
        assert reads == [0]
        residual = rep.residual
        assert reads == [0, 1, 2, 3]
        assert residual == expected and type(residual) is SparseMatrix
        assert rep.residual is residual and reads == [0, 1, 2, 3]

    def test_passing_report_reads_every_row(self):
        x = SparseMatrix(3, ({1: Q}, {}, {0: ONE}))
        reads = []
        x.rows = RecordingRows(x.rows, reads)
        y = SparseMatrix(3).identity_like()
        rep = RelationReport("f", (), "X - X = 0", SparseMatrix(3),
                             [(ONE, x, y), (-ONE, x, y)])
        assert rep.exact_zero and sorted(set(reads)) == [0, 1, 2]
        assert rep.residual == SparseMatrix(3)

    def test_worst_entry_of_zero_residual(self):
        rep = RelationReport("f", (1,), "x = 0", SparseMatrix(2))
        assert rep.exact_zero and rep.residual.is_zero
        assert rep.worst_entry() == "0"
        assert "numeric_max_abs" not in rep.to_json()

    def test_worst_entry_names_position(self):
        # row 1 holds column 1 before column 0: the worst entry is at the
        # smaller column, not at the first one stored
        residual = SparseMatrix(2, ({}, {1: Q - ONE, 0: Q}))
        rep = RelationReport("f", (1, 2), "x = 0", SparseMatrix(2),
                             [(ONE, residual, residual.identity_like())])
        assert rep.exact_zero == residual.is_zero
        assert rep.worst_entry() == expected_worst(residual) == "q at (1, 0)"
        assert rep.residual == residual
        rep.numeric_max_abs = 0.3
        doc = rep.to_json()
        assert doc["numeric_max_abs"] == 0.3
        assert doc["indices"] == [1, 2]
        assert doc["worst_entry"] == "q at (1, 0)"

    def test_summarize_counts(self):
        zeros, failing = SparseMatrix(1), SparseMatrix(1, ({0: Q},))
        reports = [RelationReport("f", (), "", start)
                   for start in (zeros, zeros, failing)]
        assert [r.exact_zero for r in reports] == [True, True, False]
        assert summarize(reports) == {"total": 3, "exact_zero": 2, "failed": 1}

    def test_convention_ledger_is_never_empty(self):
        assert CONVENTIONS
        assert all(isinstance(v, str) and v for v in CONVENTIONS.values())
