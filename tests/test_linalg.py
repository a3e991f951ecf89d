import random
from fractions import Fraction

import pytest

from qclifford import linalg
from qclifford.linalg import (SparseMatrix, _echelon, invert_dense,
                              product_sum, product_sum_rows, rank,
                              rank_numeric)
from qclifford.report import CONVENTIONS, RelationReport, summarize
from qclifford.deform import GeneratorSet, build_deforming_map
from qclifford.fock import identity
from qclifford.rmatrix import RMatrix, build_rhat_sl
from qclifford.scalar import (ONE, Poly, Q, RationalFunction, ZERO,
                              parse_rational, q_power)

from oracles import fraction_pair_residual


def random_rf(rng, max_deg=2, span=3):
    num = Poly([rng.randint(-span, span) for _ in range(max_deg + 1)])
    return RationalFunction(num, Poly((rng.randint(1, span), 1)))


class TestSparseMatrix:
    def test_identity_and_trace(self):
        ident = SparseMatrix(4).identity_like()
        diagonal = [ident.get(r, r) for r in range(4)]
        assert sum(diagonal, ZERO) == 4
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
        assert diff.nnz() == 0 and diff == SparseMatrix(2)

    def test_transpose_of_product(self):
        rng = random.Random(7)
        a = SparseMatrix(3, tuple({c: random_rf(rng) for c in range(3)}
                                  for _ in range(3)))
        b = SparseMatrix(3, tuple({c: random_rf(rng) for c in range(3)}
                                  for _ in range(3)))
        assert (a * b).transpose() == b.transpose() * a.transpose()

    def test_product_multiplies_only_nonempty_left_rows(self, monkeypatch):
        # a product of several generators is mostly empty rows; only the
        # nonempty rows of the left factor reach row_product
        calls = []
        real_product = linalg.row_product

        def spy(arow, brows):
            calls.append(arow)
            return real_product(arow, brows)

        monkeypatch.setattr(linalg, "row_product", spy)
        left = SparseMatrix(8, [{} if r % 3 else {r: Q} for r in range(8)])
        product = left * identity(3).scale(Q)
        assert len(calls) == 3 and all(calls)
        assert product == left.scale(Q)

    def test_scale_forms_one_product_per_distinct_value(self, q_products):
        # three distinct values over twelve entries; the two q^-1 entries
        # are distinct objects with one value
        values = [ONE, -ONE, q_power(-1), q_power(-1)]
        assert values[2] is not values[3]
        m = SparseMatrix(4, [{c: values[(r + c) % 4] for c in range(4)
                              if (r + c) % 2 or r == c} for r in range(4)])
        q_products.clear()
        scaled = m.scale(Q + ONE)
        assert sorted(str(a) for a, _ in q_products) == ["(1)/(q)", "-1", "1"]
        assert list(scaled.rows) == [
            {c: v * (Q + ONE) for c, v in row.items()} for row in m.rows]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            SparseMatrix(2).identity_like() + SparseMatrix(3).identity_like()

    def test_numeric_entry_evaluation(self):
        m = SparseMatrix(2, ({0: Q - q_power(-1)}, {}))
        assert m.subst(Fraction(1)).nnz() == 0
        assert m.max_abs(2.0) == pytest.approx(1.5)


class TestReadRows:
    @pytest.fixture
    def parsed(self, monkeypatch):
        """The texts handed to the parser that read_rows calls."""
        texts = []

        def spy(text):
            texts.append(text)
            return parse_rational(text)

        monkeypatch.setattr(linalg, "parse_rational", spy)
        return texts

    def test_each_distinct_text_is_parsed_once(self, parsed):
        built = build_deforming_map(3)
        scale = 2 * Q
        doc = GeneratorSet([op.scale(scale) for op in built.creators],
                           [op.scale(ONE / scale)
                            for op in built.annihilators]).to_json()
        repeats = 0
        for op in doc["creators"] + doc["annihilators"]:
            parsed.clear()
            rows = linalg.read_rows(op["entries"], op["dim"])
            texts = {text for _, _, text in op["entries"]}
            repeats += len(op["entries"]) - len(texts)
            assert sorted(parsed) == sorted(texts)
            expected = [{} for _ in range(op["dim"])]
            for r, c, text in op["entries"]:
                expected[r][c] = parse_rational(text)
            assert rows == expected
            # equal texts share one value
            assert len({id(v) for row in rows for v in row.values()}) == len(
                texts)
        assert repeats > 0

    def test_a_repeated_unreadable_text_names_its_first_entry(self, parsed):
        entries = [[0, 0, "q"], [0, 1, "q^^2"], [1, 1, "q^^2"]]
        with pytest.raises(ValueError) as direct:
            parse_rational("q^^2")
        with pytest.raises(ValueError) as read:
            linalg.read_rows(entries, 2)
        assert str(read.value) == f"entries[1]: {direct.value}"

    def test_a_repeated_zero_stores_nothing(self, parsed):
        entries = [[0, 0, "0"], [1, 0, "q"], [1, 1, "0"], [0, 1, "0"]]
        assert linalg.read_rows(entries, 2) == [{}, {0: Q}]
        assert parsed == ["0", "q"]


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


class TestBareLeads:
    def test_distinct_bare_leads_are_counted(self):
        assert rank([3, 0, 7]) == 3
        assert _echelon([3, 0, 7]) == {3: 3, 0: 0, 7: 7}

    def test_bare_leads_beside_dict_rows(self):
        pivots = _echelon([0, {2: q_power(-1)}, 1])
        assert pivots == {0: 0, 2: {2: Q ** -1}, 1: 1}

    def test_dict_rows_reduce_past_bare_leads(self):
        # the second dict row meets the first at column 0 and is reduced
        # to a new lead, which no bare lead holds
        pivots = _echelon([{0: ONE, 5: ONE}, 3, {0: ONE, 5: Q}])
        assert pivots == {0: {0: ONE, 5: ONE}, 3: 3, 5: {5: Q - ONE}}

    def test_zero_rows_beside_bare_leads(self):
        assert rank([{}, {1: ZERO}, 1]) == 1

    def test_repeated_bare_lead_is_refused(self):
        for lead in (4, 10 ** 6):
            with pytest.raises(ValueError, match=f"bare lead {lead} is taken"):
                rank([lead, int(str(lead))])

    def test_row_meeting_a_bare_lead_is_refused(self):
        # a bare lead has no entries, so no row can be reduced by it or
        # reduce it; the last row meets the bare lead 1 once reduced
        for rows in ([2, {2: ONE}], [{2: ONE}, 2],
                     [1, {0: ONE, 1: ONE}, {0: ONE}]):
            with pytest.raises(ValueError, match="is taken"):
                rank(rows)


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
        assert isinstance(inv, RMatrix) and inv.get(0, 0) == Q ** -1


def expected_worst(residual: SparseMatrix) -> str:
    """The worst-entry text read off a residual by its own row-major scan."""
    if residual.nnz() == 0:
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

    def test_each_term_forms_one_multiple_per_distinct_value(self,
                                                             monkeypatch):
        # X holds two distinct values over eight entries, each met by a
        # nonempty Y row; with unit denominators each term's multiplier
        # is its coefficient's numerator, the left operand of m * X~
        x = SparseMatrix(4, [{r: 2 * Q, (r + 1) % 4: Q + ONE}
                             for r in range(4)])
        y = SparseMatrix(4, [{c: Q ** c + ONE for c in range(4) if c != r}
                             for r in range(4)])
        terms = [(Q + 2 * ONE, x, y), (Q + 3 * ONE, x, y)]
        multipliers = [coeff.num for coeff, _, _ in terms]
        calls = []
        mul = Poly.__mul__

        def counting_mul(a, b):
            calls.append(a)
            return mul(a, b)

        monkeypatch.setattr(Poly, "__mul__", counting_mul)
        got = product_sum(SparseMatrix(4), terms)
        monkeypatch.undo()
        assert [sum(a is m for a in calls) for m in multipliers] == [2, 2]
        assert got == fraction_pair_residual(SparseMatrix(4), terms)

    def test_cancelled_entry_refilled_by_a_later_product(self):
        # entry (0, 0) receives q / (q + 1), then its negative, which
        # drops it, then q^2 / (q + 1), which stores it again
        x = SparseMatrix(2, ({1: Q}, {}))
        y = SparseMatrix(2, ({}, {0: (Q + ONE) ** -1}))
        terms = [(ONE, x, y), (-ONE, x, y), (Q, x, y)]
        start = SparseMatrix(2, ({1: ONE}, {}))
        got = product_sum(start, terms)
        assert got == fraction_pair_residual(start, terms)
        assert got == SparseMatrix(2, ({0: Q * Q / (Q + ONE), 1: ONE}, {}))

    def test_entries_of_distinct_values_match_the_oracle(self):
        # every entry of both factors is its own value, so no cleared
        # numerator and no multiple is shared
        x = SparseMatrix(4, [{c: (Q + (4 * r + c + 1) * ONE) / (r + 2)
                              for c in range(4)} for r in range(4)])
        y = SparseMatrix(4, [{c: q_power(r - c) * (4 * r + c + 20)
                              for c in range(4) if (r + c) % 3}
                             for r in range(4)])
        for m in (x, y):
            values = [v for row in m.rows for v in row.values()]
            _, rows = m.cleared()
            assert len(set(values)) == len(values) == len(
                {id(v) for row in rows for v in row.values()})
        start = -identity(2)
        terms = [(Q, x, y), (-ONE, y, x), (q_power(-1), x, x)]
        got = product_sum(start, terms)
        assert got == fraction_pair_residual(start, terms)


def plain(rows) -> list:
    """Cleared rows with each Poly read as its coefficient tuple."""
    return [{c: v.coeffs for c, v in row.items()} for row in rows]


class TestCleared:
    def test_unit_denominators_give_their_numerators(self):
        x = SparseMatrix(3, ({1: Q + ONE}, {}, {0: -ONE, 2: Q * Q}))
        cleared = x.cleared()
        den, rows = cleared
        assert den == (0, 1, None)
        assert plain(rows) == [{1: (1, 1)}, {}, {0: (-1,), 2: (0, 0, 1)}]
        assert all(type(v) is Poly for row in rows for v in row.values())
        assert x.cleared() is cleared

    def test_mixed_denominators_share_their_lcm(self):
        # q^-1, 1/(q + 1), 3/2 and 1: the lcm is 2 q (q + 1)
        x = SparseMatrix(2, ({0: q_power(-1), 1: (Q + ONE) ** -1},
                             {0: RationalFunction(Poly((3,)), Poly((2,))),
                              1: ONE}))
        cleared = x.cleared()
        den, rows = cleared
        assert den[:2] == (1, 2) and den[2].coeffs == (1, 1)
        assert plain(rows) == [{0: (2, 2), 1: (0, 2)}, {0: (0, 3, 3),
                                                        1: (0, 2, 2)}]
        assert all(type(v) is Poly for row in rows for v in row.values())
        d = linalg._den_poly(den)
        assert all(RationalFunction(rows[r][c], d) == v
                   for r, c, v in x.iter_entries())
        assert x.cleared() is cleared

    def test_clear_forms_one_numerator_per_distinct_value(self, monkeypatch):
        # creator 1 holds 1, q^-1 twice and q^-2 over d = q^2, creator 2
        # holds 1, -1, q^-1 and -q^-1 over d = q, and creator 3 holds 1
        # and -1 twice over d = 1: only 1 and q^-1 of creator 1 and 1 and
        # -1 of creator 2 are shifted, each once
        shifts = []
        real_shift = linalg._shift

        def spy(p, k, c):
            shifts.append((k, c))
            return real_shift(p, k, c)

        monkeypatch.setattr(linalg, "_shift", spy)
        for op in build_deforming_map(3).creators:
            (dk, dc, dp), rows = linalg._clear(op.rows)
            d = real_shift(dp, dk, dc)   # the denominator, unrecorded
            numerators = {}
            for row, out in zip(op.rows, rows):
                for c, v in row.items():
                    assert numerators.setdefault(v, out[c]) is out[c]
                    assert RationalFunction(out[c], d) == v
            assert len({id(v) for row in rows for v in row.values()}) == len(
                numerators)
        assert sorted(shifts) == [(1, 1), (1, 1), (1, 1), (2, 1)]

    def test_empty_matrix_keeps_its_rows(self):
        x = SparseMatrix(3)
        cleared = x.cleared()
        assert cleared == (None, x.rows) and cleared[1] is x.rows
        assert x.cleared() is cleared

    def test_word_of_three_drops_a_cancelled_entry(self, monkeypatch):
        # F1~ F2~ row 0 is q - q in column 0 and q + 1 in column 1 over
        # the denominator q + 1: the shared row_product drops column 0 on
        # the Z[q] rows, and the residual is F1 F2 F3 itself
        f1 = SparseMatrix(2, ({0: ONE, 1: ONE}, {}))
        s = (Q + ONE) ** -1
        f2 = SparseMatrix(2, ({0: Q * s}, {0: -Q * s, 1: ONE}))
        f3 = SparseMatrix(2, ({1: Q}, {0: ONE}))
        products = []
        real_product = linalg.row_product

        def spy(arow, brows):
            products.append(real_product(arow, brows))
            return products[-1]

        monkeypatch.setattr(linalg, "row_product", spy)
        got = product_sum(SparseMatrix(2), [(ONE, f1, f2, f3)])
        assert [plain([row]) for row in products] == [[{1: (1, 1)}], [{}]]
        assert type(products[0][1]) is Poly
        monkeypatch.undo()
        assert got == f1 * f2 * f3 == SparseMatrix(2, ({0: ONE}, {}))


class TestReports:
    def test_failing_report_reads_no_row_after_its_first(self):
        # row 0 survives; rows 2 and 3 fail too but the kernel reads them
        # only when the residual is requested
        x = SparseMatrix(4, ({1: Q}, {}, {0: ONE}, {3: Q - ONE}))
        y = x.identity_like()
        expected = product_sum(SparseMatrix(4), [(ONE, x, y)])
        reads = []
        den, rows = x.cleared()
        x._cleared = den, RecordingRows(rows, reads)
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
        den, rows = x.cleared()
        x._cleared = den, RecordingRows(rows, reads)
        y = SparseMatrix(3).identity_like()
        rep = RelationReport("f", (), "X - X = 0", SparseMatrix(3),
                             [(ONE, x, y), (-ONE, x, y)])
        assert rep.exact_zero and sorted(set(reads)) == [0, 1, 2]
        assert rep.residual == SparseMatrix(3)

    def test_worst_entry_of_zero_residual(self):
        rep = RelationReport("f", (1,), "x = 0", SparseMatrix(2))
        assert rep.exact_zero and rep.residual.nnz() == 0
        assert rep.worst_entry() == "0"
        assert "numeric_max_abs" not in rep.to_json()

    def test_worst_entry_names_position(self):
        # row 1 holds column 1 before column 0: the worst entry is at the
        # smaller column, not at the first one stored
        residual = SparseMatrix(2, ({}, {1: Q - ONE, 0: Q}))
        rep = RelationReport("f", (1, 2), "x = 0", SparseMatrix(2),
                             [(ONE, residual, residual.identity_like())])
        assert rep.exact_zero == (residual.nnz() == 0)
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
