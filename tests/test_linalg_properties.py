"""Property tests of ``linalg.rank`` and ``linalg.product_sum``.

``rank`` returns the count of the nonzero rows at once when their leading
columns are pairwise distinct (an echelon certificate) and runs Bareiss
elimination otherwise.  Both paths must agree with the rank over Q(q)
that sympy computes in the field of fractions.

``product_sum`` adds every product coeff * X[r, k] * Y[k, c] into an
unreduced numerator/denominator pair and reduces each entry once; it
must equal start + sum (X * Y).scale(coeff) formed with the matrix
operations, entry for entry in canonical form, with no stored zero.
A ``report.RelationReport`` reduces only the first surviving entry and
builds the residual when it is read; its exact-zero flag, worst entry and
residual must be those of the matrix-operations residual, read off with
its own ``is_zero`` and ``first_nonzero``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings, strategies as st  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from qclifford.fock import FockOperator, identity, zero  # noqa: E402
from qclifford.linalg import product_sum, rank  # noqa: E402
from qclifford.report import RelationReport  # noqa: E402
from qclifford.scalar import ONE, Q, ZERO, parse_rational, q_power  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None)

_q = sympy.Symbol("q")
_FIELD = sympy.QQ.frac_field(_q)

#: zero listed often, so rows come out sparse; explicit zero entries
#: must count as absent
PALETTE = (ZERO, ZERO, ZERO, ONE, -ONE, Q, q_power(-1), Q + ONE,
           parse_rational("q^2 - 1"), parse_rational("(1)/(q - 1)"),
           parse_rational("(2*q - 3)/(q^2 + 1)"))
entries = st.sampled_from(PALETTE)
nonzero_entries = st.sampled_from([v for v in PALETTE if not v.is_zero])


@st.composite
def row_sets(draw, max_rows=6):
    ncols = draw(st.integers(min_value=1, max_value=5))
    nrows = draw(st.integers(min_value=0, max_value=max_rows))
    rows = [{c: draw(entries) for c in range(ncols)
             if draw(st.booleans())} for _ in range(nrows)]
    return ncols, rows


def sympy_rank(ncols: int, rows) -> int:
    if not rows:
        return 0
    dense = [[_FIELD.from_sympy(sympy.sympify(str(row.get(c, ZERO))
                                              .replace("^", "**")))
              for c in range(ncols)] for row in rows]
    return DomainMatrix(dense, (len(rows), ncols), _FIELD).rank()


def combine(a: dict, b: dict, x, y) -> dict:
    """The row x*a + y*b."""
    return {c: x * a.get(c, ZERO) + y * b.get(c, ZERO) for c in {*a, *b}}


@SETTINGS
@given(row_sets())
def test_rank_matches_sympy(case):
    ncols, rows = case
    assert rank(rows) == sympy_rank(ncols, rows)


@SETTINGS
@given(row_sets(max_rows=4), st.data(), nonzero_entries, entries)
def test_rank_with_colliding_leads(case, data, x, y):
    ncols, rows = case
    nonempty = [i for i, row in enumerate(rows)
                if any(not v.is_zero for v in row.values())]
    hypothesis.assume(nonempty)
    i = data.draw(st.sampled_from(nonempty))
    j = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
    # the copy of row i repeats its lead, so the certificate cannot decide
    # and elimination must find both added rows in the span
    extended = rows + [combine(rows[i], rows[j], x, y), dict(rows[i])]
    expected = sympy_rank(ncols, rows)
    assert expected == sympy_rank(ncols, extended)
    assert rank(extended) == expected == rank(rows)


#: Laurent monomials and generic denominators, so that products of
#: entries meet over equal, monomial and non-monomial denominators
OPERATOR_PALETTE = (ONE, -ONE, Q, q_power(-1), -q_power(-2),
                    parse_rational("2*q^-3"), parse_rational("(q + 1)/(2*q)"),
                    parse_rational("(1)/(3*q^2)"), Q + ONE,
                    parse_rational("(1)/(2*q + 3)"),
                    parse_rational("(q^2 - 1)/(2*q + 3)"),
                    parse_rational("(q)/(q^2 + q + 1)"),
                    parse_rational("(3*q^2)/(q - 2)"))
COEFFICIENTS = (ZERO, ONE, -ONE, *OPERATOR_PALETTE[2:])


@st.composite
def operators(draw, n_modes):
    dim = 1 << n_modes
    cells = draw(st.lists(
        st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                  st.sampled_from(OPERATOR_PALETTE)), max_size=2 * dim))
    rows = [{} for _ in range(dim)]
    for r, c, v in cells:
        rows[r][c] = v
    return FockOperator(n_modes, rows)


@st.composite
def product_sums(draw):
    n_modes = draw(st.sampled_from((2, 3)))  # 4 x 4 or 8 x 8
    start = draw(st.sampled_from((zero(n_modes), -identity(n_modes))))
    terms = draw(st.lists(
        st.tuples(st.sampled_from(COEFFICIENTS), operators(n_modes),
                  operators(n_modes)), min_size=1, max_size=4))
    if draw(st.booleans()):
        # a term and its negative cancel to the exact zero entry by entry
        coeff, x, y = draw(st.sampled_from(terms))
        terms += [(-coeff, x, y)]
    return start, terms


def by_matrix_ops(start, terms):
    total = start
    for coeff, x, y in terms:
        total = total + (x * y).scale(coeff)
    return total


def assert_same_residual(got, expected):
    assert type(got) is type(expected)
    assert got == expected
    assert got.is_zero == expected.is_zero
    assert all(not v.is_zero for row in got.rows for v in row.values())


def _one_entry(value):
    return FockOperator(2, [{0: value}, {}, {}, {}])


#: two monomial denominators with coprime coefficients meet in entry (0, 0)
MONOMIAL_MEETING = (zero(2), [
    (ONE, _one_entry(parse_rational("(q + 1)/(2*q)")), identity(2)),
    (Q, _one_entry(parse_rational("(1)/(3*q^3)")), identity(2))])


@SETTINGS
@given(product_sums())
@example(MONOMIAL_MEETING)
def test_product_sum_matches_matrix_ops(case):
    start, terms = case
    assert_same_residual(product_sum(start, terms), by_matrix_ops(start, terms))


@SETTINGS
@given(st.sampled_from(COEFFICIENTS[1:]), operators(3), operators(3))
def test_product_sum_cancels_to_the_exact_zero(coeff, x, y):
    terms = [(coeff, x, y), (-coeff, x, y)]
    got = product_sum(zero(3), terms)
    assert_same_residual(got, by_matrix_ops(zero(3), terms))
    assert got.is_zero


@SETTINGS
@given(product_sums())
@example(MONOMIAL_MEETING)
def test_relation_report_matches_matrix_ops(case):
    start, terms = case
    expected = by_matrix_ops(start, terms)
    first = expected.first_nonzero()
    report = RelationReport("f", (), "", start, terms)
    assert report.exact_zero == expected.is_zero == (first is None)
    assert report.worst_entry() == ("0" if first is None
                                    else f"{first[2]} at ({first[0]}, {first[1]})")
    assert_same_residual(report.residual, expected)
    assert report.residual is report.residual
