"""Property tests of the ``linalg`` elimination and ``linalg.product_sum``.

``rank``, ``rank_numeric`` and ``invert_dense`` share one sparse forward
elimination over a field.  A row whose leading column is new is kept with
no arithmetic, so rows with pairwise distinct leads (an echelon
certificate) are only counted, and colliding leads are eliminated.  Each
entry point is checked against sympy: ``rank`` against the rank over Q(q)
in the field of fractions, with and without colliding leads;
``rank_numeric`` against the rank over Q on Fraction rows with planted
dependencies; ``invert_dense`` against sympy's inverse over Q(q), and its
singular verdict against a zero determinant, on SparseMatrix and RMatrix
inputs, each of which comes back as its own class.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from fractions import Fraction  # noqa: E402

from hypothesis import example, given, settings, strategies as st  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from qclifford.fock import identity, zero  # noqa: E402
from qclifford.linalg import (SparseMatrix, invert_dense,  # noqa: E402
                              product_sum, rank, rank_numeric)
from qclifford.report import RelationReport  # noqa: E402
from qclifford.rmatrix import RMatrix  # noqa: E402
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


def field_matrix(ncols: int, rows) -> DomainMatrix:
    """The rows as a sympy matrix over the field of fractions Q(q)."""
    dense = [[_FIELD.from_sympy(sympy.sympify(str(row.get(c, ZERO))
                                              .replace("^", "**")))
              for c in range(ncols)] for row in rows]
    return DomainMatrix(dense, (len(rows), ncols), _FIELD)


def sympy_rank(ncols: int, rows) -> int:
    return field_matrix(ncols, rows).rank() if rows else 0


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


#: ints and Fractions, zero listed often; explicit zeros count as absent
NUMBERS = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3))
numbers = st.sampled_from(NUMBERS)
nonzero_numbers = st.sampled_from([v for v in NUMBERS if v])


@st.composite
def planted_fraction_rows(draw):
    """(ncols, base rows, base rows with dependent rows planted among them)."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    nrows = draw(st.integers(min_value=1, max_value=6))
    rows = [{c: draw(numbers) for c in range(ncols) if draw(st.booleans())}
            for _ in range(nrows)]
    planted = list(rows)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        a, b = (draw(st.sampled_from(rows)) for _ in range(2))
        x, y = draw(nonzero_numbers), draw(nonzero_numbers)
        planted.append({c: x * a.get(c, 0) + y * b.get(c, 0)
                        for c in {*a, *b}})
    return ncols, rows, draw(st.permutations(planted))


def rational_rank(ncols: int, rows) -> int:
    dense = [[sympy.QQ(Fraction(row.get(c, 0)).numerator,
                       Fraction(row.get(c, 0)).denominator)
              for c in range(ncols)] for row in rows]
    return DomainMatrix(dense, (len(rows), ncols), sympy.QQ).rank()


@SETTINGS
@given(planted_fraction_rows())
def test_rank_numeric_matches_sympy(case):
    ncols, rows, planted = case
    expected = rational_rank(ncols, rows)
    assert rational_rank(ncols, planted) == expected
    assert rank_numeric(planted) == expected == rank_numeric(rows)


@st.composite
def square_matrices(draw):
    """A SparseMatrix of dimension 1..4 or an RMatrix of block dimension
    1 or 2 over the palette; one row may be planted as a multiple of
    another, which makes the matrix singular."""
    n = draw(st.sampled_from((None, 1, 2)))
    dim = draw(st.integers(min_value=1, max_value=4)) if n is None else n * n
    rows = [{c: draw(entries) for c in range(dim)} for _ in range(dim)]
    if dim > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(dim)))[:2]
        x = draw(nonzero_entries)
        rows[i] = {c: x * v for c, v in rows[j].items()}
    rows = [{c: v for c, v in row.items() if not v.is_zero} for row in rows]
    return SparseMatrix(dim, rows) if n is None else RMatrix(n, rows)


#: a braid-shaped matrix whose second and third rows are equal
SINGULAR_BLOCKS = RMatrix(2, [{0: Q}, {1: ONE, 2: ONE}, {1: ONE, 2: ONE},
                              {3: Q}])


@SETTINGS
@given(square_matrices())
@example(SINGULAR_BLOCKS)
def test_invert_dense_matches_sympy(matrix):
    expected = field_matrix(matrix.dim, matrix.rows)
    if expected.det() == _FIELD.zero:
        with pytest.raises(ValueError, match="matrix is singular"):
            invert_dense(matrix)
        return
    inverse = invert_dense(matrix)
    assert type(inverse) is type(matrix) and inverse.dim == matrix.dim
    if isinstance(matrix, RMatrix):
        assert inverse.n == matrix.n
    got = field_matrix(inverse.dim, inverse.rows)
    assert got.to_list() == expected.inv().to_list()
    assert all(not v.is_zero for row in inverse.rows for v in row.values())


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
    return SparseMatrix(dim, rows)


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
    return SparseMatrix(4, [{0: value}, {}, {}, {}])


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
