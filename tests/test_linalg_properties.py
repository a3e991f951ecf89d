"""Property tests of ``linalg.rank`` against sympy as an oracle.

``rank`` returns the count of the nonzero rows at once when their leading
columns are pairwise distinct (an echelon certificate) and runs Bareiss
elimination otherwise.  Both paths must agree with the rank over Q(q)
that sympy computes in the field of fractions.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from qclifford.linalg import rank  # noqa: E402
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
