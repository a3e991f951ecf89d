"""Property tests of the Poincare rank on ordered-monomial lead rows.

``deform._monomial_rows`` hands :func:`linalg.rank` one lead row per
ordered monomial, whose lead is read off its factors' supports, and the
rank reads a row's Fock rows only when leads collide.  On random small
generator sets, with zero generators, repeated and negated ones and
entries whose products cancel, the rank must equal the rank of the
monomials' full rows, built here by plain matrix products
(``oracles.word_to_operator``).  The same sets conjugated by a unit
triangular integer matrix have rows with several entries, whose products
can cancel; there each monomial's lead must be the lowest column of its
full row.  Sets whose generator rows have at most one entry each, as
both built-in sets do, have their leads read off supports composed as
lists; on random partial permutations with signed q-monomial entries and
planted repeated generators the rank must again equal the rank of the
full rows.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from qclifford import deform, fock  # noqa: E402
from qclifford.deform import (GeneratorSet, build_deforming_map,  # noqa: E402
                              poincare_rank)
from qclifford.linalg import SparseMatrix, rank  # noqa: E402
from qclifford.scalar import ONE, Q, q_power  # noqa: E402

from oracles import (conjugate_realization, full_rows,  # noqa: E402
                     word_to_operator)

#: entry values: unit and opposite entries make sums of products cancel
PALETTE = (ONE, -ONE, ONE, Q, -Q, q_power(-1), Q - ONE, ONE + ONE)


@st.composite
def generator_sets(draw):
    """N <= 3 creator/annihilator pairs: the deforming map's, with some
    generators replaced by zero, by a copy or the negative of another one,
    or by a sparse random matrix."""
    n = draw(st.integers(min_value=1, max_value=3))
    dim = 1 << n
    built = build_deforming_map(n)
    ops = [*built.creators, *built.annihilators]
    for k in draw(st.sets(st.integers(min_value=0, max_value=2 * n - 1))):
        kind = draw(st.sampled_from(("zero", "copy", "negative", "random")))
        if kind == "zero":
            ops[k] = fock.zero(n)
        elif kind in ("copy", "negative"):
            op = ops[draw(st.integers(min_value=0, max_value=2 * n - 1))]
            ops[k] = -op if kind == "negative" else op
        else:
            rows = [{} for _ in range(dim)]
            for _ in range(draw(st.integers(min_value=1, max_value=4))):
                r, c = (draw(st.integers(min_value=0, max_value=dim - 1))
                        for _ in range(2))
                rows[r][c] = draw(st.sampled_from(PALETTE))
            ops[k] = SparseMatrix(dim, rows)
    return GeneratorSet(ops[:n], ops[n:])


def plain_rows(gens: GeneratorSet) -> list[dict]:
    """Each ordered monomial as a plain matrix product, flattened to a row."""
    n, dim = gens.modes, 1 << gens.modes
    pairs = list(zip(gens.creators, gens.annihilators))
    return [{r * dim + c: v for r, c, v in word_to_operator(
                [*cre, *(-i for i in ann)], pairs).iter_entries()}
            for cre, ann in fock.ordered_monomials(n)]


@settings(max_examples=60, deadline=None)
@given(generator_sets())
def test_lazy_rank_equals_rank_of_full_rows(gens):
    rows = plain_rows(gens)
    assert full_rows(deform._monomial_rows(gens)) == rows
    assert poincare_rank(gens) == (rank(rows), 4 ** gens.modes)


@st.composite
def conjugated_sets(draw):
    """A set of :func:`generator_sets` conjugated by a unit upper or lower
    triangular integer matrix, so its generators' rows have several
    entries."""
    gens = draw(generator_sets())
    dim = 1 << gens.modes
    upper = draw(st.booleans())
    cell = st.sampled_from((ONE, -ONE, ONE + ONE, ONE - ONE))
    rows = [{r: ONE} for r in range(dim)]
    for r in range(dim):
        for c in (range(r + 1, dim) if upper else range(r)):
            value = draw(cell)
            if not value.is_zero:
                rows[r][c] = value
    return conjugate_realization(gens, SparseMatrix(dim, rows))


@settings(max_examples=40, deadline=None)
@given(conjugated_sets())
def test_lead_is_the_lowest_column_of_the_full_row(gens):
    rows = plain_rows(gens)
    lead_rows = list(deform._monomial_rows(gens))
    assert full_rows(lead_rows) == rows
    assert [row.lead() for row in lead_rows] == [min(row, default=None)
                                                 for row in rows]
    assert poincare_rank(gens) == (rank(rows), 4 ** gens.modes)


@st.composite
def single_entry_sets(draw):
    """N <= 3 pairs of partial permutation matrices with entries
    +-c q^k, with some generators replaced by a copy of another one, so
    that monomials repeat and leads collide."""
    n = draw(st.integers(min_value=1, max_value=3))
    dim = 1 << n
    ops = []
    for _ in range(2 * n):
        cols = draw(st.permutations(range(dim)))
        rows = [{} for _ in range(dim)]
        for r in draw(st.sets(st.integers(min_value=0, max_value=dim - 1),
                              min_size=1)):
            sign = draw(st.sampled_from((1, -1)))
            scale = draw(st.integers(min_value=1, max_value=3))
            power = draw(st.integers(min_value=-2, max_value=2))
            rows[r][cols[r]] = q_power(power) * (sign * scale)
        ops.append(SparseMatrix(dim, rows))
    for k in draw(st.sets(st.integers(min_value=0, max_value=2 * n - 1))):
        ops[k] = ops[draw(st.integers(min_value=0, max_value=2 * n - 1))]
    return GeneratorSet(ops[:n], ops[n:])


@settings(max_examples=60, deadline=None)
@given(single_entry_sets())
def test_support_rank_equals_rank_of_full_rows(gens):
    assert deform._supports(gens.all_generators()) is not None
    rows = plain_rows(gens)
    lead_rows = list(deform._monomial_rows(gens))
    assert full_rows(lead_rows) == rows
    assert [row.lead() for row in lead_rows] == [min(row, default=None)
                                                 for row in rows]
    assert poincare_rank(gens) == (rank(rows), 4 ** gens.modes)
