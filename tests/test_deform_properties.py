"""Property tests of the Poincare rank on the ordered-monomial rows.

``deform._monomial_rows`` hands :func:`linalg.rank` one row per ordered
monomial.  When every generator row has at most one entry and no two
monomials share a lead, each row is its bare lead, a plain int read off
its factors' supports, or {} for a zero monomial; otherwise each row is
the monomial's full dict row.  On random small generator sets, with zero
generators, repeated and negated ones and entries whose products cancel,
the rank must equal the rank of the monomials' plain rows, built here by
plain matrix products (``oracles.plain_rows``), and each bare lead must
be its plain row's lowest column.  The same sets conjugated by a unit
triangular integer matrix have rows with several entries, whose products
can cancel; they hand over their full dict rows, and their rank is
checked against a rank modulo a prime at random points, computed on
plain ints (``oracles.modular_rank``).  Sets whose generator rows have at
most one entry each, as both built-in sets do, are drawn as random
partial permutations with signed q-monomial entries and planted repeated
generators; a spy on the Fock-row product shows that a repeated lead,
and only a repeated lead, sends them to the dict rows.  Their rank is
compared only when the leads are distinct: with a repeated lead, an
exact elimination over Q(q) of such rows, with coefficients 2 and 3 on
full permutations, can run for minutes at N = 3.

The star report is compared with the residual formed by matrix
subtraction (``oracles.star_by_subtraction``) on the deforming map with
each mode's creator and annihilator rescaled by random Laurent
monomials, equal ones where the mode keeps its star.
"""

from collections import Counter
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from qclifford import deform, fock  # noqa: E402
from qclifford.deform import (GeneratorSet, build_deforming_map,  # noqa: E402
                              poincare_rank, star_compatibility)
from qclifford.linalg import SparseMatrix, rank  # noqa: E402
from qclifford.scalar import ONE, Q, q_power  # noqa: E402

from oracles import (conjugate_realization, modular_rank,  # noqa: E402
                     plain_rows, star_by_subtraction)

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


def check_monomial_rows(gens: GeneratorSet, rows: list[dict]) -> bool:
    """Check the rows of ``deform._monomial_rows`` against the plain rows,
    and return whether they were bare leads: then each int is its plain
    row's lowest column and each zero monomial is {}; otherwise every row
    is its plain row."""
    handed = list(deform._monomial_rows(gens))
    bare = any(type(row) is int for row in handed)
    if bare:
        assert [row if type(row) is int else min(row, default=None)
                for row in handed] == [min(row, default=None) for row in rows]
        assert all(type(row) is int or row == {} for row in handed)
    else:
        assert handed == rows
    return bare


def leads_repeat(rows: list[dict]) -> bool:
    """Whether two nonzero plain rows share their lowest column."""
    return max(Counter(min(row) for row in rows if row).values(),
               default=0) > 1


@settings(max_examples=60, deadline=None)
@given(generator_sets())
def test_lazy_rank_equals_rank_of_full_rows(gens):
    rows = plain_rows(gens)
    check_monomial_rows(gens, rows)
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
def test_multi_entry_sets_hand_over_dict_rows(gens):
    rows = plain_rows(gens)
    if deform._supports(gens.all_generators()) is None:
        assert list(deform._monomial_rows(gens)) == rows
    else:
        check_monomial_rows(gens, rows)
    assert poincare_rank(gens) == (modular_rank(rows), 4 ** gens.modes)


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
def test_bare_leads_give_the_rank_of_the_plain_rows(gens):
    assert deform._supports(gens.all_generators()) is not None
    rows = plain_rows(gens)
    repeat = leads_repeat(rows)
    with mock.patch.object(deform, "row_product",
                           wraps=deform.row_product) as spy:
        bare = check_monomial_rows(gens, rows)
    # a repeated lead, and only one, sends the set to the dict rows,
    # which the Fock-row product forms
    assert bare is not repeat and spy.called is repeat
    if bare:
        # distinct leads: both ranks are counts, with no elimination
        assert poincare_rank(gens) == (rank(rows), 4 ** gens.modes)


MAPS = {n: build_deforming_map(n) for n in range(1, 5)}

#: Laurent monomials c q^k
MONOMIALS = st.builds(lambda c, k: q_power(k) * c,
                      st.sampled_from((1, -1, 2, -3)),
                      st.integers(min_value=-3, max_value=3))


@st.composite
def star_rescalings(draw):
    """The deforming map at N <= 4 with mode i's creator times a Laurent
    monomial s_i and its annihilator times t_i: t_i = s_i keeps the
    mode's star, another monomial breaks it."""
    built = MAPS[draw(st.integers(min_value=1, max_value=4))]
    creators, annihilators = [], []
    for cre, ann in zip(built.creators, built.annihilators):
        s = draw(MONOMIALS)
        t = s if draw(st.booleans()) else draw(MONOMIALS)
        creators.append(cre.scale(s))
        annihilators.append(ann.scale(t))
    return GeneratorSet(creators, annihilators)


@settings(max_examples=60, deadline=None)
@given(star_rescalings())
def test_star_report_equals_the_subtraction_oracle(gens):
    report = star_compatibility(gens)
    expected = star_by_subtraction(gens)
    first = expected.first_nonzero()
    assert report.exact_zero == (first is None)
    assert report.worst_entry() == ("0" if first is None else
                                    f"{first[2]} at ({first[0]}, {first[1]})")
    assert report.residual == expected
