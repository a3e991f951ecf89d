"""Property tests of the Poincare rank on lazy ordered-monomial rows.

``deform._monomial_rows`` hands :func:`linalg.rank` one generator of Fock
rows per ordered monomial, and the rank reads each only up to its first
nonzero row unless leads collide.  On random small generator sets, with
zero generators, repeated and negated ones and entries whose products
cancel, the rank must equal the rank of the monomials' full rows, built
here by plain matrix products (``oracles.word_to_operator``).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from qclifford import deform, fock  # noqa: E402
from qclifford.deform import (GeneratorSet, build_deforming_map,  # noqa: E402
                              poincare_rank)
from qclifford.linalg import SparseMatrix, rank  # noqa: E402
from qclifford.scalar import ONE, Q, q_power  # noqa: E402

from oracles import full_rows, word_to_operator  # noqa: E402

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
