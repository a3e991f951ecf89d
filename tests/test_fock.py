import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from qclifford.deform import GeneratorSet, poincare_rank, undeformed_set
from qclifford.fock import (build_generators, identity, number_op, q_exponent,
                            read_operator)
from qclifford.scalar import ONE, Q, ZERO, parse_rational, q_power

from oracles import NormalPolynomial, normal_form, word_to_operator


def car_residuals(n):
    """All anticommutator residuals of the canonical relations."""
    gens = build_generators(n)
    ident = identity(n)
    out = []
    for i, j in product(range(n), repeat=2):
        ai, adi = gens[i][1], gens[i][0]
        aj, adj = gens[j][1], gens[j][0]
        out.append(ai * aj + aj * ai)
        out.append(adi * adj + adj * adi)
        mixed = ai * adj + adj * ai
        out.append(mixed - ident if i == j else mixed)
    return out


class TestGenerators:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_car_exactly_zero(self, n):
        assert all(res.nnz() == 0 for res in car_residuals(n))

    def test_single_mode_matrix(self):
        creator = build_generators(1)[0][0]
        # single entry 1 at (occupied row, empty column)
        assert list(creator.iter_entries()) == [(1, 0, ONE)]

    def test_two_mode_antisymmetry(self):
        gens = build_generators(2)
        a1, a2 = gens[0][1], gens[1][1]
        assert a1 * a2 == -(a2 * a1)

    def test_annihilator_is_transpose(self):
        for creator, annihilator in build_generators(3):
            assert creator.transpose() == annihilator

    def test_range_guard(self):
        with pytest.raises(ValueError):
            build_generators(0)
        with pytest.raises(ValueError):
            build_generators(13)


class TestNumberOperator:
    def test_idempotent(self):
        for i in (1, 2, 3):
            n_i = number_op(3, i)
            assert n_i * n_i == n_i

    def test_matches_creator_annihilator_product(self):
        gens = build_generators(3)
        for i in (1, 2, 3):
            assert number_op(3, i) == gens[i - 1][0] * gens[i - 1][1]

    def test_vacuum_is_empty(self):
        n_1 = number_op(2, 1)
        assert [n_1.get(r, 0) for r in range(4)] == [ZERO] * 4

    def test_trace_counts_half_the_states(self):
        for n in (1, 2, 3):
            for i in range(1, n + 1):
                expected = parse_rational(str(2 ** (n - 1)))
                op = number_op(n, i)
                diagonal = [op.get(r, r) for r in range(op.dim)]
                assert sum(diagonal, ZERO) == expected

    def test_index_guard(self):
        with pytest.raises(ValueError):
            number_op(2, 3)


class TestQExponent:
    def test_zero_weights_give_identity(self):
        assert q_exponent((0, 0)) == identity(2)

    def test_matches_idempotency_expansion(self):
        # q^(-n_2) = 1 + (q^-1 - 1) n_2 as an exact matrix identity
        lhs = q_exponent((0, -1))
        rhs = identity(2) + number_op(2, 2).scale(q_power(-1) - ONE)
        assert lhs == rhs

    def test_inverse_weights(self):
        w = (2, -1, 3)
        assert q_exponent(w) * q_exponent(tuple(-x for x in w)) == identity(3)

    def test_diagonal_entries_are_pure_powers(self):
        op = q_exponent((1, -1))
        assert op.get(0, 0) == ONE          # vacuum
        assert op.get(2, 2) == Q            # mode 1 occupied (most significant)
        assert op.get(1, 1) == q_power(-1)  # mode 2 occupied
        assert op.get(3, 3) == ONE          # both occupied


class TestStar:
    """At real q the star involution is the plain transpose."""

    def test_star_swaps_creator_annihilator(self):
        for creator, annihilator in build_generators(2):
            assert annihilator.transpose() == creator

    def test_involution(self):
        gens = build_generators(2)
        x = gens[0][0] * gens[1][1] + gens[1][0].scale(Q)
        assert x.transpose().transpose() == x

    def test_antihomomorphism_on_random_words(self):
        rng = random.Random(4242)
        gens = build_generators(2)
        flat = [op for pair in gens for op in pair]
        for _ in range(15):
            x, y = rng.choice(flat), rng.choice(flat)
            assert (x * y).transpose() == y.transpose() * x.transpose()


class TestNormalForm:
    def test_single_car_move(self):
        # a^1 adag_1 = 1 - adag_1 a^1
        poly = normal_form([-1, +1], 2)
        assert poly.terms == {((), ()): ONE, ((1,), (1,)): -ONE}

    def test_nilpotency(self):
        assert normal_form([+1, +1], 2).terms == {}
        assert normal_form([-2, -2], 2).terms == {}

    def test_matrix_oracle_on_spec_word(self):
        # a^2 adag_1 a^1 adag_2 expanded back agrees with the matrix product
        gens = build_generators(2)
        word = [-2, +1, -1, +2]
        poly = normal_form(word, 2)
        assert poly.to_operator(gens) == word_to_operator(word, gens)

    def test_idempotent_on_ordered_monomials(self):
        poly = normal_form([+1, +2, -1, -2], 2)
        assert poly.terms == {((1, 2), (1, 2)): ONE}

    def test_matrix_oracle_on_random_words(self):
        rng = random.Random(31337)
        gens = build_generators(3)
        symbols = [s for i in (1, 2, 3) for s in (i, -i)]
        for _ in range(25):
            word = [rng.choice(symbols) for _ in range(rng.randint(1, 6))]
            poly = normal_form(word, 3)
            assert poly.to_operator(gens) == word_to_operator(word, gens)

    def test_symbol_validation(self):
        with pytest.raises(ValueError):
            normal_form([3], 2)
        with pytest.raises(ValueError):
            NormalPolynomial(2, {((2, 1), ()): ONE})


class TestFaithfulness:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ordered_monomials_linearly_independent(self, n):
        rank, expected = poincare_rank(undeformed_set(n))
        assert rank == expected == 4 ** n


class TestSerialization:
    def test_json_round_trip(self):
        op = q_exponent((1, -2)) * build_generators(2)[0][0]
        gens = GeneratorSet([op, op.scale(Q)], [op.transpose(), op])
        doc = gens.to_json()
        assert doc["creators"][0]["dim"] == 4
        assert read_operator(doc["creators"][0], "operator") == op
        again = GeneratorSet.from_json(doc)
        assert again.creators == gens.creators
        assert again.annihilators == gens.annihilators

    def test_dim_mismatch_rejected(self):
        doc = {"n_modes": 2, "dim": 5, "entries": []}
        with pytest.raises(ValueError, match="^operator: dim field does not "
                                             "match n_modes$"):
            read_operator(doc, "operator")

    @pytest.mark.parametrize("r, c", [(0, -1), (-1, 0), (4, 0), (0, 4)])
    def test_out_of_range_index_rejected(self, r, c):
        doc = {"n_modes": 2, "dim": 4, "entries": [[r, c, "q"]]}
        with pytest.raises(ValueError, match=rf"entry \[{r}, {c}, 'q'\]"):
            read_operator(doc, "operator")

    @pytest.mark.parametrize("n_modes", [0, -1, 13, 10 ** 9])
    def test_mode_count_guarded_before_allocating(self, n_modes):
        doc = {"n_modes": n_modes, "entries": []}
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dimension guard"):
                read_operator(doc, "operator")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_subst_gives_constant_entries(self):
        op = q_exponent((0, -1)).subst(Fraction(2))
        assert op.get(1, 1) == parse_rational("(1)/(2)")
