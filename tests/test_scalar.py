import builtins
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from qclifford import scalar
from qclifford.scalar import (ONE, PoleError, Poly, Q, RationalFunction, ZERO,
                              parse_rational, q_number, q_power)

from oracles import gamma_ratio


def rf(text):
    return parse_rational(text)


class TestNormalization:
    def test_common_factor_cancellation(self):
        assert RationalFunction(Poly((-1, 0, 1)), Poly((-1, 1))) == rf("q + 1")

    def test_zero_normalizes_to_zero_over_one(self):
        f = RationalFunction(Poly(), Poly((0, 1)))
        assert f.num.is_zero and f.den.coeffs == (1,)

    def test_sign_canonicalization(self):
        f = RationalFunction(Poly((0, -1)), Poly((-1,)))
        assert f == Q
        assert f.den.lc > 0

    def test_integer_content_reduced(self):
        f = RationalFunction(Poly((2, 2)), Poly((4,)))
        assert str(f) == "(q + 1)/(2)"

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError, match="division by zero polynomial"):
            RationalFunction(Poly((1,)), Poly())


class TestFieldOperations:
    def test_negative_powers(self):
        assert q_power(-1) == ONE / Q
        assert q_power(-2) * Q ** 2 == ONE

    def test_field_axioms_on_random_inputs(self):
        rng = random.Random(12345)

        def random_rf():
            num = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
            den = Poly()
            while den.is_zero:
                den = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
            return RationalFunction(num, den)

        for _ in range(50):
            a, b, c = random_rf(), random_rf(), random_rf()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a - a == ZERO
            if not a.is_zero:
                assert a * (ONE / a) == ONE
                assert (a * b) / a == b

    def test_mixed_integer_and_fraction_operands(self):
        # an int operand is coerced on either side of + and *, and on the
        # right of - and /; a Fraction is never
        assert 2 * Q + 1 == rf("2*q + 1")
        assert Q - 1 == rf("q - 1") and Q / 2 == rf("(q)/(2)")
        for operation in (lambda: Q - Fraction(1, 2), lambda: 1 - Q,
                          lambda: 1 / Q):
            with pytest.raises(TypeError):
                operation()


class TestQCombinatorics:
    def test_q_number_trivial_values(self):
        qq = Q * Q
        assert q_number(0, qq) == ZERO
        assert q_number(1, qq) == ONE

    def test_q_number_geometric_sum(self):
        # independent oracle: sum the geometric series explicitly
        qq = Q * Q
        expected = ONE + qq + qq * qq
        assert q_number(3, qq) == expected
        assert q_number(3, qq) == rf("q^4 + q^2 + 1")

    def test_q_number_rejects_negative(self):
        with pytest.raises(ValueError):
            q_number(-1, Q)

    def test_q_number_at_base_one_is_the_integer(self):
        assert q_number(4, ONE) == rf("4")

    def test_gamma_ratio_small_values(self):
        assert gamma_ratio(0) == ONE
        assert gamma_ratio(1) == ONE
        # 2! / [(1)_{q^2} (2)_{q^2}] with (2)_{q^2} = 1 + q^2
        assert gamma_ratio(2) == rf("(2)/(q^2 + 1)")

    def test_gamma_ratio_classical_limit(self):
        for m in range(9):
            assert gamma_ratio(m).eval_at(Fraction(1)) == 1

    def test_gamma_ratio_rejects_negative(self):
        with pytest.raises(ValueError):
            gamma_ratio(-1)


class TestEvaluation:
    def test_exact_rational_point(self):
        f = Q + q_power(-1)
        assert f.eval_at(Fraction(1)) == 2
        assert f.eval_at(Fraction(13, 10)) == Fraction(13, 10) + Fraction(10, 13)

    def test_complex_point_root_of_numerator(self):
        f = Q + q_power(-1)  # (q^2 + 1)/q vanishes at q = i
        assert f.eval_at(1j) == 0

    def test_pole_names_denominator(self):
        f = ONE / (Q * Q + 1)
        with pytest.raises(PoleError, match=r"q\^2 \+ 1"):
            f.eval_at(1j)

    def test_gamma_ratio_classical_spot(self):
        assert gamma_ratio(2).eval_at(Fraction(1)) == 1

    def test_eval_commutes_with_field_ops(self):
        rng = random.Random(777)
        for _ in range(20):
            a = RationalFunction(Poly([rng.randint(-3, 3) for _ in range(3)]),
                                 Poly((1, 1)))
            b = RationalFunction(Poly([rng.randint(-3, 3) for _ in range(3)]),
                                 Poly((2, 0, 1)))
            x = rng.uniform(0.5, 2.0)
            assert abs((a + b).eval_at(x) - (a.eval_at(x) + b.eval_at(x))) < 1e-12
            assert abs((a * b).eval_at(x) - a.eval_at(x) * b.eval_at(x)) < 1e-12


class TestTextForm:
    def test_fixed_grammar_examples(self):
        assert str(rf("(q^2 - 1)/(q + 1)")) == "q - 1"
        assert str(Q - q_power(-1)) == "(q^2 - 1)/(q)"
        assert str(q_power(-1)) == "(1)/(q)"
        assert str(ZERO) == "0"

    def test_negative_exponent_convenience(self):
        assert rf("q^-2 - 1") == q_power(-2) - ONE

    def test_round_trip_on_random_values(self):
        rng = random.Random(999)
        for _ in range(40):
            num = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
            den = Poly()
            while den.is_zero:
                den = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
            f = RationalFunction(num, den)
            assert parse_rational(str(f)) == f

    def test_malformed_input_rejected(self):
        for bad in ("", "q +", "q q", "(q", "1//2", "q^^2"):
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_exponent_span_bounded_before_allocating(self):
        assert rf("q^10000") == q_power(10000)
        tracemalloc.start()
        try:
            for bad in ("q^10001", "q^-5001 + q^5000", "q^1000000000",
                        "(1)/(q^-1000000000)"):
                with pytest.raises(ValueError, match="span more than 10000"):
                    parse_rational(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_parse_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("(q)/(0)")


class TestDigitRuns:
    """A digit run is measured before int() converts it, so a long run
    never reaches Python's own limit on int() from text."""

    def test_long_coefficient_refused_unconverted(self, int_never_called):
        text = "1" * 5000 + "*q + 1"
        with pytest.raises(ValueError, match=re.escape(
                f"could not parse {text!r}: a coefficient of 5000 digits "
                f"exceeds {scalar.MAX_INT_DIGITS}")):
            parse_rational(text)

    def test_long_exponent_refused_unconverted(self, int_never_called):
        for text in ("q^" + "1" * 5000, "q^-" + "9" * 5000 + " + q"):
            with pytest.raises(ValueError, match="span more than 10000"):
                parse_rational(text)

    def test_zero_padded_exponent(self):
        assert rf("q^" + "0" * 5000 + "2") == q_power(2)
        assert rf("q^-" + "0" * 5000 + "2") == q_power(-2)
        assert rf("q^" + "0" * 5000) == ONE

    def test_zero_padded_coefficient(self):
        assert rf("0" * 5000 + "7*q") == 7 * Q
        assert rf("0" * 5000 + " + q") == Q

    @pytest.mark.parametrize("text", [
        "{run} + {run}", "{run}*q + {run}*q - 1", "({run} + {run})/(q + 1)",
        "q/({run}*q + {run}*q + 1)"])
    def test_summed_coefficient_refused_before_str(self, monkeypatch, text):
        # each run has the largest digit count a run may have; the value's
        # coefficient 2 * run has one digit more, and str() is never reached
        text = text.format(run="9" * scalar.MAX_INT_DIGITS)

        def refuse(value=""):
            if isinstance(value, int) and abs(value) >= 10 ** 4300:
                raise AssertionError("str() was called on the long value")
            return builtins.str(value)

        monkeypatch.setattr(scalar, "str", refuse, raising=False)
        with pytest.raises(ValueError, match=re.escape(
                f"its value has a coefficient of more than "
                f"{scalar.MAX_INT_DIGITS} digits")):
            parse_rational(text)

    def test_summed_coefficient_at_the_bound_is_kept(self):
        run = "4" * scalar.MAX_INT_DIGITS
        assert rf(f"{run} + {run}").num.coeffs == (2 * int(run),)
        assert len(str(rf(f"{run} + {run}"))) == scalar.MAX_INT_DIGITS

    @pytest.mark.parametrize("coeffs", [(0, -1), (1, -1, 0, 1), (1, 1)])
    def test_computed_coefficient_past_the_bound_is_not_printed(
            self, monkeypatch, coeffs):
        # a product of two parsed values at the bound has 8600 digits
        run = rf("9" * scalar.MAX_INT_DIGITS).num.coeffs[0]
        value = Poly([c * run * run for c in coeffs])

        def refuse(value=""):
            if isinstance(value, int) and abs(value) >= 10 ** 4300:
                raise AssertionError("str() was called on the long value")
            return builtins.str(value)

        monkeypatch.setattr(scalar, "str", refuse, raising=False)
        message = re.escape(f"cannot print a computed value: it has a "
                            f"coefficient of more than "
                            f"{scalar.MAX_INT_DIGITS} digits")
        with pytest.raises(ValueError, match=message):
            str(value)
        with pytest.raises(ValueError, match=message):
            str(RationalFunction(ONE.num, value))

    def test_coefficient_bound_is_inclusive(self):
        run = "9" * scalar.MAX_INT_DIGITS
        assert rf(run).num.coeffs == (int(run),)
        with pytest.raises(ValueError, match="a coefficient of 4301 digits"):
            rf("9" + run)


#: accepted corners of the text grammar, with their values
ACCEPTED = [
    ("2*", RationalFunction(Poly((2,)))),
    ("2q", RationalFunction(Poly((0, 2)))),
    ("2 * q", RationalFunction(Poly((0, 2)))),
    ("--q", Q),
    ("+-+q", -Q),
    ("- - 3", RationalFunction(Poly((3,)))),
    ("q ^ - 2", q_power(-2)),
    ("q^0", ONE),
    ("q - q", ZERO),
    ("\t( (q + 1) )\n", Q + ONE),
    ("((q))/(((2)))", Q / 2),
    (" ( q^2 - 1 ) / ( q + 1 ) ", Q - ONE),
    ("q^-2 - 1", q_power(-2) - ONE),
]

#: rejected corners of the text grammar, with their exception classes
REJECTED = [
    ("(q)+(1)", ValueError),
    ("((q)/(1))", ValueError),
    ("(1/2)", ValueError),
    ("q^+2", ValueError),
    ("q^--2", ValueError),
    ("q^", ValueError),
    ("1//2", ValueError),
    ("1/2/3", ValueError),
    ("*q", ValueError),
    ("2 3", ValueError),
    ("q q", ValueError),
    ("q +", ValueError),
    ("()", ValueError),
    ("1/", ValueError),
    ("x", ValueError),
    ("1/0", ZeroDivisionError),
    ("0/(q - q)", ZeroDivisionError),
]


class TestGrammar:
    @pytest.mark.parametrize("text, value", ACCEPTED,
                             ids=[text for text, _ in ACCEPTED])
    def test_accepted(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text, error", REJECTED,
                             ids=[text for text, _ in REJECTED])
    def test_rejected(self, text, error):
        with pytest.raises(error) as info:
            parse_rational(text)
        assert type(info.value) is error

    @pytest.mark.parametrize("text, side", [
        ("q^^2", "q^^2"), ("(q)/(2q q)", "(2q q)"),
        ("(q^20000)/(1)", "(q^20000)"), ("q/(q - q)", "(q - q)")])
    def test_message_quotes_the_failing_side(self, text, side):
        with pytest.raises((ValueError, ZeroDivisionError),
                           match=re.escape(repr(side))):
            parse_rational(text)

    def test_outer_parentheses_are_stripped_in_linear_time(self):
        # each outer pair costs index arithmetic, not a copy of the side
        pairs = 400_000
        started = time.perf_counter()
        value = parse_rational("(" * pairs + " q " + ")" * pairs)
        assert time.perf_counter() - started < 1.0
        assert value == Q
