"""Property tests of the scalar fast paths against sympy as an oracle.

``Poly.gcd`` answers a monomial argument without the remainder sequence,
``Poly.div_exact`` divides in integers only, ``Poly.__mul__`` scales or
shifts by a constant or monomial operand, the ``RationalFunction``
product of two quotients of monomials takes one integer gcd and no
``Poly.gcd``, negation of a ``RationalFunction`` takes no gcd, and
``RationalFunction`` addition and multiplication hand back an existing
value when an operand is zero.  Each
must agree with the general definition on every input.  The truth value
of a ``RationalFunction`` is false exactly for zero, as for a Fraction.
Random ``RationalFunction`` values also survive the text round trip and
satisfy the field axioms, with equality meaning equal canonical forms.
Text drawn term by term (sign runs, optional coefficients and ``*``,
exponents, whitespace, redundant parentheses, an optional denominator)
parses to the value summed from the same terms.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from qclifford.scalar import (ONE, ZERO, Poly, RationalFunction,  # noqa: E402
                              parse_rational, q_power)

SETTINGS = settings(max_examples=200, deadline=None)
FIELD_SETTINGS = settings(max_examples=100, deadline=None)

coefficient = st.integers(min_value=-30, max_value=30)
polys = st.lists(coefficient, max_size=7).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
monomials = st.builds(
    lambda c, k: Poly((0,) * k + (c,)),
    coefficient.filter(bool), st.integers(min_value=0, max_value=6))
rationals = st.builds(RationalFunction, polys, nonzero_polys)

_q = sympy.Symbol("q")


def to_sympy(p: Poly):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], _q, domain="ZZ")


def from_sympy(p) -> Poly:
    return Poly(tuple(int(c) for c in reversed(p.all_coeffs())))


def sympy_gcd(a: Poly, b: Poly) -> Poly:
    g = from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)))
    return -g if g.lc < 0 else g


class TestGcd:
    @SETTINGS
    @given(monomials, polys)
    def test_monomial_against_general(self, m, f):
        assert Poly.gcd(m, f) == sympy_gcd(m, f)
        assert Poly.gcd(f, m) == sympy_gcd(m, f)

    @SETTINGS
    @given(polys, polys)
    def test_general_pairs(self, a, b):
        assert Poly.gcd(a, b) == sympy_gcd(a, b)

    @SETTINGS
    @given(polys, polys, nonzero_polys)
    def test_common_factor_found(self, a, b, common):
        g = Poly.gcd(a * common, b * common)
        assert g == sympy_gcd(a * common, b * common)


def schoolbook_product(a: Poly, b: Poly) -> Poly:
    """The product by the double loop over both coefficient tuples."""
    out = [0] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Poly(out)


wide_coefficient = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
mul_operands = st.one_of(
    st.just(Poly()),
    st.sampled_from([Poly((1,)), Poly((-1,))]),
    wide_coefficient.filter(bool).map(Poly.const),
    st.builds(lambda c, k: Poly((0,) * k + (c,)),
              wide_coefficient.filter(bool),
              st.integers(min_value=0, max_value=40)),
    st.lists(wide_coefficient, max_size=9).map(Poly))


class TestMul:
    @SETTINGS
    @given(mul_operands, mul_operands)
    def test_against_schoolbook(self, a, b):
        expected = schoolbook_product(a, b)
        for got in (a * b, b * a):
            assert got == expected
            assert not got.coeffs or got.coeffs[-1] != 0

    @SETTINGS
    @given(mul_operands, wide_coefficient)
    def test_integer_operand(self, a, c):
        assert a * c == schoolbook_product(a, Poly.const(c))


class TestDivExact:
    @SETTINGS
    @given(polys, nonzero_polys)
    def test_product_divides_back(self, a, b):
        assert (a * b).div_exact(b) == a

    @SETTINGS
    @given(polys, nonzero_polys)
    def test_raises_exactly_when_not_divisible(self, a, b):
        quot, rem = to_sympy(a).to_field().div(to_sympy(b).to_field())
        divisible = rem.is_zero and all(sympy.Rational(c).q == 1
                                        for c in quot.all_coeffs())
        if divisible:
            assert a.div_exact(b) == from_sympy(quot)
        else:
            with pytest.raises(ValueError, match="does not divide"):
                a.div_exact(b)

    @SETTINGS
    @given(polys, nonzero_polys, nonzero_polys)
    def test_near_multiples_rejected(self, a, b, r):
        # a*b + r with deg r < deg b is divisible by b only when r is zero
        low = Poly(r.coeffs[:b.degree])
        if low.is_zero:
            return
        with pytest.raises(ValueError, match="does not divide"):
            (a * b + low).div_exact(b)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError, match="division by zero polynomial"):
            Poly((1, 2)).div_exact(Poly())


def canonical_zero():
    return RationalFunction(Poly())


def assert_same_value(got: RationalFunction, fresh: RationalFunction):
    assert (got.num.coeffs, got.den.coeffs) == (fresh.num.coeffs, fresh.den.coeffs)


class TestZeroShortcuts:
    @SETTINGS
    @given(rationals)
    def test_add_zero(self, x):
        z = canonical_zero()
        fresh = RationalFunction(x.num * z.den + z.num * x.den, x.den * z.den)
        assert_same_value(x + z, fresh)
        assert_same_value(z + x, fresh)
        assert_same_value(x + 0, fresh)
        assert_same_value(0 + x, fresh)

    @SETTINGS
    @given(rationals)
    def test_mul_zero(self, x):
        z = canonical_zero()
        fresh = RationalFunction(x.num * z.num, x.den * z.den)
        assert_same_value(x * z, fresh)
        assert_same_value(z * x, fresh)
        assert_same_value(x * 0, fresh)
        assert_same_value(0 * x, fresh)
        assert fresh.den.coeffs == (1,)


nonzero_rationals = rationals.filter(lambda x: not x.is_zero)

#: quotients of monomials c*q^k / d*q^j, with signs, integer content and
#: zero exponents on either side
laurent_monomials = st.builds(
    lambda c, k, d, j: RationalFunction(Poly((0,) * k + (c,)),
                                        Poly((0,) * j + (d,))),
    coefficient.filter(bool), st.integers(min_value=0, max_value=4),
    coefficient.filter(bool), st.integers(min_value=0, max_value=4))


class TestMonomialProduct:
    @SETTINGS
    @given(laurent_monomials, laurent_monomials)
    def test_equals_the_reduced_product(self, x, y):
        assert_same_value(x * y, RationalFunction(x.num * y.num,
                                                  x.den * y.den))

    @SETTINGS
    @given(st.one_of(laurent_monomials, rationals),
           st.one_of(laurent_monomials, rationals))
    def test_other_operands_fall_through(self, x, y):
        assert_same_value(x * y, RationalFunction(x.num * y.num,
                                                  x.den * y.den))

    def test_takes_no_polynomial_gcd(self, monkeypatch):
        x = RationalFunction(Poly((0, 0, -6)), Poly((0, 4)))    # -3q/2
        y = RationalFunction(Poly((10,)), Poly((0, 0, 0, 3)))   # 10/(3q^3)
        expected = RationalFunction(Poly((-5,)), Poly((0, 0, 1)))

        def refuse(*args):
            raise AssertionError("the monomial product took a general path")
        monkeypatch.setattr(Poly, "gcd", refuse)
        monkeypatch.setattr(Poly, "div_exact", refuse)
        monkeypatch.setattr(RationalFunction, "__init__", refuse)
        assert_same_value(x * y, expected)
        assert_same_value(y * x, expected)


class TestTruthValue:
    @SETTINGS
    @given(rationals)
    def test_false_iff_zero(self, x):
        # the zero test that linalg's elimination applies to every entry,
        # as it does to a Fraction
        assert bool(x) == (not x.is_zero) == (to_sympy(x.num) != 0)
        assert not x - x and not x * 0


class TestNegation:
    @SETTINGS
    @given(rationals)
    def test_equals_the_reduced_negation(self, x):
        assert_same_value(-x, RationalFunction(-x.num, x.den))


class TestTextRoundTrip:
    @SETTINGS
    @given(rationals)
    def test_parse_inverts_str(self, x):
        assert parse_rational(str(x)) == x

    @SETTINGS
    @given(rationals)
    def test_negation_round_trips(self, x):
        assert parse_rational(str(-x)) == -x


SPACES = st.text(st.sampled_from(" \t\n\u3000"), max_size=2)
EXPONENTS = st.integers(min_value=-40, max_value=40)


@st.composite
def term_texts(draw, first: bool):
    """One term as (text, value): a sign run (required after the first
    term), an optional coefficient and ``*``, and an optional q^e."""
    signs = draw(st.lists(st.sampled_from("+-"), min_size=0 if first else 1,
                          max_size=3))
    coeff = draw(st.none() | st.integers(min_value=0, max_value=99))
    exp = draw(EXPONENTS if coeff is None else st.none() | EXPONENTS)
    text = "".join(sign + draw(SPACES) for sign in signs)
    if coeff is not None:
        text += str(coeff) + draw(SPACES)
        if exp is not None and draw(st.booleans()):
            text += "*" + draw(SPACES)
    if exp is not None:
        text += "q"
        if exp != 1 or draw(st.booleans()):
            text += (draw(SPACES) + "^" + draw(SPACES)
                     + ("-" + draw(SPACES) if exp < 0 else "") + str(abs(exp)))
    value = (-1) ** signs.count("-") * (1 if coeff is None else coeff)
    return text, value * q_power(exp or 0)


@st.composite
def side_texts(draw):
    """A sum of one to four terms, with whitespace and redundant outer
    parentheses, as (text, value)."""
    count = draw(st.integers(min_value=1, max_value=4))
    terms = [draw(term_texts(first=i == 0)) for i in range(count)]
    text = "".join(draw(SPACES) + t for t, _ in terms) + draw(SPACES)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        text = draw(SPACES) + "(" + text + ")" + draw(SPACES)
    return text, sum((v for _, v in terms), ZERO)


class TestGrammar:
    @SETTINGS
    @given(side_texts(), st.none() | side_texts())
    def test_parse_equals_the_terms_summed(self, num, den):
        if den is None:
            assert parse_rational(num[0]) == num[1]
        elif den[1].is_zero:
            with pytest.raises(ZeroDivisionError):
                parse_rational(f"{num[0]}/{den[0]}")
        else:
            assert parse_rational(f"{num[0]}/{den[0]}") == num[1] / den[1]


class TestFieldAxioms:
    @FIELD_SETTINGS
    @given(rationals, rationals, rationals)
    def test_associativity(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)

    @FIELD_SETTINGS
    @given(rationals, rationals)
    def test_commutativity(self, x, y):
        assert x + y == y + x
        assert x * y == y * x

    @FIELD_SETTINGS
    @given(rationals, rationals, rationals)
    def test_distributivity(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @FIELD_SETTINGS
    @given(rationals)
    def test_identities_and_additive_inverse(self, x):
        assert x + ZERO == x and x * ONE == x
        assert x + (-x) == ZERO
        assert x - x == ZERO

    @FIELD_SETTINGS
    @given(nonzero_rationals, rationals)
    def test_multiplicative_inverse(self, x, y):
        assert x * x ** -1 == ONE
        assert (y / x) * x == y
