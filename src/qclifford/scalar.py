"""Exact arithmetic in the field Q(q) of rational functions of the
deformation parameter q.

A polynomial is stored densely as a tuple of arbitrary-precision integer
coefficients in ascending degree order.  A :class:`RationalFunction` is a
reduced fraction of two such polynomials kept in a canonical form
(gcd-reduced, positive leading coefficient of the denominator), so that
equality is structural and every identity in this package can be tested
against the exact zero rather than a float tolerance.

Most values met in practice are Laurent monomials: every entry of the
deforming map is +-q^-m, so most operands of a product are the constants
+-1 or monomials c*q^k.  ``Poly.__mul__`` therefore tests an operand for a
constant (a length-1 tuple) first, and for a monomial after that, and
then scales or shifts the other operand's coefficient tuple instead of
running the double loop; negating a canonical value takes no gcd.
``RationalFunction.__mul__`` of two quotients of monomials, a*q^i/b*q^j
times c*q^k/d*q^m, writes the canonical product directly: one integer gcd
of ac and bd, the net power of q on one side, the sign on the numerator,
and no ``Poly.gcd``, no ``div_exact`` and no ``__init__``.  Every other
product is reduced by its gcd as usual.

Negative powers of q are ordinary field elements: q^-1 is the fraction
1/q.  The classical limit is obtained by evaluating at q = 1 with
:meth:`RationalFunction.eval_at`, which is exact on rational points.

Text form follows a fixed grammar, e.g. ``(q^2 - 1)/(q + 1)``: terms in
descending powers, ``^`` for exponents, both sides parenthesized whenever
the denominator is not 1.  :func:`parse_rational` reads one side, or two
split at the one ``/``.  A side is a sum of terms ``[signs][c[*]][q[^[-]e]]``
(a sign is needed before every term but the first), with whitespace between
pieces and any number of matching parentheses around the whole side.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as _int_gcd


#: most bits of an exact value at a rational point, some 3 900 decimal
#: digits: within the 4 300 digits an integer may print
_MAX_VALUE_BITS = 13_000


class PoleError(ZeroDivisionError):
    """Rational function evaluated at a root of its denominator."""

    def __init__(self, denominator, point):
        super().__init__(f"denominator {denominator} vanishes at q = {point}")
        self.denominator = str(denominator)
        self.point = point


# ---------------------------------------------------------------------------
# integer-coefficient polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Univariate polynomial in q with integer coefficients.

    Immutable; ``coeffs[k]`` is the coefficient of q^k and the last entry
    is nonzero (the zero polynomial has an empty tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls((int(c),))

    @classmethod
    def q_power(cls, k: int) -> "Poly":
        if k < 0:
            raise ValueError("Poly.q_power expects k >= 0")
        return cls((0,) * k + (1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def content(self) -> int:
        return _int_gcd(*self.coeffs)

    @property
    def order(self) -> int:
        """Index of the lowest nonzero coefficient of a nonzero polynomial
        (the power of q dividing it)."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k

    @property
    def is_monomial(self) -> bool:
        """True for c*q^k with c != 0."""
        cs = self.coeffs
        return bool(cs) and cs.count(0) == len(cs) - 1

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Product in Z[q].

        An operand that is a constant c, and then one that is a monomial
        c*q^k, scales (and shifts) the other's coefficient tuple; the
        result's top coefficient is a product of nonzero integers, so
        nothing is stripped.  Other pairs run the schoolbook double loop.
        """
        if isinstance(other, int):
            return Poly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        p = self
        if len(a) == 1:
            a, b, p = b, a, other
        # results are built from lists: built from generator expressions
        # they raised the traced peak memory of verify-map --n 6 by 30 %
        if len(b) == 1:
            c = b[0]
            return p if c == 1 else _poly(tuple([c * x for x in a]))
        if a.count(0) == len(a) - 1:
            a, b = b, a
        k = len(b) - 1
        if b.count(0) == k:
            c = b[k]
            out = [0] * k
            out += a if c == 1 else [c * x for x in a]
            return _poly(tuple(out))
        out = [0] * (len(a) + k)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a Poly; use RationalFunction")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def div_exact(self, other: "Poly") -> "Poly":
        """Exact division; raises if the remainder does not vanish.

        Integer long division by the divisor's leading coefficient: when
        the quotient over Q has integer coefficients every step divides
        exactly, so a nonzero step remainder already proves that other
        does not divide self in Z[q].
        """
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return Poly()
        rem = list(self.coeffs)
        dd, lead = other.degree, other.lc
        qd = len(rem) - 1 - dd
        if qd < 0:
            raise ValueError(f"{other} does not divide {self}")
        lower = [(j, d) for j, d in enumerate(other.coeffs[:dd]) if d]
        quot = [0] * (qd + 1)
        for k in range(qd, -1, -1):
            c, r = divmod(rem[k + dd], lead)
            if r:
                raise ValueError(f"{other} does not divide {self}")
            quot[k] = c
            if c:
                for j, d in lower:
                    rem[k + j] -= c * d
        if any(rem[:dd]):
            raise ValueError(f"{other} does not divide {self}")
        return Poly(quot)

    def pseudo_rem(self, other: "Poly") -> "Poly":
        """Pseudo-remainder of self by other (for the primitive PRS gcd).

        Each step replaces r by lc(other)*r - lc(r)*q^(deg r - d)*other,
        d = deg other, working on a plain coefficient list.
        """
        r = list(self.coeffs)
        dn = other.coeffs
        d, lg = len(dn) - 1, dn[-1]
        while r and len(r) - 1 >= d:
            lead, k = r[-1], len(r) - 1 - d
            r = [c * lg for c in r]
            for j, x in enumerate(dn):
                r[k + j] -= x * lead
            while r and not r[-1]:
                r.pop()
        return Poly(r)

    def primitive(self) -> "Poly":
        c = self.content
        if c in (0, 1):
            return self
        return Poly(tuple(x // c for x in self.coeffs))

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """Gcd in Z[q], canonicalized with a positive leading coefficient.

        When one argument is a monomial c*q^k and the other a nonzero f,
        the gcd is gcd(|c|, content f) * q^min(k, ord f), read off without
        running the remainder sequence.
        """
        if a.is_zero and b.is_zero:
            return Poly()
        if b.is_monomial and not a.is_zero:
            a, b = b, a
        if a.is_monomial and not b.is_zero:
            k = min(a.degree, b.order)
            return Poly((0,) * k + (_int_gcd(a.lc, b.content),))
        cont = _int_gcd(a.content, b.content)
        f, g = a.primitive(), b.primitive()
        while not g.is_zero:
            f, g = g, f.pseudo_rem(g).primitive()
        if f.lc < 0:
            f = -f
        return f * cont

    def eval(self, x):
        """Horner evaluation; exact for int/Fraction points."""
        result = 0 * x
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def __str__(self):
        return _poly_text(self)

    def __repr__(self):
        return f"Poly({self.coeffs})"


def _poly(coeffs: tuple) -> Poly:
    """A Poly on a coefficient tuple that is empty or ends in a nonzero
    entry, built without the trailing-zero strip."""
    p = object.__new__(Poly)
    p.coeffs = coeffs
    return p


def _poly_text(p: Poly) -> str:
    """p in the text grammar; a coefficient of more than
    :data:`MAX_INT_DIGITS` digits, which no parsed value holds but a
    computed one can, is refused before str() reaches it."""
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if mag >= _DIGIT_BOUND:
            raise ValueError(f"cannot print a computed value: it has a "
                             f"coefficient of more than {MAX_INT_DIGITS} "
                             f"digits")
        if k == 0:
            body = str(mag)
        else:
            var = "q" if k == 1 else f"q^{k}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


# ---------------------------------------------------------------------------
# the field Q(q)
# ---------------------------------------------------------------------------

class RationalFunction:
    """Element of Q(q) in canonical form.

    The numerator/denominator pair is reduced by their gcd in Z[q]
    (including integer content) and normalized so that the denominator's
    leading coefficient is positive.  Two values are equal iff their
    coefficient tuples coincide.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.const(1)
        if den.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if num.is_zero:
            num, den = Poly(), Poly.const(1)
        else:
            g = Poly.gcd(num, den)
            if g.coeffs != (1,):
                num, den = num.div_exact(g), den.div_exact(g)
            if den.lc < 0:
                num, den = -num, -den
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_fraction(cls, f: Fraction) -> "RationalFunction":
        return cls(Poly.const(f.numerator), Poly.const(f.denominator))

    # -- predicates ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return bool(self.num.coeffs)    # as for Fraction: false iff zero

    # -- field operations ---------------------------------------------------
    # values are immutable and canonical, so a zero operand can hand back
    # an existing value instead of building an equal one
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num.coeffs:
            return other
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num.coeffs, self.den.coeffs
        c, d = other.num.coeffs, other.den.coeffs
        i, j, k, m = len(a) - 1, len(b) - 1, len(c) - 1, len(d) - 1
        if (a.count(0) == i and b.count(0) == j and c.count(0) == k
                and d.count(0) == m):
            # Laurent monomials: both denominators are positive, so their
            # product is, and the sign stays on the numerator
            num, den = a[i] * c[k], b[j] * d[m]
            g = _int_gcd(num, den)
            if g != 1:
                num, den = num // g, den // g
            e = i + k - j - m
            out = object.__new__(RationalFunction)
            out.num = _poly((0,) * e + (num,))
            out.den = _poly((0,) * -e + (den,))
            return out
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __neg__(self):
        # -num/den is canonical whenever num/den is: no gcd to take
        out = object.__new__(RationalFunction)
        out.num = -self.num
        out.den = self.den
        return out

    def __pow__(self, n: int):
        if n == 0:
            return ONE
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return RationalFunction(self.den ** (-n), self.num ** (-n))
        return RationalFunction(self.num ** n, self.den ** n)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num.coeffs == other.num.coeffs and self.den.coeffs == other.den.coeffs

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    # -- evaluation ---------------------------------------------------------
    def eval_at(self, point):
        """Evaluate at a numeric point.

        Exact (returns a Fraction) for Fraction points; float/complex
        points give float/complex results.  Raises :class:`PoleError`,
        naming the vanishing denominator, when the point is a root of it,
        and ``ValueError`` before an exact value of more than
        ``_MAX_VALUE_BITS`` (the degree times the bits of the point).
        """
        if isinstance(point, Fraction):
            bits = max(abs(point.numerator), point.denominator).bit_length()
            degree = max(self.num.degree, self.den.degree)
            if degree * bits > _MAX_VALUE_BITS:
                raise ValueError(f"the exact value of a degree-{degree} function "
                                 f"at this point would exceed {_MAX_VALUE_BITS} bits")
        dval = self.den.eval(point)
        if dval == 0:
            raise PoleError(self.den, point)
        return self.num.eval(point) / dval

    def __str__(self):
        if self.den.coeffs == (1,):
            return _poly_text(self.num)
        return f"({_poly_text(self.num)})/({_poly_text(self.den)})"

    def __repr__(self):
        return f"RationalFunction({self})"


def _coerce(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, int):
        return RationalFunction(Poly.const(x))
    return NotImplemented


#: the canonical generators of the field
Q = RationalFunction(Poly.q_power(1))
ONE = RationalFunction(Poly.const(1))
ZERO = RationalFunction(Poly())


def q_power(k: int) -> RationalFunction:
    """q^k as a field element; k may be negative."""
    return Q ** k


# ---------------------------------------------------------------------------
# q-combinatorics
# ---------------------------------------------------------------------------

def q_number(m: int, base: RationalFunction) -> RationalFunction:
    """(m)_base = sum of base^k for k < m; reduces to m at base = 1."""
    if m < 0:
        raise ValueError("q_number expects m >= 0")
    total = ZERO
    power = ONE
    for _ in range(m):
        total = total + power
        power = power * base
    return total


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

#: widest exponent range (highest minus lowest power, 0 included) that one
#: side of a text fraction may span; the dense coefficient tuple grows with it
_MAX_EXPONENT_SPAN = 10_000

#: most digits of an integer read from text or held by a parsed value
#: (Python's default limit on int() from text and str() of an int)
MAX_INT_DIGITS = 4300

#: the least integer of more than MAX_INT_DIGITS digits
_DIGIT_BOUND = 10 ** MAX_INT_DIGITS

#: one term: a run of signs, an optional coefficient with an optional
#: ``*``, then an optional ``q`` with an optional ``^``, ``-`` and digits
_TERM = re.compile(
    r"([-+\s]*)(?:(\d+)\s*\*?)?\s*(?:(q)\s*(?:(\^)\s*(-?)\s*(\d*))?)?\s*")


def _parse_laurent(side: str) -> RationalFunction:
    """Parse a sum of terms c*q^e with integer (possibly negative) e,
    inside any number of matching outer parentheses."""
    text = side.strip()
    lo, hi = 0, len(text)    # strip the outer pairs in place, copy once
    while lo < hi - 1 and text[lo] == "(" and text[hi - 1] == ")":
        lo, hi = lo + 1, hi - 1
        while lo < hi and text[lo].isspace():
            lo += 1
        while lo < hi and text[hi - 1].isspace():
            hi -= 1
    text = text[lo:hi]
    if not text:
        raise ValueError(f"could not parse {side!r}: empty expression")
    terms: dict[int, int] = {}
    # int() reads a digit run only without its leading zeros and when it is
    # short; an exponent of more digits than the span has lies past it
    width = len(str(_MAX_EXPONENT_SPAN))
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        signs, coeff, q, caret, minus, digits = m.groups()
        problem = ("no term" if coeff is None and q is None else
                   "missing operator" if terms and not signs.strip() else
                   "malformed exponent" if caret and not digits else None)
        if problem:
            raise ValueError(f"could not parse {side!r}: {problem} at "
                             f"{text[pos:]!r}")
        exp = 1 if q else 0
        if caret:
            run = digits.lstrip("0") or "0"
            exp = ((int(run) if len(run) <= width else _MAX_EXPONENT_SPAN + 1)
                   * (-1 if minus else 1))
        run = (coeff.lstrip("0") or "0") if coeff else "1"
        if len(run) > MAX_INT_DIGITS:
            raise ValueError(f"could not parse {side!r}: a coefficient of "
                             f"{len(run)} digits exceeds {MAX_INT_DIGITS}")
        value = (-1) ** signs.count("-") * (int(run) if coeff else 1)
        terms[exp] = terms.get(exp, 0) + value
        pos = m.end()
    high, shift = max(terms), max(-min(terms), 0)
    if max(high, 0) + shift > _MAX_EXPONENT_SPAN:
        raise ValueError(f"the exponents of {side!r} span more than "
                         f"{_MAX_EXPONENT_SPAN} powers of q")
    coeffs = [0] * (high + shift + 1)
    for e, c in terms.items():
        coeffs[e + shift] = c
    return RationalFunction(Poly(coeffs), Poly.q_power(shift))


def parse_rational(text: str) -> RationalFunction:
    """Parse the fixed text grammar, e.g. ``(q^2 - 1)/(q + 1)``: one side,
    or two split at the one ``/``.

    Each digit run is bounded before int() reads it, and the canonical
    value is refused when a coefficient of it, a sum of runs or a
    coefficient of the reduced quotient, has more than
    :data:`MAX_INT_DIGITS` digits, so that no str() of it can fail.
    """
    sides = text.split("/")
    if len(sides) > 2:
        raise ValueError(f"could not parse {text!r}: more than one '/'")
    value = _parse_laurent(sides[0])
    if len(sides) == 2:
        den = _parse_laurent(sides[1])
        if den.is_zero:
            raise ZeroDivisionError(f"division by zero: the denominator "
                                    f"{sides[1]!r} is 0")
        value = value / den
    if any(abs(c) >= _DIGIT_BOUND for c in value.num.coeffs + value.den.coeffs):
        raise ValueError(f"could not parse {text!r}: its value has a "
                         f"coefficient of more than {MAX_INT_DIGITS} digits")
    return value
