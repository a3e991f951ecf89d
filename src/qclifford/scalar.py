"""Exact arithmetic in the field Q(q) of rational functions of the
deformation parameter q.

A polynomial is stored densely as a tuple of arbitrary-precision integer
coefficients in ascending degree order.  A :class:`RationalFunction` is a
reduced fraction of two such polynomials kept in a canonical form
(gcd-reduced, positive leading coefficient of the denominator), so that
equality is structural and every identity in this package can be tested
against the exact zero rather than a float tolerance.

Negative powers of q are ordinary field elements: q^-1 is the fraction
1/q.  The classical limit is obtained by evaluating at q = 1 with
:meth:`RationalFunction.eval_at`, which is exact on rational points.

Text form follows a fixed grammar, e.g. ``(q^2 - 1)/(q + 1)``: terms in
descending powers, ``^`` for exponents, both sides parenthesized whenever
the denominator is not 1.  :func:`parse_rational` accepts the same
grammar (plus negative exponents such as ``q^-2`` for convenience).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd


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
        """Index of the lowest nonzero coefficient (the power of q dividing
        the polynomial); -1 for the zero polynomial."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return -1

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
        if isinstance(other, int):
            return Poly(tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return Poly()
        if self.coeffs == (1,):
            return other
        if other.coeffs == (1,):
            return self
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
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

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        return _poly_text(self)

    def __repr__(self):
        return f"Poly({self.coeffs})"


def _poly_text(p: Poly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
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

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = Poly.const(1) if den is None else _as_poly(den)
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

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(Poly())

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls(Poly.const(1))

    @classmethod
    def q(cls) -> "RationalFunction":
        return cls(Poly.q_power(1))

    # -- predicates ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num.coeffs == (1,) and self.den.coeffs == (1,)

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree <= 0

    # -- field operations ---------------------------------------------------
    # values are immutable and canonical, so a zero operand can hand back
    # an existing value instead of building an equal one
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num.coeffs:
            return self
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

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num.coeffs:
            return self
        if not other.num.coeffs:
            return other
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __pow__(self, n: int):
        if n == 0:
            return RationalFunction.one()
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

        Exact (returns a Fraction) for int/Fraction points; float/complex
        points give float/complex results.  Raises :class:`PoleError`,
        naming the vanishing denominator, when the point is a root of it.
        """
        if isinstance(point, int):
            point = Fraction(point)
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


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, int):
        return Poly.const(x)
    if isinstance(x, (tuple, list)):
        return Poly(x)
    raise TypeError(f"cannot build a Poly from {type(x).__name__}")


def _coerce(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, int):
        return RationalFunction(Poly.const(x))
    if isinstance(x, Fraction):
        return RationalFunction.from_fraction(x)
    return NotImplemented


#: the canonical generators of the field
Q = RationalFunction.q()
ONE = RationalFunction.one()
ZERO = RationalFunction.zero()


def q_power(k: int) -> RationalFunction:
    """q^k as a field element; k may be negative."""
    return Q ** k


def eval_at(f: RationalFunction, point):
    """Function form of :meth:`RationalFunction.eval_at`."""
    return f.eval_at(point)


# ---------------------------------------------------------------------------
# q-combinatorics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QInteger:
    """The basic deformed integer (m)_p = 1 + p + ... + p^(m-1)."""

    m: int
    base: RationalFunction

    @property
    def value(self) -> RationalFunction:
        return q_number(self.m, self.base)


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


def gamma_ratio(m: int) -> RationalFunction:
    """m! divided by the product of (k)_{q^2} for k = 1..m.

    This is the eigenvalue function of the gamma-function quotient that
    normalizes the deforming map; it equals 1 at q = 1 for every m.
    """
    if m < 0:
        raise ValueError("gamma_ratio expects m >= 0")
    qq = Q * Q
    num = ONE
    den = ONE
    for k in range(1, m + 1):
        num = num * k
        den = den * q_number(k, qq)
    return num / den


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

#: widest exponent range (highest minus lowest power, 0 included) that one
#: side of a text fraction may span; the dense coefficient tuple grows with it
_MAX_EXPONENT_SPAN = 10_000

_TOKEN = re.compile(r"\s*(?:(\d+)|(q)|(\^)|(\*)|(\+)|(-)|(/)|(\()|(\)))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"could not parse {text!r} at position {pos}")
        pos = m.end()
        if m.group(1):
            tokens.append(("int", int(m.group(1))))
        else:
            for i, name in ((2, "q"), (3, "^"), (4, "*"), (5, "+"),
                            (6, "-"), (7, "/"), (8, "("), (9, ")")):
                if m.group(i):
                    tokens.append((name, None))
                    break
    return tokens


def _split_top_level_slash(tokens):
    depth = 0
    for i, (kind, _) in enumerate(tokens):
        if kind == "(":
            depth += 1
        elif kind == ")":
            depth -= 1
        elif kind == "/" and depth == 0:
            return tokens[:i], tokens[i + 1:]
    return tokens, None


def _strip_outer_parens(tokens):
    while (len(tokens) >= 2 and tokens[0][0] == "(" and tokens[-1][0] == ")"):
        depth = 0
        closes_at_end = True
        for i, (kind, _) in enumerate(tokens):
            if kind == "(":
                depth += 1
            elif kind == ")":
                depth -= 1
                if depth == 0 and i != len(tokens) - 1:
                    closes_at_end = False
                    break
        if not closes_at_end:
            break
        tokens = tokens[1:-1]
    return tokens


def _parse_laurent(tokens) -> RationalFunction:
    """Parse a sum of terms c*q^e with integer (possibly negative) e."""
    tokens = _strip_outer_parens(tokens)
    if not tokens:
        raise ValueError("empty expression")
    terms: dict[int, int] = {}
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        saw_sign = False
        while i < n and tokens[i][0] in ("+", "-"):
            if tokens[i][0] == "-":
                sign = -sign
            saw_sign = True
            i += 1
        if i >= n:
            raise ValueError("dangling sign in expression")
        if not saw_sign and terms and i != 0:
            raise ValueError("missing operator between terms")
        coeff = None
        if tokens[i][0] == "int":
            coeff = tokens[i][1]
            i += 1
            if i < n and tokens[i][0] == "*":
                i += 1
        exp = 0
        if i < n and tokens[i][0] == "q":
            i += 1
            exp = 1
            if i < n and tokens[i][0] == "^":
                i += 1
                esign = 1
                if i < n and tokens[i][0] == "-":
                    esign = -1
                    i += 1
                if i >= n or tokens[i][0] != "int":
                    raise ValueError("malformed exponent")
                exp = esign * tokens[i][1]
                i += 1
        elif coeff is None:
            raise ValueError(f"unexpected token {tokens[i][0]!r}")
        if coeff is None:
            coeff = 1
        terms[exp] = terms.get(exp, 0) + sign * coeff
    low = min(terms) if terms else 0
    shift = -low if low < 0 else 0
    if terms and max(max(terms), 0) + shift > _MAX_EXPONENT_SPAN:
        raise ValueError(f"exponents span more than {_MAX_EXPONENT_SPAN} powers of q")
    coeffs = [0] * (max(terms) + shift + 1 if terms else 1)
    for e, c in terms.items():
        coeffs[e + shift] = c
    return RationalFunction(Poly(coeffs), Poly.q_power(shift))


def parse_rational(text: str) -> RationalFunction:
    """Parse the fixed text grammar, e.g. ``(q^2 - 1)/(q + 1)``."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty expression")
    left, right = _split_top_level_slash(tokens)
    value = _parse_laurent(left)
    if right is not None:
        more, rest = _split_top_level_slash(right)
        if rest is not None:
            raise ValueError("more than one top-level '/'")
        den = _parse_laurent(more)
        if den.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        value = value / den
    return value
