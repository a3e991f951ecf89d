"""U_q sl(2) as concrete Hopf data acting on the two-mode Fock space.

The quantum-group generators are realized by the deformed
Jordan-Schwinger bilinears

    sigma_q(E) = adag_1 a^2,  sigma_q(F) = adag_2 a^1,
    sigma_q(K) = q^(n_1 - n_2),

whose defining relations hold exactly on fermionic Fock space because
n_1 - n_2 only takes the values -1, 0, 1 there.  The adjoint action is

    x |> a  =  sigma_q(x_(1)) . a . sigma_q(S x_(2)),

summed over the coproduct.  Of the two mirror-image coproduct
conventions, the covariance of the dressed generators under the fixed
fundamental representation rho_q(K) = diag(q, q^-1) (each rho a 2 x 2
:class:`linalg.SparseMatrix`) selects one, and it is frozen here as the
module constants :data:`COPRODUCT`, :data:`ANTIPODE` and :data:`COUNIT`:

    D(E) = E @ 1 + K @ E,    D(F) = F @ Kinv + 1 @ F,    D(K) = K @ K,
    S(E) = -Kinv E,          S(F) = -F K,                S(K) = Kinv.

The rejected mirror convention is a negative control of the tests.
Invariance checkers compare x |> I against eps(x) I for both the
deformed action and the classical commutator action, and the closed-form
identity relating the deformed quadratic invariant to the classical one
is verified eigenvalue by eigenvalue.

Every residual, the defining relations that :func:`deformed_js` checks
included, is a term table start + sum coeff X Y for the one relation
evaluator, :class:`report.RelationReport`, which forms no product matrix.
The operands are computed once per check call: each x |> a, each
sigma(x_(1)) . a and each b . sigma(S x_(2)); the sigma word images and
the sandwich pairs (sign, x_(1), S x_(2)) of each word are kept on the
:class:`HopfAlgebraData`.  So x |> (ab) is summed as
sigma(x_(1)) a . b sigma(S x_(2)) without forming ab, and a commutator
[g, a] is the table [(1, g, a), (-1, a, g)].  :func:`act` itself stays a
plain sum of matrix products, the oracle the checkers are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from . import fock
from .deform import GeneratorSet
from .fock import build_generators
from .linalg import SparseMatrix
from .report import RelationReport
from .scalar import ONE, Q, RationalFunction, ZERO, q_number


#: the frozen Hopf structure, written as text in the ledger
#: report.CONVENTIONS: name -> [(left word, right word)]
COPRODUCT = {
    "E": [(("E",), ()), (("K",), ("E",))],
    "F": [(("F",), ("Kinv",)), ((), ("F",))],
    "K": [(("K",), ("K",))],
    "Kinv": [(("Kinv",), ("Kinv",))],
}
#: name -> (sign, word)
ANTIPODE = {
    "E": (-1, ("Kinv", "E")),
    "F": (-1, ("F", "K")),
    "K": (1, ("Kinv",)),
    "Kinv": (1, ("K",)),
}
COUNIT = {"E": ZERO, "F": ZERO, "K": ONE, "Kinv": ONE}

GENERATOR_NAMES = ("E", "F", "K")


@dataclass
class HopfAlgebraData:
    """Generator table for U_q sl(2) together with its Fock realization."""

    q_scalar: RationalFunction
    sigma: dict          # name -> image on the two-mode Fock space
    rho: dict            # name -> 2x2 SparseMatrix over Q(q)
    # the frozen Hopf structure: class attributes, not fields
    coproduct = COPRODUCT
    antipode = ANTIPODE
    counit = COUNIT
    # word -> sigma(word), and word -> sandwich pairs, each built once
    _sigma_words: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)
    _sandwiches: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def sigma_word(self, word) -> SparseMatrix:
        word = tuple(word)
        op = self._sigma_words.get(word)
        if op is None:
            op = fock.identity(2)
            for name in word:
                op = op * self.sigma[name]
            self._sigma_words[word] = op
        return op

    def sandwich(self, word) -> list:
        """[(sign, x_(1), S x_(2))] over the coproduct of a word, as words:
        x |> a is the sum of sign * sigma(x_(1)) . a . sigma(S x_(2))."""
        word = tuple(word)
        pairs = self._sandwiches.get(word)
        if pairs is None:
            pairs = []
            for left, right in self.coproduct_word(word):
                sign, s_word = self.antipode_word(right)
                pairs.append((ONE if sign > 0 else -ONE, left, s_word))
            self._sandwiches[word] = pairs
        return pairs

    def rho_word(self, word) -> SparseMatrix:
        mat = SparseMatrix(2, [{0: ONE}, {1: ONE}])
        for name in word:
            mat = mat * self.rho[name]
        return mat

    def antipode_word(self, word):
        """S applied as an antihomomorphism: (sign, word)."""
        sign = 1
        out: tuple = ()
        for name in reversed(word):
            s, w = self.antipode[name]
            sign *= s
            out = out + w
        return sign, out

    def coproduct_word(self, word):
        """Expand D(word) as a list of (left word, right word) pairs."""
        pairs = [((), ())]
        for name in word:
            pairs = [(l1 + l2, r1 + r2)
                     for (l1, r1) in pairs
                     for (l2, r2) in self.coproduct[name]]
        return pairs


def _weight_diagonal(q_scalar: RationalFunction, exponent_sign: int) -> SparseMatrix:
    """Diagonal q^(sign * (n_1 - n_2)) on the two-mode space."""
    rows = []
    for state in range(4):
        m = ((state >> 1) & 1) - (state & 1)
        rows.append({state: q_scalar ** (exponent_sign * m)})
    return SparseMatrix(4, rows)


def deformed_js(q_scalar: RationalFunction = Q) -> HopfAlgebraData:
    """Build the deformed Jordan-Schwinger data and self-check it.

    The defining relations K Kinv = 1, K E Kinv = q^2 E, K F Kinv = q^-2 F
    and [E, F] = (K - Kinv)/(q - q^-1) are each decided by a
    :class:`report.RelationReport` before the data is returned.
    """
    pairs = build_generators(2)
    sigma = {
        "E": pairs[0][0] * pairs[1][1],
        "F": pairs[1][0] * pairs[0][1],
        "K": _weight_diagonal(q_scalar, +1),
        "Kinv": _weight_diagonal(q_scalar, -1),
    }
    rho = {
        "E": SparseMatrix(2, [{1: ONE}, {}]),
        "F": SparseMatrix(2, [{}, {0: ONE}]),
        "K": SparseMatrix(2, [{0: q_scalar}, {1: q_scalar ** -1}]),
        "Kinv": SparseMatrix(2, [{0: q_scalar ** -1}, {1: q_scalar}]),
    }
    data = HopfAlgebraData(q_scalar=q_scalar, sigma=sigma, rho=rho)
    _self_check(data)
    return data


def _self_check(data: HopfAlgebraData) -> None:
    """Raise ValueError naming the first defining relation that fails."""
    q0 = data.q_scalar
    E, F, K, Kinv = (data.sigma[n] for n in ("E", "F", "K", "Kinv"))
    zero, ident = fock.zero(2), fock.identity(2)
    gap = q0 - q0 ** -1
    if gap.is_zero:
        # degenerate point (q = +-1): the bracket is the bare weight n1 - n2
        bracket = "[E, F] classical limit"
        weight = [(-ONE, fock.number_op(2, 1), ident),
                  (ONE, fock.number_op(2, 2), ident)]
    else:
        bracket = "[E, F] = (K - Kinv)/(q - q^-1)"
        weight = [(-gap ** -1, K, ident), (gap ** -1, Kinv, ident)]
    identities = [
        ("K Kinv = 1", -ident, [(ONE, K, Kinv)]),
        ("K E Kinv = q^2 E", zero, [(ONE, K * E, Kinv), (-q0 * q0, E, ident)]),
        ("K F Kinv = q^-2 F", zero, [(ONE, K * F, Kinv), (-q0 ** -2, F, ident)]),
        (bracket, zero, [(ONE, E, F), (-ONE, F, E)] + weight),
    ]
    for relation, start, terms in identities:
        if not RelationReport("hopf-self-check", (), relation, start,
                              terms).exact_zero:
            raise ValueError(f"{relation} fails")


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

def act(x, a: SparseMatrix, data: HopfAlgebraData) -> SparseMatrix:
    """Adjoint action of a generator monomial: sandwich through the
    coproduct with the antipode on the right leg.

    Built with plain matrix products and sums, so it is an oracle
    independent of the relation kernel the checkers run on.
    """
    word = (x,) if isinstance(x, str) else tuple(x)
    total = SparseMatrix(a.dim)
    for sign, left, s_word in data.sandwich(word):
        total = total + _right(data, _left(data, left, a), s_word).scale(sign)
    return total


def _left(data: HopfAlgebraData, word: tuple, a: SparseMatrix) -> SparseMatrix:
    """sigma(word) . a, with no product for the empty word."""
    return data.sigma_word(word) * a if word else a


def _right(data: HopfAlgebraData, b: SparseMatrix, word: tuple) -> SparseMatrix:
    """b . sigma(word), with no product for the empty word."""
    return b * data.sigma_word(word) if word else b


class _Actions:
    """The operators of one check call's residuals, each computed once.

    Operands are keyed by label: x |> a, sigma(x_(1)) . a and
    b . sigma(S x_(2)).  A residual is then a term table over these for
    :class:`report.RelationReport`, and no product is formed for it.
    """

    def __init__(self, data: HopfAlgebraData):
        self.data = data
        self._memo: dict = {}

    def _once(self, key, build):
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def act(self, word: tuple, label: str, a: SparseMatrix) -> SparseMatrix:
        """x |> a for a word x."""
        return self._once(("act", word, label), lambda: act(word, a, self.data))

    def terms(self, word: tuple, la: str, a: SparseMatrix, lb: str | None = None,
              b: SparseMatrix | None = None) -> list:
        """Terms (sign, sigma(x_(1)) . a, b . sigma(S x_(2))) of x |> (ab),
        or of x |> a when b is None."""
        data = self.data
        out = []
        for sign, left, s_word in data.sandwich(word):
            left_op = self._once(("left", left, la), lambda: _left(data, left, a))
            if b is None:
                right_op = data.sigma_word(s_word)
            else:
                right_op = self._once(("right", lb, s_word),
                                      lambda: _right(data, b, s_word))
            out.append((sign, left_op, right_op))
        return out


def classical_js() -> dict:
    """The su(2) bilinears j+, j-, j0 on the two-mode Fock space."""
    pairs = build_generators(2)
    half = RationalFunction.from_fraction(Fraction(1, 2))
    return {
        "j+": pairs[0][0] * pairs[1][1],
        "j-": pairs[1][0] * pairs[0][1],
        "j0": (fock.number_op(2, 1) - fock.number_op(2, 2)).scale(half),
    }


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def check_module_algebra(data: HopfAlgebraData,
                         gens: GeneratorSet) -> list[RelationReport]:
    """Module-algebra axioms on all generator pairs and sample products.

    Checks (xy) |> a = x |> (y |> a) for x, y in {E, F, K} with a ranging
    over the given generators, and the deformed Leibniz rule
    x |> (ab) = sum (x_(1) |> a)(x_(2) |> b) on all pairs a, b.  Each
    y |> a and each sandwich product with a generator is computed once;
    x |> (ab) is summed as sigma(x_(1)) a . b sigma(S x_(2)), so no
    product ab is formed.
    """
    samples = _labelled_generators(gens)
    actions = _Actions(data)
    zero = fock.zero(gens.modes)
    reports = []
    for x, y in product(GENERATOR_NAMES, repeat=2):
        for label, a in samples:
            inner = f"{y} |> {label}"
            rhs = [(-sign, left_op, right_op) for sign, left_op, right_op in
                   actions.terms((x,), inner, actions.act((y,), label, a))]
            reports.append(RelationReport(
                "module-assoc", (x, y, label),
                f"({x}{y}) |> {label} = {x} |> ({y} |> {label})", zero,
                actions.terms((x, y), label, a) + rhs))
    for x in GENERATOR_NAMES:
        for (la, a), (lb, b) in product(samples, repeat=2):
            rhs = [(-ONE, actions.act(left, la, a), actions.act(right, lb, b))
                   for left, right in data.coproduct_word((x,))]
            reports.append(RelationReport(
                "module-leibniz", (x, la, lb),
                f"{x} |> ({la}.{lb}) obeys the coproduct Leibniz rule", zero,
                actions.terms((x,), la, a, lb, b) + rhs))
    return reports


def _labelled_generators(gens: GeneratorSet):
    out = []
    for i, op in enumerate(gens.creators, start=1):
        out.append((f"Adag_{i}", op))
    for i, op in enumerate(gens.annihilators, start=1):
        out.append((f"A^{i}", op))
    return out


def check_covariance(gens: GeneratorSet,
                     data: HopfAlgebraData) -> list[RelationReport]:
    """Transformation law of the generators under the adjoint action.

    Creators must satisfy x |> Adag_i = rho(x)^j_i Adag_j and
    annihilators x |> A^i = rho(S x)^i_j A^j.  The undeformed generators
    are expected to fail this for generic q (negative control).
    """
    if gens.modes != 2:
        raise ValueError("covariance checking is built for two modes")
    actions = _Actions(data)
    zero, ident = fock.zero(2), fock.identity(2)
    reports = []
    for x in GENERATOR_NAMES:
        rho_x = data.rho[x]
        for i in (1, 2):
            label = f"Adag_{i}"
            reports.append(RelationReport(
                "covariance-creator", (x, i),
                f"{x} |> {label} = rho({x})^j_{i} Adag_j", zero,
                actions.terms((x,), label, gens.creators[i - 1])
                + [(-rho_x.get(j - 1, i - 1), gens.creators[j - 1], ident)
                   for j in (1, 2)]))
        sign, s_word = data.antipode_word((x,))
        rho_sx = data.rho_word(s_word)
        for i in (1, 2):
            label = f"A^{i}"
            reports.append(RelationReport(
                "covariance-annihilator", (x, i),
                f"{x} |> {label} = rho(S {x})^{i}_j A^j", zero,
                actions.terms((x,), label, gens.annihilators[i - 1])
                + [(-sign * rho_sx.get(i - 1, j - 1), gens.annihilators[j - 1],
                    ident)
                   for j in (1, 2)]))
    return reports


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@dataclass
class InvariantElement:
    expression: SparseMatrix
    label: str


def invariant_number(gens: GeneratorSet, label: str) -> InvariantElement:
    """The quadratic invariant: sum over modes of Adag_i A^i."""
    total = fock.zero(gens.modes)
    for c, a in zip(gens.creators, gens.annihilators):
        total = total + c * a
    return InvariantElement(total, label)


def invariance_check(element: InvariantElement, data: HopfAlgebraData,
                     mode: str) -> list[RelationReport]:
    """Residuals x |> I - eps(x) I for every generator of the action.

    ``mode`` selects the deformed adjoint action or the classical
    commutator action (for which eps vanishes on the generators).
    """
    expr = element.expression
    ident = expr.identity_like()
    zero = SparseMatrix(expr.dim)
    reports = []
    if mode == "deformed":
        actions = _Actions(data)
        for x in ("E", "F", "K", "Kinv"):
            reports.append(RelationReport(
                "invariance-deformed", (element.label, x),
                f"{x} |> {element.label} = eps({x}) {element.label}", zero,
                actions.terms((x,), element.label, expr)
                + [(-data.counit[x], expr, ident)]))
    elif mode == "classical":
        js = classical_js()
        for x in ("j+", "j-", "j0"):
            reports.append(RelationReport(
                "invariance-classical", (element.label, x),
                f"[{x}, {element.label}] = 0", zero,
                [(ONE, js[x], expr), (-ONE, expr, js[x])]))
    else:
        raise ValueError("mode must be 'classical' or 'deformed'")
    return reports


def verify_I1_identity(gens: GeneratorSet) -> RelationReport:
    """Closed form of the deformed quadratic invariant.

    On every joint occupation eigenstate with total occupation m, the
    deformed invariant sum Adag_i A^i must equal the deformed integer
    (m)_{q^-2} = (q^-2m - 1)/(q^-2 - 1); both sides are assembled as
    diagonal matrices and subtracted.
    """
    if gens.modes > 3:
        raise ValueError("identity check supports at most 3 modes")
    base = Q ** -2
    rows = []
    for state in range(1 << gens.modes):
        value = q_number(bin(state).count("1"), base)
        rows.append({state: -value} if not value.is_zero else {})
    return RelationReport(
        "invariant-identity", ("I1_q",),
        "sum_i Adag_i A^i = (q^-2m - 1)/(q^-2 - 1) on each "
        "occupation-m eigenspace", SparseMatrix(1 << gens.modes, rows),
        [(ONE, c, a) for c, a in zip(gens.creators, gens.annihilators)])
