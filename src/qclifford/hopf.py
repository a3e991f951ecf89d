"""U_q sl(2) as concrete Hopf data acting on the two-mode Fock space.

The quantum-group generators are realized by the deformed
Jordan-Schwinger bilinears

    sigma_q(E) = adag_1 a^2,  sigma_q(F) = adag_2 a^1,
    sigma_q(K) = q^(n_1 - n_2),

whose defining relations hold exactly on fermionic Fock space because
n_1 - n_2 only takes the values -1, 0, 1 there; sigma_q(K) and sigma_q(Kinv)
are :func:`fock.q_exponent` of the weights (1, -1) and (-1, 1).  Every check
is decided over Q(q), and q = 1 is a substitution into its results.  The
adjoint action is

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
included, is a term table start + sum coeff F1 ... Fk for the one
relation evaluator, :class:`report.RelationReport`: each term is a
coefficient times a word of matrices.  The action x |> (a b ...) is the
terms (sign, sigma(x_(1)), a, b, ..., sigma(S x_(2))) of
:func:`_action_terms`, so no sandwich product and no product ab is
formed, and a commutator [g, a] is the table [(1, g, a), (-1, a, g)].
The sigma word images and the sandwich pairs (sign, x_(1), S x_(2)) of
each word are kept on the :class:`HopfAlgebraData`.  :func:`act`
multiplies the same words out with plain matrix products: it is the
oracle the checkers are tested against, and it gives the inner actions
y |> a of the module-algebra check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product
from operator import mul

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


class HopfAlgebraData:
    """Generator table for U_q sl(2) together with its Fock realization."""

    # the frozen Hopf structure: class attributes, not fields
    coproduct = COPRODUCT
    antipode = ANTIPODE
    counit = COUNIT

    def __init__(self, sigma: dict, rho: dict):
        self.sigma = sigma   # name -> image on the two-mode Fock space
        self.rho = rho       # name -> 2x2 SparseMatrix over Q(q)
        # word -> sigma(word), and word -> sandwich pairs, each built once
        self._sigma_words: dict = {}
        self._sandwiches: dict = {}

    def sigma_word(self, word) -> SparseMatrix:
        """sigma of a nonempty word, its letters' images multiplied."""
        word = tuple(word)
        op = self._sigma_words.get(word)
        if op is None:
            op = reduce(mul, [self.sigma[name] for name in word])
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
        """rho of a nonempty word, its letters' images multiplied."""
        return reduce(mul, [self.rho[name] for name in word])

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


def deformed_js() -> HopfAlgebraData:
    """Build the deformed Jordan-Schwinger data and self-check it.

    The defining relations K Kinv = 1, K E Kinv = q^2 E, K F Kinv = q^-2 F
    and [E, F] = (K - Kinv)/(q - q^-1) are each decided over Q(q) by a
    :class:`report.RelationReport` before the data is returned; the first
    that fails raises ValueError naming it.
    """
    pairs = build_generators(2)
    E, F = pairs[0][0] * pairs[1][1], pairs[1][0] * pairs[0][1]
    K, Kinv = fock.q_exponent([1, -1]), fock.q_exponent([-1, 1])
    zero = fock.zero(2)
    gap_inv = (Q - Q ** -1) ** -1
    identities = [
        ("K Kinv = 1", -fock.identity(2), [(ONE, K, Kinv)]),
        ("K E Kinv = q^2 E", zero, [(ONE, K, E, Kinv), (-Q * Q, E)]),
        ("K F Kinv = q^-2 F", zero, [(ONE, K, F, Kinv), (-Q ** -2, F)]),
        ("[E, F] = (K - Kinv)/(q - q^-1)", zero, [(ONE, E, F), (-ONE, F, E),
         (-gap_inv, K), (gap_inv, Kinv)]),
    ]
    for relation, start, terms in identities:
        if not RelationReport("hopf-self-check", (), relation, start,
                              terms).exact_zero:
            raise ValueError(f"{relation} fails")
    return HopfAlgebraData(sigma={"E": E, "F": F, "K": K, "Kinv": Kinv}, rho={
        "E": SparseMatrix(2, [{1: ONE}, {}]),
        "F": SparseMatrix(2, [{}, {0: ONE}]),
        "K": SparseMatrix(2, [{0: Q}, {1: Q ** -1}]),
        "Kinv": SparseMatrix(2, [{0: Q ** -1}, {1: Q}]),
    })


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

def act(x, a: SparseMatrix, data: HopfAlgebraData) -> SparseMatrix:
    """Adjoint action of a generator monomial: sandwich through the
    coproduct with the antipode on the right leg.

    The words of :func:`_action_terms` multiplied out with plain matrix
    products and summed, so it is an oracle independent of the relation
    kernel the checkers run on.
    """
    word = (x,) if isinstance(x, str) else tuple(x)
    total = SparseMatrix(a.dim)
    for sign, *factors in _action_terms(data, word, a):
        total = total + reduce(mul, factors).scale(sign)
    return total


def _action_terms(data: HopfAlgebraData, word: tuple, *operands) -> list:
    """The terms (sign, sigma(x_(1)), operands..., sigma(S x_(2))) of
    x |> (a b ...) for a word x, over its sandwich pairs; sigma of the
    empty word, the identity, is left out of the word."""
    terms = []
    for sign, left, s_word in data.sandwich(word):
        factors = [data.sigma_word(left)] if left else []
        factors += operands
        if s_word:
            factors.append(data.sigma_word(s_word))
        terms.append((sign, *factors))
    return terms


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
    x |> (ab) = sum (x_(1) |> a)(x_(2) |> b) on all pairs a, b.  The inner
    actions y |> a, for y a generator or a coproduct leg, are computed
    once, by :func:`act`; every other action is a term table of
    :func:`_action_terms`, so x |> (ab) is the words
    sigma(x_(1)) a b sigma(S x_(2)) and no product ab is formed.
    """
    samples = _labelled_generators(gens)
    words = dict.fromkeys([(y,) for y in GENERATOR_NAMES]
                          + [leg for x in GENERATOR_NAMES
                             for pair in data.coproduct_word((x,))
                             for leg in pair])
    acts = {(word, label): act(word, a, data)
            for word in words for label, a in samples}
    zero = fock.zero(gens.modes)
    reports = []
    for x, y in product(GENERATOR_NAMES, repeat=2):
        for label, a in samples:
            rhs = [(-sign, *factors) for sign, *factors in
                   _action_terms(data, (x,), acts[(y,), label])]
            reports.append(RelationReport(
                "module-assoc", (x, y, label),
                f"({x}{y}) |> {label} = {x} |> ({y} |> {label})", zero,
                _action_terms(data, (x, y), a) + rhs))
    for x in GENERATOR_NAMES:
        for (la, a), (lb, b) in product(samples, repeat=2):
            rhs = [(-ONE, acts[left, la], acts[right, lb])
                   for left, right in data.coproduct_word((x,))]
            reports.append(RelationReport(
                "module-leibniz", (x, la, lb),
                f"{x} |> ({la}.{lb}) obeys the coproduct Leibniz rule", zero,
                _action_terms(data, (x,), a, b) + rhs))
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
    annihilators x |> A^i = rho(S x)^i_j A^j, with a term for each
    nonzero entry of rho(x) and rho(S x).  The undeformed generators are
    expected to fail this for generic q (negative control).
    """
    if gens.modes != 2:
        raise ValueError("covariance checking is built for two modes")
    zero = fock.zero(2)
    reports = []
    for x in GENERATOR_NAMES:
        rho_x = data.rho[x]
        for i in (1, 2):
            reports.append(RelationReport(
                "covariance-creator", (x, i),
                f"{x} |> Adag_{i} = rho({x})^j_{i} Adag_j", zero,
                _action_terms(data, (x,), gens.creators[i - 1])
                + [(-v, gens.creators[j - 1])
                   for j in (1, 2) if (v := rho_x.get(j - 1, i - 1))]))
        sign, s_word = data.antipode_word((x,))
        rho_sx = data.rho_word(s_word)
        for i in (1, 2):
            reports.append(RelationReport(
                "covariance-annihilator", (x, i),
                f"{x} |> A^{i} = rho(S {x})^{i}_j A^j", zero,
                _action_terms(data, (x,), gens.annihilators[i - 1])
                + [(-sign * v, gens.annihilators[j - 1])
                   for j in (1, 2) if (v := rho_sx.get(i - 1, j - 1))]))
    return reports


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

class InvariantElement:
    """A candidate invariant: its operator and the label its reports
    carry."""

    def __init__(self, expression: SparseMatrix, label: str):
        self.expression, self.label = expression, label


def invariant_number(gens: GeneratorSet, label: str) -> InvariantElement:
    """The quadratic invariant: sum over modes of Adag_i A^i."""
    total = fock.zero(gens.modes)
    for c, a in zip(gens.creators, gens.annihilators):
        total = total + c * a
    return InvariantElement(total, label)


def invariance_check(element: InvariantElement,
                     data: HopfAlgebraData) -> list[RelationReport]:
    """Residuals x |> I - eps(x) I under the deformed adjoint action for
    x in E, F, K, Kinv, then [x, I] under the classical commutator action
    for x in j+, j-, j0 (for which eps vanishes)."""
    expr, label = element.expression, element.label
    zero = SparseMatrix(expr.dim)
    deformed = [RelationReport(
        "invariance-deformed", (label, x),
        f"{x} |> {label} = eps({x}) {label}", zero,
        _action_terms(data, (x,), expr) + [(-data.counit[x], expr)])
        for x in ("E", "F", "K", "Kinv")]
    js = classical_js()
    classical = [RelationReport(
        "invariance-classical", (label, x), f"[{x}, {label}] = 0", zero,
        [(ONE, js[x], expr), (-ONE, expr, js[x])])
        for x in ("j+", "j-", "j0")]
    return deformed + classical


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
