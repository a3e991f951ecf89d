"""Independent oracles and negative controls that only the tests call.

No ``qclifford`` command runs this code, so it lives beside the tests
rather than in the package.  Each function is built from the package's
public names alone:

- the normal-ordering rewriter (``normal_form`` and its helpers), which
  reduces a generator word to the ordered-monomial basis; faithfulness
  of the Fock representation makes :func:`word_to_operator` its oracle;
- the gamma-function quotient of the deforming map's normalization;
- conjugated realizations alpha . X . alpha^-1;
- the star residual as it was formed before the relation evaluator
  decided it: every per-mode residual subtracted as a matrix;
- the chain controls: copy relabelling and the q = 1 degeneration;
- the chain relation writers as they were before they read q Rn and
  RM^-1 by their nonzero entries: every block looked up, zero blocks
  included, and every mixed coefficient formed as a product;
- specialization: q = 1 substituted into symbolic residuals and into the
  Hopf data, which the package builds over Q(q) only;
- the classical commutator action and the degree <= 2 invariant builders;
- the mirror-image Hopf structure, which the covariance suite rejects;
- the relation kernel as it was before the cleared form: every product
  summed as an unreduced fraction pair, unequal denominators
  cross-multiplied;
- the ordered-monomial keys, each monomial's plain row, and a rank of
  such rows modulo the prime 2^31 - 1 at random points q, in plain ints;
- the sl symmetrizer composed from an identity, a sum and two scalings.

Words are sequences of signed mode indices: +i stands for the creator
adag_i, -i for the annihilator a^i.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

from qclifford.chain import VARIANTS, chain_residuals
from qclifford.deform import (GeneratorSet, build_deforming_map,
                              undeformed_set)
from qclifford.fock import identity, zero
from qclifford.hopf import (ANTIPODE, COPRODUCT, HopfAlgebraData,
                            InvariantElement, deformed_js, invariant_number)
from qclifford.linalg import SparseMatrix, invert_dense
from qclifford.report import RelationReport
from qclifford.rmatrix import RMatrix, build_permutation, build_rhat_sl
from qclifford.scalar import ONE, Q, ZERO, RationalFunction, q_number


# ---------------------------------------------------------------------------
# ordered monomials and a rank modulo a prime
# ---------------------------------------------------------------------------

def ordered_monomials(n_modes: int):
    """All 4^N ordered-monomial keys (creator subset, annihilator subset),
    each subset ascending, in the order of the creator subset's mask and
    then the annihilator subset's, bit m - 1 standing for mode m."""
    subsets = [tuple(m for m in range(1, n_modes + 1) if mask >> (m - 1) & 1)
               for mask in range(1 << n_modes)]
    return [(cre, ann) for cre in subsets for ann in subsets]


def plain_rows(gens: GeneratorSet) -> list[dict]:
    """Each ordered monomial as a plain matrix product, flattened to the
    row over the columns r * 2^N + c."""
    dim = 1 << gens.modes
    pairs = list(zip(gens.creators, gens.annihilators))
    return [{r * dim + c: v for r, c, v in word_to_operator(
                [*cre, *(-i for i in ann)], pairs).iter_entries()}
            for cre, ann in ordered_monomials(gens.modes)]


#: the Mersenne prime of the modular rank
PRIME = 2 ** 31 - 1


def _value_mod(value: RationalFunction, point: int) -> int | None:
    """value at q = point modulo PRIME from its coefficient tuples alone
    (lowest degree first), or None at a pole."""
    num, den = (sum(c * pow(point, k, PRIME) for k, c in enumerate(p.coeffs))
                % PRIME for p in (value.num, value.den))
    return None if den == 0 else num * pow(den, -1, PRIME) % PRIME


def _rank_mod(rows) -> int:
    """Rank of rows mapping a column to an int modulo PRIME, by a sparse
    elimination that keeps each pivot row scaled to lead 1."""
    pivots: dict = {}
    for row in rows:
        work = {c: v for c, v in row.items() if v}
        while work:
            lead = min(work)
            pivot = pivots.get(lead)
            if pivot is None:
                inverse = pow(work[lead], -1, PRIME)
                pivots[lead] = {c: v * inverse % PRIME for c, v in work.items()}
                break
            factor = work[lead]
            for c, v in pivot.items():
                w = (work.get(c, 0) - factor * v) % PRIME
                if w:
                    work[c] = w
                else:
                    work.pop(c, None)
    return len(pivots)


def modular_rank(rows, seed: int = 2031, points: int = 2) -> int:
    """A lower bound on the rank over Q(q) of rows with RationalFunction
    entries, equal to it but for a chance of about rows * degree / PRIME:
    the largest rank modulo PRIME at the given number of random points
    q, drawn from ``random.Random(seed)``.

    A specialisation can only lower a rank, and an exact rank r survives
    at q unless an r x r minor, a nonzero polynomial in q, vanishes there
    (Schwartz-Zippel).  A point where an entry has a pole counts as rank
    0.  Only the coefficient tuples of the entries are read, and all the
    arithmetic is on plain ints.
    """
    rng = random.Random(seed)
    rows = list(rows)
    best = 0
    for _ in range(points):
        point = rng.randrange(2, PRIME - 1)
        values = [{c: _value_mod(v, point) for c, v in row.items()}
                  for row in rows]
        if all(v is not None for row in values for v in row.values()):
            best = max(best, _rank_mod(values))
    return best


# ---------------------------------------------------------------------------
# the composed sl symmetrizer
# ---------------------------------------------------------------------------

def composed_projector(rhat: RMatrix) -> RMatrix:
    """(Rhat + q^-1)/(q + q^-1) as the package once built it: an identity
    matrix, scaled, added to Rhat, and the sum scaled."""
    qinv = Q ** -1
    return (rhat + rhat.identity_like().scale(qinv)).scale((Q + qinv) ** -1)


# ---------------------------------------------------------------------------
# normal ordering
# ---------------------------------------------------------------------------

def word_to_operator(word, gens) -> SparseMatrix:
    """Plain matrix product of the generators named by ``word``."""
    n_modes = len(gens)
    op = identity(n_modes)
    for sym in word:
        i = abs(sym)
        if not 1 <= i <= n_modes:
            raise ValueError(f"symbol {sym} references mode outside 1..{n_modes}")
        op = op * (gens[i - 1][0] if sym > 0 else gens[i - 1][1])
    return op


@dataclass
class NormalPolynomial:
    """Linear combination of ordered monomials.

    Keys are pairs (creator indices ascending, annihilator indices
    ascending); values are nonzero scalars.  Fermionic nilpotency caps
    the key count at 4^N.
    """

    n_modes: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        for (cre, ann) in self.terms:
            for idx in (*cre, *ann):
                if not 1 <= idx <= self.n_modes:
                    raise ValueError(f"mode index {idx} out of range")
            if list(cre) != sorted(set(cre)) or list(ann) != sorted(set(ann)):
                raise ValueError(f"malformed ordered monomial {(cre, ann)}")
        self.terms = {k: v for k, v in self.terms.items() if not v.is_zero}

    def to_operator(self, gens) -> SparseMatrix:
        op = zero(self.n_modes)
        for (cre, ann), coeff in self.terms.items():
            word = [*cre, *(-i for i in ann)]
            op = op + word_to_operator(word, gens).scale(coeff)
        return op

    def __eq__(self, other):
        if not isinstance(other, NormalPolynomial):
            return NotImplemented
        return self.n_modes == other.n_modes and self.terms == other.terms


def normal_form(word, n_modes: int) -> NormalPolynomial:
    """Rewrite a generator word into the ordered-monomial basis.

    Repeatedly applies the anticommutation moves
    a^i adag_j -> delta_ij - adag_j a^i and the sign swaps that sort each
    group ascending; repeated generators vanish by nilpotency.
    """
    for sym in word:
        if sym == 0 or not 1 <= abs(sym) <= n_modes:
            raise ValueError(f"symbol {sym} references mode outside 1..{n_modes}")
    terms: dict = {}
    stack = [(tuple(word), ONE)]
    while stack:
        w, coeff = stack.pop()
        pos = _first_disorder(w)
        if pos is None:
            key = _split_ordered(w)
            if key is not None:
                total = terms.get(key, ZERO) + coeff
                if total.is_zero:
                    terms.pop(key, None)
                else:
                    terms[key] = total
            continue
        x, y = w[pos], w[pos + 1]
        head, tail = w[:pos], w[pos + 2:]
        if x == y:
            continue  # nilpotent
        if x < 0 and y > 0:
            # annihilator past creator: delta term plus signed swap
            if -x == y:
                stack.append((head + tail, coeff))
            stack.append((head + (y, x) + tail, -coeff))
        else:
            stack.append((head + (y, x) + tail, -coeff))
    return NormalPolynomial(n_modes, terms)


def _first_disorder(w):
    """Index of the first adjacent pair violating the normal order."""
    for k in range(len(w) - 1):
        x, y = w[k], w[k + 1]
        if x > 0 and y > 0:
            if x >= y:
                return k
        elif x < 0 and y < 0:
            if -x >= -y:
                return k
        elif x < 0 and y > 0:
            return k
    return None


def _split_ordered(w):
    """Key of an ordered word, or None when a repeat makes it vanish."""
    cre = tuple(s for s in w if s > 0)
    ann = tuple(-s for s in w if s < 0)
    if len(set(cre)) != len(cre) or len(set(ann)) != len(ann):
        return None
    return cre, ann


# ---------------------------------------------------------------------------
# scalars and realizations
# ---------------------------------------------------------------------------

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


def conjugate_realization(gens: GeneratorSet,
                          alpha: SparseMatrix) -> GeneratorSet:
    """New realization alpha . X . alpha^-1 for an invertible alpha."""
    try:
        alpha_inv = invert_dense(alpha)
    except ValueError:
        raise ValueError("alpha is singular (exact determinant zero)") from None
    return GeneratorSet([alpha * op * alpha_inv for op in gens.creators],
                        [alpha * op * alpha_inv for op in gens.annihilators])


def star_by_subtraction(gens: GeneratorSet) -> SparseMatrix:
    """The star residual formed by N matrix subtractions: the first
    nonzero star(A^i) - Adag_i, or mode 1's when every one vanishes."""
    residuals = [ann.transpose() - cre
                 for ann, cre in zip(gens.annihilators, gens.creators)]
    return next((r for r in residuals if r.nnz()), residuals[0])


# ---------------------------------------------------------------------------
# chain controls
# ---------------------------------------------------------------------------

def relabel_copies(gens: GeneratorSet, permutation) -> GeneratorSet:
    """Reassign copy labels: new copy alpha takes permutation[alpha-1]'s
    generators, M being the permutation's length.  Used as the
    misordering negative control."""
    perm = list(permutation)
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError("permutation must reorder 1..M")
    if not perm or gens.modes % len(perm):
        raise ValueError(f"{gens.modes} modes do not split into "
                         f"{len(perm)} copies")
    n = gens.modes // len(perm)

    def relabel(ops):
        return [op for alpha in perm for op in ops[(alpha - 1) * n:alpha * n]]

    return GeneratorSet(relabel(gens.creators), relabel(gens.annihilators))


def copy_braid(m: int, variant: str) -> RMatrix:
    """The copy braid of a chain variant: q P_M for diagonal-mixed, the
    sl(M) braid matrix for RM-braided-mixed."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if variant == "RM-braided-mixed":
        return build_rhat_sl(m)
    return build_permutation(m).scale(Q)


def at_one(reports) -> list[SparseMatrix]:
    """The residual of each report with q = 1 substituted."""
    return [rep.residual.subst(1) for rep in reports]


def classical_chain_check(m: int, n: int,
                          variant: str = "diagonal-mixed") -> list[SparseMatrix]:
    """Chain residuals of the undeformed M*N-mode generators at q = 1.

    The residuals are computed over Q(q) and then specialized: at q = 1
    the braid matrices become permutations, all families collapse to
    plain anticommutation relations, and every residual must vanish.
    """
    [reports] = chain_residuals(undeformed_set(m * n), build_rhat_sl(n),
                                [copy_braid(m, variant)])
    return at_one(reports)


def block(matrix: RMatrix, i: int, j: int, h: int, k: int) -> RationalFunction:
    """The entry of ``matrix`` at upper (row) pair (i, j) and lower
    (column) pair (h, k), zero included."""
    n = matrix.n
    return matrix.get((i - 1) * n + (j - 1), (h - 1) * n + (k - 1))


def all_pairs_chain_residuals(gens: GeneratorSet, rhat_n: RMatrix,
                              rhat_ms) -> list[list[RelationReport]]:
    """The reports of :func:`qclifford.chain.chain_residuals`, written with
    one term for every lower pair (h, k) and every copy pair (gamma,
    delta): each coefficient is read with :func:`block`, zero blocks
    included, and each mixed coefficient is the product of an RM^-1 block
    and an Rn block."""
    n = rhat_n.n
    m = gens.modes // n
    keys = list(product(range(1, m + 1), range(1, n + 1)))
    cre = dict(zip(keys, gens.creators))
    ann = dict(zip(keys, gens.annihilators))
    indices = [(a, b, i, j) for a in range(1, m + 1) for b in range(a, m + 1)
               for i, j in product(range(1, n + 1), repeat=2)]
    mode_pairs = list(product(range(1, n + 1), repeat=2))
    q_rn = rhat_n.scale(Q)
    null, minus_one = zero(gens.modes), -identity(gens.modes)
    ordering = [RelationReport(
        "chain-creator", (alpha, beta, i, j), "", null,
        [(ONE, cre[alpha, i], cre[beta, j])]
        + [(block(q_rn, h, k, i, j), cre[beta, h], cre[alpha, k])
           for h, k in mode_pairs])
        for alpha, beta, i, j in indices]
    ordering += [RelationReport(
        "chain-annihilator", (alpha, beta, i, j), "", null,
        [(ONE, ann[alpha, j], ann[beta, i])]
        + [(block(q_rn, i, j, h, k), ann[beta, k], ann[alpha, h])
           for h, k in mode_pairs])
        for alpha, beta, i, j in indices]
    out = []
    for rhat_m in rhat_ms:
        rm_inv = invert_dense(rhat_m)
        out.append(ordering + [RelationReport(
            "chain-mixed", (alpha, beta, i, j), "",
            minus_one if i == j and alpha == beta else null,
            [(ONE, ann[alpha, i], cre[beta, j])]
            + [(block(rm_inv, alpha, gamma, beta, delta)
                * block(rhat_n, i, h, j, k), cre[gamma, h], ann[delta, k])
               for gamma, delta in product(range(1, m + 1), repeat=2)
               for h, k in mode_pairs])
            for alpha, beta, i, j in indices])
    return out


def hopf_data_at(data: HopfAlgebraData, point) -> HopfAlgebraData:
    """The Hopf data with q := point substituted into sigma and rho, of the
    class of ``data`` (so the same frozen or mirror tables)."""
    return type(data)({name: op.subst(point) for name, op in data.sigma.items()},
                      {name: op.subst(point) for name, op in data.rho.items()})


# ---------------------------------------------------------------------------
# classical action and invariant builders
# ---------------------------------------------------------------------------

def classical_act(name: str, a: SparseMatrix, js: dict) -> SparseMatrix:
    """Commutator action of a classical generator."""
    g = js[name]
    return g * a - a * g


def invariant_from_tensor(coeffs: dict, gens: GeneratorSet, kind: str,
                          label: str = "user") -> InvariantElement:
    """Candidate invariant from a coefficient array.

    ``coeffs`` maps index tuples to scalars; each tuple selects a product
    of creators (kind "creators") or annihilators (kind "annihilators")
    in the given order.  The element is only assembled here; whether it
    is invariant is decided by ``hopf.invariance_check``.
    """
    if kind not in ("creators", "annihilators"):
        raise ValueError("kind must be 'creators' or 'annihilators'")
    source = gens.creators if kind == "creators" else gens.annihilators
    total = zero(gens.modes)
    for idx, coeff in coeffs.items():
        op = identity(gens.modes)
        for i in idx:
            op = op * source[i - 1]
        total = total + op.scale(coeff)
    return InvariantElement(total, label)


def degree_two_invariant_basis():
    """Labelled degree <= 2 invariant elements of both kinds.

    Returns (classical list, deformed list) built over the two-mode
    undeformed and dressed generators respectively: the unit, the
    quadratic number invariant, and the antisymmetric pair
    creator/annihilator bilinears.
    """
    plain = undeformed_set(2)
    dressed = build_deforming_map(2)

    def basis(gens: GeneratorSet, tag: str):
        eps = {(1, 2): ONE, (2, 1): -ONE}
        return [
            InvariantElement(identity(2), f"1{tag}"),
            invariant_number(gens, f"I1{tag}"),
            invariant_from_tensor(eps, gens, "creators", f"pair-creator{tag}"),
            invariant_from_tensor(eps, gens, "annihilators",
                                  f"pair-annihilator{tag}"),
        ]

    return basis(plain, ""), basis(dressed, "_q")


# ---------------------------------------------------------------------------
# the mirror Hopf structure
# ---------------------------------------------------------------------------

class MirrorHopfData(HopfAlgebraData):
    """The mirror-image convention D(E) = E@K + 1@E, D(F) = F@1 + Kinv@F,
    S(E) = -E Kinv, S(F) = -K F on the same sigma and rho: a negative
    control that the covariance of the dressed generators rejects."""

    coproduct = {**COPRODUCT,
                 "E": [(("E",), ("K",)), ((), ("E",))],
                 "F": [(("F",), ()), (("Kinv",), ("F",))]}
    antipode = {**ANTIPODE, "E": (-1, ("E", "Kinv")), "F": (-1, ("K", "F"))}


def mirror_js() -> MirrorHopfData:
    """The mirror Hopf structure on the self-checked data of
    ``hopf.deformed_js``."""
    data = deformed_js()
    return MirrorHopfData(data.sigma, data.rho)


# ---------------------------------------------------------------------------
# the fraction-pair relation kernel
# ---------------------------------------------------------------------------

def fraction_pair_rows(start: SparseMatrix, terms):
    """Yield (r, row) for each nonzero row of start + sum coeff * X * Y
    over (coeff, X, Y), in ascending row order, each entry an unreduced
    (num, den) pair of polynomials.

    The relation kernel before the cleared form of ``linalg``: every
    product coeff * X[r, k] * Y[k, c] is added to its entry in term
    order, over an equal denominator by adding numerators and over any
    other by cross-multiplying; an entry whose numerator cancels is
    dropped.  An X entry whose Y row is empty is skipped, and no row
    after a yielded one is read until the next is requested.
    """
    dim = start.dim
    table = []
    for coeff, x, y in terms:
        if coeff.is_zero:
            continue
        if x.dim != dim or y.dim != dim:
            raise ValueError(f"dimension mismatch: {dim} vs {x.dim} x {y.dim}")
        table.append((coeff.num, coeff.den, x.rows, y.rows))
    for r, row in enumerate(start.rows):
        out = {c: (v.num, v.den) for c, v in row.items()}
        for cn, cd, xrows, yrows in table:
            for k, xv in xrows[r].items():
                yrow = yrows[k]
                if not yrow:
                    continue
                xn, xd = cn * xv.num, cd * xv.den
                for c, yv in yrow.items():
                    num, den = xn * yv.num, xd * yv.den
                    entry = out.get(c)
                    if entry is None:
                        out[c] = num, den
                        continue
                    n0, d0 = entry
                    if d0.coeffs == den.coeffs:
                        num, den = n0 + num, d0
                    else:
                        num, den = n0 * den + num * d0, d0 * den
                    if num.is_zero:
                        del out[c]
                    else:
                        out[c] = num, den
        if out:
            yield r, out


def fraction_pair_residual(start: SparseMatrix, terms) -> SparseMatrix:
    """The rows of :func:`fraction_pair_rows` as a matrix of canonical
    entries, of the class of start."""
    rows: list = [{} for _ in range(start.dim)]
    for r, row in fraction_pair_rows(start, terms):
        rows[r] = {c: RationalFunction(num, den) for c, (num, den) in row.items()}
    return start._clone(rows)
