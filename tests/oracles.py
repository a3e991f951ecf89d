"""Independent oracles and negative controls that only the tests call.

No ``qclifford`` command runs this code, so it lives beside the tests
rather than in the package.  Each function is built from the package's
public names alone:

- the normal-ordering rewriter (``normal_form`` and its helpers), which
  reduces a generator word to the ordered-monomial basis; faithfulness
  of the Fock representation makes :func:`word_to_operator` its oracle;
- the gamma-function quotient of the deforming map's normalization;
- conjugated realizations alpha . X . alpha^-1;
- the chain controls: copy relabelling and the q = 1 degeneration;
- the classical commutator action and the degree <= 2 invariant builders;
- the mirror-image Hopf structure, which the covariance suite rejects.

Words are sequences of signed mode indices: +i stands for the creator
adag_i, -i for the annihilator a^i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from qclifford.chain import VARIANTS, chain_residuals
from qclifford.deform import (GeneratorSet, build_deforming_map,
                              undeformed_set)
from qclifford.fock import identity, zero
from qclifford.hopf import (ANTIPODE, COPRODUCT, HopfAlgebraData,
                            InvariantElement, deformed_js, invariant_number)
from qclifford.linalg import SparseMatrix, invert_dense
from qclifford.report import RelationReport
from qclifford.rmatrix import build_permutation
from qclifford.scalar import ONE, Q, ZERO, RationalFunction, q_number


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


def classical_chain_check(m: int, n: int,
                          variant: str = "diagonal-mixed") -> list[RelationReport]:
    """Chain relations at q = 1 on undeformed M*N-mode generators.

    With permutation matrices in place of the braid data all families
    collapse to plain anticommutation relations and must hold exactly.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    rhat_m = build_permutation(m) if variant == "RM-braided-mixed" else None
    return chain_residuals(undeformed_set(m * n), build_permutation(n),
                           rhat_m, q_scalar=ONE)


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


def mirror_js(q_scalar: RationalFunction = Q) -> MirrorHopfData:
    """The mirror Hopf structure on the self-checked data of
    ``hopf.deformed_js``."""
    data = deformed_js(q_scalar)
    return MirrorHopfData(data.q_scalar, data.sigma, data.rho)
