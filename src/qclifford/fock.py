"""Fock-space matrices for the N-mode fermionic algebra.

Generators are built by the Jordan-Wigner construction: the creator for
mode i acts as a parity string on modes 1..i-1 followed by a raising
block on mode i, and the annihilator is its transpose.  Basis states are
indexed by occupation bitstrings with the mode-1 bit most significant and
bit value 1 meaning occupied, so the vacuum is basis index 0.  All
anticommutation residuals are exactly zero by construction and asserted
in the tests, never assumed.

The module also houses the normal-ordering rewriting engine: a word in
the generators is reduced to the ordered-monomial basis (creators with
ascending mode index, then annihilators with ascending mode index) with
the correct signs and delta contractions.  Faithfulness of the matrix
representation makes matrix multiplication an independent oracle for the
rewriter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .linalg import SparseMatrix, dim_guard_error, max_dim, read_entry
from .scalar import ONE, ZERO, parse_rational, q_power


def _fock_dim(n_modes: int) -> int:
    """2^n_modes once the mode count passes the dimension guard.

    The count is compared before any shift, so a huge count in untrusted
    input allocates nothing.
    """
    if not 1 <= n_modes <= max(max_dim(), 1).bit_length() - 1:
        raise dim_guard_error(f"n_modes = {n_modes}")
    return 1 << n_modes


class FockOperator(SparseMatrix):
    """Sparse 2^N x 2^N matrix over Q(q) acting on the N-mode Fock space."""

    __slots__ = ("n_modes",)

    def __init__(self, n_modes: int, rows=None):
        super().__init__(1 << n_modes, rows)
        self.n_modes = n_modes

    def _clone(self, rows):
        return FockOperator(self.n_modes, rows)

    def star(self) -> "FockOperator":
        """The involution fixing the scalars: plain transpose.

        Sends each creator to its annihilator and conversely, and is an
        antihomomorphism on products.
        """
        return self.transpose()

    def to_json(self) -> dict:
        return {
            "n_modes": self.n_modes,
            "dim": self.dim,
            "entries": [[r, c, str(v)] for r, c, v in self.iter_entries()],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FockOperator":
        n = int(doc["n_modes"])
        dim = _fock_dim(n)
        if int(doc.get("dim", dim)) != dim:
            raise ValueError("dim field does not match n_modes")
        rows = [dict() for _ in range(dim)]
        for entry in doc["entries"]:
            r, c, text = read_entry(entry, dim)
            v = parse_rational(text)
            if not v.is_zero:
                rows[r][c] = v
        return cls(n, rows)


def identity(n_modes: int) -> FockOperator:
    return FockOperator(n_modes, tuple({r: ONE} for r in range(1 << n_modes)))


def zero(n_modes: int) -> FockOperator:
    return FockOperator(n_modes)


def _mode_bit(n_modes: int, state: int, i: int) -> int:
    """Occupation of mode i (1-based) in basis state ``state``."""
    return (state >> (n_modes - i)) & 1


def build_generators(n_modes: int) -> list[tuple[FockOperator, FockOperator]]:
    """Jordan-Wigner creator/annihilator pairs [(adag_1, a_1), ...].

    The creator for mode i sends a state with mode i empty to the same
    state with mode i occupied, with sign (-1)^(number of occupied modes
    before i); the annihilator is the transpose.
    """
    dim = _fock_dim(n_modes)
    pairs = []
    minus_one = -ONE
    for i in range(1, n_modes + 1):
        mask = 1 << (n_modes - i)
        rows: list[dict] = [dict() for _ in range(dim)]
        for state in range(dim):
            if state & mask:
                continue
            parity = bin(state >> (n_modes - i + 1)).count("1") & 1
            rows[state | mask][state] = minus_one if parity else ONE
        creator = FockOperator(n_modes, rows)
        pairs.append((creator, creator.star()))
    return pairs


def number_op(n_modes: int, i: int) -> FockOperator:
    """n_i = adag_i a_i: diagonal occupation of mode i, idempotent."""
    if not 1 <= i <= n_modes:
        raise ValueError(f"mode index {i} out of range 1..{n_modes}")
    dim = 1 << n_modes
    rows = [({s: ONE} if _mode_bit(n_modes, s, i) else {})
            for s in range(dim)]
    return FockOperator(n_modes, rows)


def q_exponent(weights) -> FockOperator:
    """Diagonal operator q^(sum_i w_i n_i) for integer weights.

    Each basis state contributes the pure power q^(sum of the weights of
    its occupied modes); by idempotency of the n_i this coincides with
    the product of the factors 1 + (q^w - 1) n_i.
    """
    weights = list(weights)
    n_modes = len(weights)
    dim = 1 << n_modes
    rows = []
    for state in range(dim):
        expo = sum(w for i, w in enumerate(weights, start=1)
                   if _mode_bit(n_modes, state, i))
        rows.append({state: q_power(expo)})
    return FockOperator(n_modes, rows)


def star(op: FockOperator) -> FockOperator:
    return op.star()


# ---------------------------------------------------------------------------
# normal ordering
# ---------------------------------------------------------------------------
#
# Words are sequences of signed mode indices: +i stands for the creator
# adag_i, -i for the annihilator a^i.

def word_to_operator(word, gens) -> FockOperator:
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

    def to_operator(self, gens) -> FockOperator:
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


def ordered_monomials(n_modes: int):
    """All 4^N ordered-monomial keys, vacuum-degree first within groups."""
    subsets = []
    modes = list(range(1, n_modes + 1))
    for mask in range(1 << n_modes):
        subsets.append(tuple(m for k, m in enumerate(modes) if mask >> k & 1))
    return [(cre, ann) for cre in subsets for ann in subsets]


def dump_operator(op: FockOperator) -> str:
    return json.dumps(op.to_json())


def load_operator(text: str) -> FockOperator:
    return FockOperator.from_json(json.loads(text))
