"""Fock-space matrices for the N-mode fermionic algebra.

Every operator on the N-mode Fock space is a plain
:class:`linalg.SparseMatrix` of dimension 2^N, and :func:`read_operator`
reads one from JSON.  Generators are built by the Jordan-Wigner
construction: the creator for mode i acts as a parity string on modes
1..i-1 followed by a raising block on mode i, and the annihilator is its
transpose.  Basis states are indexed by occupation bitstrings with the
mode-1 bit most significant and bit value 1 meaning occupied, so the
vacuum is basis index 0.  All anticommutation residuals are exactly zero
by construction and asserted in the tests, never assumed.  The ordered
monomials (creators with ascending mode index, then annihilators with
ascending mode index) are listed here for the Poincare rank.
"""

from __future__ import annotations

from .linalg import (MAX_DIM, SparseMatrix, dim_guard_error, json_field,
                     json_int, json_object, read_rows)
from .scalar import ONE, q_power


def _fock_dim(n_modes: int) -> int:
    """2^n_modes once the mode count passes the dimension guard.

    The count is compared before any shift, so a huge count in untrusted
    input allocates nothing.
    """
    if not 1 <= n_modes <= MAX_DIM.bit_length() - 1:
        raise dim_guard_error(f"n_modes = {n_modes}")
    return 1 << n_modes


def read_operator(doc: dict, field: str) -> SparseMatrix:
    """An operator of a JSON generator set; ``field`` names it in errors.
    The mode count is guarded before its dim and entries are read."""
    json_object(doc, field)
    dim = _fock_dim(json_int(doc, "n_modes", field))
    if json_int(doc, "dim", field, dim) != dim:
        raise ValueError(f"{field}: dim field does not match n_modes")
    return SparseMatrix(dim, read_rows(json_field(doc, "entries", field), dim,
                                       f"{field}.entries"))


def identity(n_modes: int) -> SparseMatrix:
    return SparseMatrix(1 << n_modes).identity_like()


def zero(n_modes: int) -> SparseMatrix:
    return SparseMatrix(1 << n_modes)


def _mode_bit(n_modes: int, state: int, i: int) -> int:
    """Occupation of mode i (1-based) in basis state ``state``."""
    return (state >> (n_modes - i)) & 1


def build_generators(n_modes: int) -> list[tuple[SparseMatrix, SparseMatrix]]:
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
        creator = SparseMatrix(dim, rows)
        pairs.append((creator, creator.transpose()))
    return pairs


def number_op(n_modes: int, i: int) -> SparseMatrix:
    """n_i = adag_i a_i: diagonal occupation of mode i, idempotent."""
    if not 1 <= i <= n_modes:
        raise ValueError(f"mode index {i} out of range 1..{n_modes}")
    dim = 1 << n_modes
    rows = [({s: ONE} if _mode_bit(n_modes, s, i) else {})
            for s in range(dim)]
    return SparseMatrix(dim, rows)


def q_exponent(weights) -> SparseMatrix:
    """Diagonal operator q^(sum_i w_i n_i) for integer weights.

    Each basis state contributes the pure power q^(sum of the weights of
    its occupied modes); by idempotency of the n_i this coincides with
    the product of the factors 1 + (q^w - 1) n_i.
    """
    weights = list(weights)
    n_modes = len(weights)
    dim = 1 << n_modes
    powers: dict = {}
    rows = []
    for state in range(dim):
        expo = sum(w for i, w in enumerate(weights, start=1)
                   if _mode_bit(n_modes, state, i))
        power = powers.get(expo)
        if power is None:
            power = powers[expo] = q_power(expo)
        rows.append({state: power})
    return SparseMatrix(dim, rows)


def ordered_monomials(n_modes: int):
    """All 4^N ordered-monomial keys, vacuum-degree first within groups."""
    subsets = [tuple(m for m in range(1, n_modes + 1) if mask >> (m - 1) & 1)
               for mask in range(1 << n_modes)]
    return [(cre, ann) for cre in subsets for ann in subsets]
