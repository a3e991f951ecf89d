"""Residual records shared by every verification routine.

A check never returns a bare boolean: it returns a
:class:`RelationReport` carrying the residual itself, so a failure can be
inspected and a report can be serialized.  ``exact_zero`` is decided
exactly over Q(q), never by a float comparison.  The
:class:`RelationReport` constructor is the one relation evaluator: every
checker writes its residual as start + sum coeff X Y, over plain
SparseMatrix operands (every Fock-space operator is one) or RMatrix ones,
and hands the term table to it, and a report is built no other way.
"""

from __future__ import annotations

from itertools import chain

from .linalg import first_entry, product_sum_rows, reduce_rows


#: Fixed choices that make every emitted number bit-exact reproducible.
#: Embedded verbatim in every report so independent runs can be diffed.
CONVENTIONS = {
    "mode_ordering": "mode 1 (up) is the leftmost tensor factor; basis index "
                     "bitstrings carry mode 1 in the most significant bit; "
                     "bit 1 = occupied; the vacuum is basis index 0",
    "number_operator": "n_i = adag_i a_i (diagonal, idempotent)",
    "creator_dressing": "Adag_i = q^(-sum_{j>i} n_j) adag_i and "
                        "A^i = a^i q^(-sum_{j>i} n_j)",
    "mixed_relation_coefficient": "A^1 Adag_1 + Adag_1 A^1 = 1 + (q^-2 - 1) "
                                  "Adag_2 A^2 for two modes",
    "symmetrizer_sl": "P+_q = (Rhat + q^-1)/(q + q^-1), the spectral "
                      "projector onto the q-eigenspace of Rhat",
    "p_q": "P_q = q^-1 Rhat",
    "rmatrix_flattening": "index pair (i, j) flattens to (i-1)*N + j, row-major",
    "coproduct": "D(E) = E@1 + K@E; D(F) = F@Kinv + 1@F; D(K) = K@K",
    "antipode": "S(E) = -Kinv E; S(F) = -F K; S(K) = Kinv",
    "counit": "eps(E) = eps(F) = 0; eps(K) = eps(Kinv) = 1",
    "fundamental_rep": "rho_q(E) = e_12, rho_q(F) = e_21, "
                       "rho_q(K) = diag(q, q^-1)",
    "q_number": "(m)_p = 1 + p + ... + p^(m-1)",
    "chain_flattening": "copy-major: chain mode (alpha, i) is flat mode "
                        "(alpha-1)*N + i",
}


class RelationReport:
    """The report on the residual start + sum coeff X Y over (coeff, X, Y).

    ``start`` is a matrix of the residual's class (an RMatrix or a plain
    SparseMatrix: the zero operator, or minus the identity for a relation
    with a delta term); zero coefficients contribute nothing.  The
    residual's rows are decided in order by :func:`linalg.product_sum_rows`,
    and the constructor takes only the first nonzero one: ``exact_zero``
    holds iff there is none, which is iff the relation holds over Q(q).  A
    passing report keeps no row.  A failing one stops at its first surviving
    row and keeps it with the suspended row generator; only the row's first
    entry, the worst entry, is reduced.  ``residual``, the canonical
    residual, finishes the generator when it is first read and is cached.
    ``numeric_max_abs`` is set by the caller only when a numeric spot check
    at some q was requested.
    """

    __slots__ = ("family", "indices", "relation", "numeric_max_abs",
                 "_start", "_first", "_rest", "_residual")

    def __init__(self, family: str, indices: tuple, relation: str, start,
                 terms=()):
        self.family = family
        self.indices = indices
        self.relation = relation
        self.numeric_max_abs = None
        self._start = start
        rows = product_sum_rows(start, terms)
        self._first = next(rows, None)
        self._rest = rows if self._first is not None else ()
        self._residual = None

    @property
    def exact_zero(self) -> bool:
        return self._first is None

    @property
    def residual(self):
        if self._residual is None:
            first = () if self._first is None else (self._first,)
            self._residual = reduce_rows(self._start,
                                         chain(first, self._rest))
            self._rest = ()
        return self._residual

    def worst_entry(self) -> str:
        first = first_entry(self._first)
        if first is None:
            return "0"
        r, c, v = first
        return f"{v} at ({r}, {c})"

    def to_json(self) -> dict:
        doc = {
            "family": self.family,
            "indices": list(self.indices),
            "relation": self.relation,
            "exact_zero": self.exact_zero,
            "worst_entry": self.worst_entry(),
        }
        if self.numeric_max_abs is not None:
            doc["numeric_max_abs"] = self.numeric_max_abs
        return doc


def summarize(reports: list[RelationReport]) -> dict:
    total = len(reports)
    zero = sum(1 for r in reports if r.exact_zero)
    return {"total": total, "exact_zero": zero, "failed": total - zero}
