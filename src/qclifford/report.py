"""Residual records shared by every verification routine.

A check never returns a bare boolean: it returns a
:class:`RelationReport` carrying the residual itself, so a failure can be
inspected and a report can be serialized.  ``exact_zero`` is decided by
structural equality of canonical rational functions, never by a float
comparison.  :func:`relation_report` is the one relation evaluator: every
checker writes its residual as start + sum coeff X Y and hands the term
table to it.
"""

from __future__ import annotations

from functools import partial

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
    """Outcome of one relation check.

    ``residual`` is the residual matrix: a FockOperator, an RMatrix (a
    SparseMatrix with block indices) or a plain SparseMatrix.  A report
    made by :meth:`deferred` builds it the first time it is read.
    ``exact_zero`` holds iff every entry is the canonical zero.
    ``numeric_max_abs`` is filled only when a numeric spot check at some
    q was requested.
    """

    __slots__ = ("family", "indices", "relation", "exact_zero",
                 "numeric_max_abs", "_residual", "_build", "_first")

    def __init__(self, family: str, indices: tuple, relation: str, residual,
                 exact_zero: bool, numeric_max_abs: float | None = None):
        self.family = family
        self.indices = indices
        self.relation = relation
        self.exact_zero = exact_zero
        self.numeric_max_abs = numeric_max_abs
        self._residual = residual
        self._build = None
        self._first = None

    @classmethod
    def deferred(cls, family: str, indices: tuple, relation: str, first,
                 build) -> "RelationReport":
        """A report whose residual is ``build()``, made on its first read.

        ``first`` is the residual's first nonzero entry in row-major order,
        ``(row, col, value)``, or None for the zero residual; it is all
        that :meth:`to_json` reads.
        """
        report = cls(family, indices, relation, None, first is None)
        report._first, report._build = first, build
        return report

    @property
    def residual(self):
        if self._build is not None:
            self._residual, self._build = self._build(), None
        return self._residual

    def worst_entry(self) -> str:
        if self.exact_zero:
            return "0"
        first = self._first or self.residual.first_nonzero()
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


def relation_report(family: str, indices: tuple, relation: str, start,
                    terms) -> RelationReport:
    """The report on the residual start + sum coeff X Y over (coeff, X, Y).

    ``start`` is a matrix of the residual's class (the zero operator, or
    minus the identity for a relation with a delta term); zero
    coefficients contribute nothing.  The entries are summed unreduced by
    :func:`linalg.product_sum_rows`: ``exact_zero`` holds iff none
    survives, which is iff the relation holds over Q(q), and only the first
    surviving entry, the worst entry, is reduced.  The canonical residual
    is built from the kept rows when it is first read.
    """
    rows = product_sum_rows(start, terms)
    return RelationReport.deferred(family, indices, relation,
                                   first_entry(rows),
                                   partial(reduce_rows, start, rows))


def summarize(reports: list[RelationReport]) -> dict:
    total = len(reports)
    zero = sum(1 for r in reports if r.exact_zero)
    return {"total": total, "exact_zero": zero, "failed": total - zero}
