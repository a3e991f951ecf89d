"""Residual records shared by every verification routine.

A check never returns a bare boolean: it returns a
:class:`RelationReport` carrying the residual itself, so a failure can be
inspected and a report can be serialized.  ``exact_zero`` is decided by
structural equality of canonical rational functions, never by a float
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass
class RelationReport:
    """Outcome of one relation check.

    ``residual`` is the full residual matrix: a FockOperator, an RMatrix
    (a SparseMatrix with block indices) or a plain SparseMatrix.
    ``exact_zero`` holds iff every entry is the canonical zero.
    ``numeric_max_abs`` is filled only when a numeric spot check at some
    q was requested.
    """

    family: str
    indices: tuple
    relation: str
    residual: object
    exact_zero: bool
    numeric_max_abs: float | None = None

    def worst_entry(self) -> str:
        if self.exact_zero:
            return "0"
        first = self.residual.first_nonzero()
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
