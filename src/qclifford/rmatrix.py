"""Braid matrices, the permutation matrix, and q-symmetrizers.

The sl(N) braid matrix acts on the N^2-dimensional tensor square of the
defining representation and is a :class:`SparseMatrix` with block
indices.  The index pair (i, j), 1-based, flattens to (i-1)*N + j
(row-major); an entry written with upper indices (ij) and lower indices
(hk) sits at row (ij), column (hk).

Validity is never assumed: the Hecke identity
(Rhat - q)(Rhat + q^-1) = 0 and the braid identity on the cube of the
defining space are checked exactly, each as one residual
start + sum coeff F1 ... Fk over words of matrices for
:class:`report.RelationReport`, with no product matrix formed (the Hecke
residual is Rhat^2 + (q^-1 - q) Rhat - 1; the braid residual is
R12 R23 R12 - R23 R12 R23), and the symmetrizer is the spectral
projector onto the q-eigenspace,

    P+_q = (Rhat + q^-1) / (q + q^-1),

which is idempotent whenever the Hecke identity holds, and which is
written entry by entry, one product per distinct value.  Every check is
over Q(q); substituting q = 1 into P+_q gives (1 + P)/2.  The sp
symmetrizer expression is summed by :func:`linalg.product_sum` and its
idempotency residual P^2 - P by the relation evaluator.
"""

from __future__ import annotations

from .linalg import (MAX_DIM, SparseMatrix, dim_guard_error, json_field,
                     json_int, json_object, product_sum, read_rows)
from .report import RelationReport
from .scalar import ONE, Q, ZERO, q_power


class RMatrix(SparseMatrix):
    """Sparse dim x dim matrix over Q(q) with a block dimension tag:
    dim = n^2, the tensor square of an n-dimensional space."""

    __slots__ = ("n",)

    # the shared sparse product, bound on this class so that products of
    # braid-type matrices can be timed apart from Fock-space ones
    __mul__ = SparseMatrix.__mul__

    def __init__(self, n: int, rows=None):
        super().__init__(n * n, rows)
        self.n = n

    def _clone(self, rows):
        return RMatrix(self.n, rows)

    def to_json(self, kind: str = "user-supplied") -> dict:
        """The matrix as JSON, tagged with ``kind`` (say "braid-sl"); a
        reader ignores the tag."""
        return {
            "n": self.n,
            "dim": self.dim,
            "kind": kind,
            "entries": [[r, c, str(v)] for r, c, v in self.iter_entries()],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "RMatrix":
        field = "braid matrix"
        json_object(doc, field)
        n = json_int(doc, "n", field)
        if n < 1:
            raise ValueError(f"n = {n} is not a positive block dimension")
        dim = json_int(doc, "dim", field, n * n)
        if not 1 <= dim <= MAX_DIM:
            raise dim_guard_error(f"dim = {dim}")
        if dim != n * n:
            raise ValueError(f"dim = {dim} is not n^2 = {n * n} for n = {n}")
        return cls(n, read_rows(json_field(doc, "entries", field), dim))

    def __repr__(self):
        return f"<RMatrix n={self.n} dim={self.dim}>"


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_rhat_sl(n: int) -> RMatrix:
    """The sl(N) braid matrix: q on (ii, ii), 1 on (ij, ji) for i != j,
    and q - q^-1 on (ij, ij) for i < j.  N = 1 gives the single entry q,
    the braid matrix of a one-mode system or of one copy."""
    if n < 1:
        raise ValueError("the sl braid matrix expects n >= 1")
    omega = Q - q_power(-1)
    rows: list[dict] = [{} for _ in range(n * n)]
    for i in range(n):
        rows[i * n + i][i * n + i] = Q
        for j in range(i + 1, n):
            rows[i * n + j] = {i * n + j: omega, j * n + i: ONE}
            rows[j * n + i] = {i * n + j: ONE}
    return RMatrix(n, rows)


def build_permutation(n: int) -> RMatrix:
    """The permutation matrix P with P^{ij}_{hk} = delta^i_k delta^j_h."""
    if n < 1:
        raise ValueError("build_permutation expects n >= 1")
    return RMatrix(n, [{j * n + i: ONE} for i in range(n) for j in range(n)])


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def check_hecke(rhat: RMatrix) -> RelationReport:
    """Residual (Rhat - q)(Rhat + q^-1) = Rhat^2 + (q^-1 - q) Rhat - 1."""
    minus_one = rhat._clone([{r: -ONE} for r in range(rhat.dim)])
    return RelationReport(
        "hecke", (rhat.n,), "(Rhat - q)(Rhat + q^-1) = 0", minus_one,
        [(ONE, rhat, rhat), (q_power(-1) - Q, rhat)])


def _braid_factor(rhat: RMatrix, left: bool) -> SparseMatrix:
    """Rhat acting on positions (1,2) or (2,3) of the cube, as a sparse map."""
    n = rhat.n
    dim3 = n ** 3
    rows: list[dict] = [dict() for _ in range(dim3)]
    for r, c, v in rhat.iter_entries():
        i, j = divmod(r, n)
        h, k = divmod(c, n)
        for m in range(n):
            if left:
                rows[(i * n + j) * n + m][(h * n + k) * n + m] = v
            else:
                rows[(m * n + i) * n + j][(m * n + h) * n + k] = v
    return SparseMatrix(dim3, rows)


def check_braid(rhat: RMatrix) -> RelationReport:
    """Residual R12 R23 R12 - R23 R12 R23 on the cube of the block space,
    as two words of three matrices."""
    r12 = _braid_factor(rhat, left=True)
    r23 = _braid_factor(rhat, left=False)
    return RelationReport(
        "braid", (rhat.n,), "R12 R23 R12 = R23 R12 R23", SparseMatrix(r12.dim),
        [(ONE, r12, r23, r12), (-ONE, r23, r12, r23)])


# ---------------------------------------------------------------------------
# symmetrizers
# ---------------------------------------------------------------------------

def projector_sl(rhat: RMatrix) -> RMatrix:
    """q-symmetrizer (Rhat + q^-1)/(q + q^-1) for a Hecke braid matrix.

    The input must satisfy the Hecke identity over Q(q), which is checked
    first; the output is then idempotent, and substituting q = 1 gives
    (1 + P)/2.  It is written entry by entry, with no identity matrix, no
    sum and no scaled copy formed: a diagonal entry that Rhat lacks has
    the value zero, an entry that cancels is not stored, and each entry is
    formed once per distinct (on-diagonal, value) pair of Rhat and shared
    by every entry with that pair, four products for every sl braid
    matrix of N >= 2, whatever N.
    """
    if not check_hecke(rhat).exact_zero:
        raise ValueError("input is not an sl-type braid matrix")
    qinv = q_power(-1)
    factor = (Q + qinv) ** -1
    values: dict = {}
    rows = []
    for r, row in enumerate(rhat.rows):
        if r not in row:
            row = {**row, r: ZERO}
        out = {}
        for c, v in row.items():
            key = c == r, v
            value = values.get(key)
            if value is None:
                value = values[key] = (v + qinv if c == r else v) * factor
            if value:
                out[c] = value
        rows.append(out)
    return rhat._clone(rows)


def projector_sp(rhat: RMatrix) -> tuple[RMatrix, RelationReport]:
    """The sp(N) symmetrizer expression applied to a user-supplied braid.

    Evaluates (Rhat^2 + (q^-1-N + q^-1) Rhat + q^-2-N) divided by
    (q + q^-1)(q - q^-1-N) on the given matrix.  No sp braid matrix is
    bundled, so idempotency of the result is CHECKED and reported, never
    assumed; feeding an sl braid matrix is the standard negative control.
    """
    n = rhat.n
    denom = (Q + q_power(-1)) * (Q - q_power(-1 - n))
    if denom.is_zero:
        raise ZeroDivisionError("sp symmetrizer denominator vanishes identically")
    inv = denom ** -1
    zero = RMatrix(n)
    p = product_sum(zero,
                    [(inv, rhat, rhat),
                     ((q_power(-1 - n) + q_power(-1)) * inv, rhat),
                     (q_power(-2 - n) * inv, rhat.identity_like())])
    idempotency = RelationReport(
        "sp-idempotency", (n,), "(P+_q)^2 = P+_q", zero,
        [(ONE, p, p), (-ONE, p)])
    return p, idempotency
