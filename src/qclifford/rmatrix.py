"""Braid matrices, the permutation matrix, and q-symmetrizers.

The sl(N) braid matrix acts on the N^2-dimensional tensor square of the
defining representation and is stored densely.  The index pair (i, j),
1-based, flattens to (i-1)*N + j (row-major); an entry written with
upper indices (ij) and lower indices (hk) sits at row (ij), column (hk).

Validity is never assumed: the Hecke identity
(Rhat - q)(Rhat + q^-1) = 0 and the braid identity on the cube of the
defining space are checked by exact multiplication, and the symmetrizer
is the spectral projector onto the q-eigenspace,

    P+_q = (Rhat + q^-1) / (q + q^-1),

which is idempotent whenever the Hecke identity holds and degenerates to
the symmetric projector (1 + P)/2 at q = 1.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import SparseMatrix, _as_scalar, rank as exact_rank, read_entry
from .report import RelationReport
from .scalar import ONE, Q, RationalFunction, ZERO, parse_rational, q_power


class RMatrix:
    """Dense dim x dim matrix over Q(q) with a block dimension tag.

    For the catalogued kinds dim = n^2 (tensor square of an n-dimensional
    space); residual matrices produced by the braid check live on the
    cube and carry dim = n^3.
    """

    __slots__ = ("n", "dim", "kind", "entries")

    def __init__(self, n: int, entries, kind: str = "user-supplied", dim=None):
        self.n = n
        self.dim = n * n if dim is None else dim
        self.kind = kind
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != self.dim or any(len(r) != self.dim for r in entries):
            raise ValueError(f"entries must form a {self.dim} x {self.dim} matrix")
        self.entries = entries

    # -- index helpers -------------------------------------------------------
    def flat(self, i: int, j: int) -> int:
        return (i - 1) * self.n + (j - 1)

    def block(self, i: int, j: int, h: int, k: int) -> RationalFunction:
        """Entry with upper (row) pair (i, j) and lower (column) pair (h, k)."""
        return self.entries[self.flat(i, j)][self.flat(h, k)]

    # -- arithmetic -----------------------------------------------------------
    def _wrap(self, entries, kind=None):
        return RMatrix(self.n, entries, kind or self.kind, dim=self.dim)

    def _check(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def __add__(self, other):
        self._check(other)
        return self._wrap([[a + b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._check(other)
        return self._wrap([[a - b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)])

    def __mul__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        self._check(other)
        dim = self.dim
        out = [[ZERO] * dim for _ in range(dim)]
        for r in range(dim):
            row = self.entries[r]
            for k in range(dim):
                v = row[k]
                if v.is_zero:
                    continue
                orow = other.entries[k]
                for c in range(dim):
                    if not orow[c].is_zero:
                        out[r][c] = out[r][c] + v * orow[c]
        return self._wrap(out)

    def scale(self, factor) -> "RMatrix":
        factor = _as_scalar(factor)
        return self._wrap([[v * factor for v in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self):
        return hash((self.dim, self.entries))

    @property
    def is_zero(self) -> bool:
        return all(v.is_zero for row in self.entries for v in row)

    def iter_entries(self):
        for r, row in enumerate(self.entries):
            for c, v in enumerate(row):
                if not v.is_zero:
                    yield r, c, v

    def first_nonzero(self):
        for item in self.iter_entries():
            return item
        return None

    def identity_like(self) -> "RMatrix":
        return self._wrap([[ONE if r == c else ZERO for c in range(self.dim)]
                           for r in range(self.dim)], kind="identity")

    def subst(self, point: Fraction) -> "RMatrix":
        """Exact substitution q := point."""
        point = Fraction(point)
        return self._wrap(
            [[RationalFunction.from_fraction(v.eval_at(point)) for v in row]
             for row in self.entries])

    def max_abs(self, point) -> float:
        worst = 0.0
        for row in self.entries:
            for v in row:
                if not v.is_zero:
                    worst = max(worst, abs(complex(v.eval_at(point))))
        return worst

    def rank(self) -> int:
        rows = [{c: v for c, v in enumerate(row) if not v.is_zero}
                for row in self.entries]
        return exact_rank(rows)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "kind": self.kind,
            "entries": [[r, c, str(v)] for r, c, v in self.iter_entries()],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "RMatrix":
        n = int(doc["n"])
        dim = int(doc.get("dim", n * n))
        entries = [[ZERO] * dim for _ in range(dim)]
        for entry in doc["entries"]:
            r, c, text = read_entry(entry, dim)
            entries[r][c] = parse_rational(text)
        return cls(n, entries, str(doc.get("kind", "user-supplied")), dim=dim)

    def __repr__(self):
        return f"<RMatrix n={self.n} dim={self.dim} kind={self.kind}>"


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _rhat_sl_entries(n: int):
    dim = n * n
    entries = [[ZERO] * dim for _ in range(dim)]
    omega = Q - q_power(-1)

    def flat(i, j):
        return (i - 1) * n + (j - 1)

    for i in range(1, n + 1):
        entries[flat(i, i)][flat(i, i)] = Q
        for j in range(1, n + 1):
            if i != j:
                entries[flat(i, j)][flat(j, i)] = ONE
            if i < j:
                entries[flat(i, j)][flat(i, j)] = omega
    return entries


def build_rhat_sl(n: int) -> RMatrix:
    """The sl(N) braid matrix: q on (ii, ii), 1 on (ij, ji) for i != j,
    and q - q^-1 on (ij, ij) for i < j."""
    if n < 2:
        raise ValueError("build_rhat_sl expects n >= 2")
    return RMatrix(n, _rhat_sl_entries(n), kind="braid-sl")


def _rhat_sl_any(n: int) -> RMatrix:
    """Internal variant allowing n = 1 (a single q on the 1 x 1 square)."""
    if n == 1:
        return RMatrix(1, [[Q]], kind="braid-sl")
    return build_rhat_sl(n)


def build_permutation(n: int) -> RMatrix:
    """The permutation matrix P with P^{ij}_{hk} = delta^i_k delta^j_h."""
    if n < 1:
        raise ValueError("build_permutation expects n >= 1")
    dim = n * n
    entries = [[ZERO] * dim for _ in range(dim)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entries[(i - 1) * n + (j - 1)][(j - 1) * n + (i - 1)] = ONE
    return RMatrix(n, entries, kind="permutation")


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def check_hecke(rhat: RMatrix, q_scalar: RationalFunction = Q) -> RelationReport:
    """Residual (Rhat - q)(Rhat + q^-1); exact-zero flag."""
    ident = rhat.identity_like()
    residual = (rhat - ident.scale(q_scalar)) * (rhat + ident.scale(q_scalar ** -1))
    return RelationReport(
        family="hecke",
        indices=(rhat.n,),
        relation="(Rhat - q)(Rhat + q^-1) = 0",
        residual=residual,
        exact_zero=residual.is_zero,
    )


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
    """Residual R12 R23 R12 - R23 R12 R23 on the cube of the block space."""
    r12 = _braid_factor(rhat, left=True)
    r23 = _braid_factor(rhat, left=False)
    residual = (r12 * r23) * r12 - (r23 * r12) * r23
    return RelationReport(
        family="braid",
        indices=(rhat.n,),
        relation="R12 R23 R12 = R23 R12 R23",
        residual=residual,
        exact_zero=residual.is_zero,
    )


# ---------------------------------------------------------------------------
# symmetrizers
# ---------------------------------------------------------------------------

def projector_sl(rhat: RMatrix, q_scalar: RationalFunction = Q) -> RMatrix:
    """q-symmetrizer (Rhat + q^-1)/(q + q^-1) for a Hecke braid matrix.

    The input must satisfy the Hecke identity at ``q_scalar``; the output
    is then idempotent and equals (1 + P)/2 at q = 1.
    """
    if not check_hecke(rhat, q_scalar).exact_zero:
        raise ValueError("input is not an sl-type braid matrix")
    qinv = q_scalar ** -1
    p = (rhat + rhat.identity_like().scale(qinv)).scale((q_scalar + qinv) ** -1)
    return RMatrix(rhat.n, p.entries, kind="projector-sl", dim=rhat.dim)


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
    ident = rhat.identity_like()
    numer = (rhat * rhat
             + rhat.scale(q_power(-1 - n) + q_power(-1))
             + ident.scale(q_power(-2 - n)))
    p = numer.scale(denom ** -1)
    p = RMatrix(n, p.entries, kind="projector-sp", dim=rhat.dim)
    residual = p * p - p
    idempotency = RelationReport(
        family="sp-idempotency",
        indices=(n,),
        relation="(P+_q)^2 = P+_q",
        residual=residual,
        exact_zero=residual.is_zero,
    )
    return p, idempotency
