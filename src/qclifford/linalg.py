"""Exact sparse linear algebra over Q(q).

Provides the shared :class:`SparseMatrix` container (dict-of-columns per
row, zero entries never stored) plus rank and inversion routines.  The
rank over Q(q) is decided by an echelon certificate first: nonzero rows
whose leading (lowest) columns are pairwise distinct are linearly
independent over any field, so their count is the rank.  When leading
columns collide it falls back to one-step fraction-free (Bareiss)
elimination on denominator-cleared rows, which keeps every intermediate
value a polynomial and every division exact.  :func:`rank_numeric` is the
same field elimination over plain :class:`fractions.Fraction` entries.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .scalar import ONE, Poly, RationalFunction, ZERO


def _as_scalar(value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, int):
        return RationalFunction(value)
    if isinstance(value, Fraction):
        return RationalFunction.from_fraction(value)
    raise TypeError(f"cannot scale by {type(value).__name__}")


_DEFAULT_MAX_DIM = 4096  # Fock dimension 2^12


def max_dim() -> int:
    """Largest matrix dimension that is built or read (QCLIFFORD_MAX_DIM)."""
    return int(os.environ.get("QCLIFFORD_MAX_DIM", _DEFAULT_MAX_DIM))


def dim_guard_error(what: str) -> ValueError:
    """The error for a size that fails the :func:`max_dim` guard."""
    limit = max_dim()
    return ValueError(f"{what} outside the supported range "
                      f"(dimension guard {limit}, override with QCLIFFORD_MAX_DIM)")


def read_entry(entry, dim: int) -> tuple[int, int, str]:
    """(row, column, text) of one ``[r, c, text]`` JSON matrix entry,
    rejecting an index outside the dim x dim matrix."""
    r, c, text = entry
    r, c = int(r), int(c)
    if not (0 <= r < dim and 0 <= c < dim):
        raise ValueError(f"entry {[r, c, text]} lies outside the "
                         f"{dim} x {dim} matrix")
    return r, c, text


class SparseMatrix:
    """Square sparse matrix over Q(q).

    ``rows[r]`` maps column index to a nonzero :class:`RationalFunction`.
    Values are immutable by convention: operations allocate fresh
    matrices and never mutate their inputs.
    """

    __slots__ = ("dim", "rows")

    def __init__(self, dim: int, rows=None):
        self.dim = dim
        if rows is None:
            rows = tuple({} for _ in range(dim))
        self.rows = tuple(rows)

    def _clone(self, rows):
        return SparseMatrix(self.dim, rows)

    @classmethod
    def identity(cls, dim: int) -> "SparseMatrix":
        return cls(dim, tuple({r: ONE} for r in range(dim)))

    # -- access --------------------------------------------------------------
    def get(self, r: int, c: int) -> RationalFunction:
        return self.rows[r].get(c, ZERO)

    def iter_entries(self):
        """Yield (row, col, value) in row-major order."""
        for r, row in enumerate(self.rows):
            for c in sorted(row):
                yield r, c, row[c]

    def column(self, c: int) -> dict:
        return {r: row[c] for r, row in enumerate(self.rows) if c in row}

    @property
    def is_zero(self) -> bool:
        return all(not row for row in self.rows)

    def nnz(self) -> int:
        return sum(len(row) for row in self.rows)

    def trace(self) -> RationalFunction:
        total = ZERO
        for r in range(self.dim):
            total = total + self.rows[r].get(r, ZERO)
        return total

    # -- arithmetic -----------------------------------------------------------
    def _check_dim(self, other):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        self._check_dim(other)
        rows = []
        for a, b in zip(self.rows, other.rows):
            row = dict(a)
            for c, v in b.items():
                s = row.get(c, ZERO) + v
                if s.is_zero:
                    row.pop(c, None)
                else:
                    row[c] = s
            rows.append(row)
        return self._clone(rows)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._clone([{c: -v for c, v in row.items()} for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, SparseMatrix):
            self._check_dim(other)
            rows = []
            for arow in self.rows:
                out: dict[int, RationalFunction] = {}
                for k, av in arow.items():
                    for c, bv in other.rows[k].items():
                        s = out.get(c, ZERO) + av * bv
                        if s.is_zero:
                            out.pop(c, None)
                        else:
                            out[c] = s
                rows.append(out)
            return self._clone(rows)
        return NotImplemented

    def scale(self, factor) -> "SparseMatrix":
        factor = _as_scalar(factor)
        if factor.is_zero:
            return self._clone([{} for _ in range(self.dim)])
        return self._clone([{c: v * factor for c, v in row.items()}
                            for row in self.rows])

    def transpose(self) -> "SparseMatrix":
        rows: list[dict] = [{} for _ in range(self.dim)]
        for r, row in enumerate(self.rows):
            for c, v in row.items():
                rows[c][r] = v
        return self._clone(rows)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.dim == other.dim and all(
            a == b for a, b in zip(self.rows, other.rows))

    def __hash__(self):
        return hash((self.dim,
                     tuple(tuple(sorted(row.items())) for row in self.rows)))

    # -- evaluation -----------------------------------------------------------
    def eval_entries(self, point):
        """Substitute a numeric q into every entry; exact on rationals."""
        rows = []
        for row in self.rows:
            out = {}
            for c, v in row.items():
                val = v.eval_at(point)
                if val != 0:
                    out[c] = val
            rows.append(out)
        return rows

    def subst(self, point: Fraction) -> "SparseMatrix":
        """Exact substitution q := point, returned over constant scalars."""
        rows = []
        for row in self.rows:
            out = {}
            for c, v in row.items():
                val = v.eval_at(Fraction(point))
                if val != 0:
                    out[c] = RationalFunction.from_fraction(val)
            rows.append(out)
        return self._clone(rows)

    def max_abs(self, point) -> float:
        """Largest entry magnitude after numeric evaluation at ``point``."""
        worst = 0.0
        for row in self.rows:
            for v in row.values():
                worst = max(worst, abs(complex(v.eval_at(point))))
        return worst

    def first_nonzero(self):
        for r, c, v in self.iter_entries():
            return r, c, v
        return None

    def __repr__(self):
        return f"<{type(self).__name__} dim={self.dim} nnz={self.nnz()}>"


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def _clear_denominators(row: dict[int, RationalFunction]) -> dict[int, Poly]:
    """Scale a row by the lcm of its denominators; entries become Poly."""
    lcm = Poly.const(1)
    for v in row.values():
        g = Poly.gcd(lcm, v.den)
        lcm = lcm * v.den.div_exact(g)
    return {c: v.num * lcm.div_exact(v.den) for c, v in row.items()}


def rank(rows, ncols: int | None = None) -> int:
    """Exact rank of a collection of sparse rows over Q(q).

    ``rows`` is an iterable of dicts mapping column index to
    RationalFunction.  If the leading columns of the nonzero rows are
    pairwise distinct, the rows are independent (sorted by leading column
    they form an echelon matrix) and their count is returned at once.
    Otherwise fraction-free elimination runs: rows are cleared to
    polynomial entries, then Bareiss updates keep all intermediates in
    Z[q] with exact divisions only.
    """
    nonzero = []
    for r in rows:
        row = {c: v for c, v in r.items() if not v.is_zero}
        if row:
            nonzero.append(row)
    if len({min(row) for row in nonzero}) == len(nonzero):
        return len(nonzero)
    active = [_clear_denominators(r) for r in nonzero]
    rank_count = 0
    prev_pivot = Poly.const(1)
    while active:
        # smallest row first keeps the fill-in low
        active.sort(key=len)
        pivot_row = active.pop(0)
        pivot_col = min(pivot_row)
        pivot_val = pivot_row[pivot_col]
        rank_count += 1
        updated = []
        for row in active:
            coeff = row.get(pivot_col)
            out: dict[int, Poly] = {}
            cols = set(row)
            if coeff is not None:
                cols |= set(pivot_row)
            for c in cols:
                if c == pivot_col:
                    continue
                term = row.get(c, Poly()) * pivot_val
                if coeff is not None:
                    term = term - pivot_row.get(c, Poly()) * coeff
                if not term.is_zero:
                    out[c] = term.div_exact(prev_pivot)
            if out:
                updated.append(out)
        active = updated
        prev_pivot = pivot_val
    return rank_count


def rank_numeric(rows) -> int:
    """Rank of rows with Fraction entries (exact field elimination)."""
    pivots: dict[int, dict[int, Fraction]] = {}
    count = 0
    for row in rows:
        work = {c: Fraction(v) for c, v in row.items() if v != 0}
        while work:
            lead = min(work)
            if lead not in pivots:
                pivots[lead] = work
                count += 1
                break
            piv = pivots[lead]
            factor = work[lead] / piv[lead]
            for c, v in piv.items():
                s = work.get(c, Fraction(0)) - factor * v
                if s:
                    work[c] = s
                else:
                    work.pop(c, None)
        # empty work: row dependent
    return count


# ---------------------------------------------------------------------------
# dense inversion over the field
# ---------------------------------------------------------------------------

def invert_dense(matrix: list[list[RationalFunction]]) -> list[list[RationalFunction]]:
    """Invert a dense matrix over Q(q) by Gauss-Jordan elimination.

    Raises ValueError("matrix is singular") when no inverse exists.
    """
    n = len(matrix)
    work = [list(row) for row in matrix]
    inv = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not work[r][col].is_zero:
                pivot = r
                break
        if pivot is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = work[col][col]
        work[col] = [v / scale for v in work[col]]
        inv[col] = [v / scale for v in inv[col]]
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if factor.is_zero:
                continue
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
            inv[r] = [a - factor * b for a, b in zip(inv[r], inv[col])]
    return inv


def invert_sparse(matrix: SparseMatrix) -> SparseMatrix:
    """Inverse of a SparseMatrix (dense elimination internally)."""
    n = matrix.dim
    dense = [[matrix.get(r, c) for c in range(n)] for r in range(n)]
    inv = invert_dense(dense)
    rows = []
    for r in range(n):
        rows.append({c: inv[r][c] for c in range(n) if not inv[r][c].is_zero})
    return matrix._clone(rows)
