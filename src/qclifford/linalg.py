"""Exact sparse linear algebra over Q(q).

Provides the shared :class:`SparseMatrix` container (dict-of-columns per
row, zero entries never stored), the fused sum-of-products kernel, and
one sparse forward elimination over a field behind the exact rank over
Q(q), the rank over :class:`fractions.Fraction` entries and the inverse.
Rows whose leading (lowest) columns are pairwise distinct are linearly
independent over any field, and the elimination keeps such rows without
arithmetic, so on them the rank is a count.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import ONE, RationalFunction, ZERO, _coerce, parse_rational


#: largest matrix dimension that is built or read (Fock dimension 2^12)
MAX_DIM = 4096


def dim_guard_error(what: str) -> ValueError:
    """The error for a size that fails the :data:`MAX_DIM` guard."""
    return ValueError(f"{what} outside the supported range "
                      f"(dimension guard {MAX_DIM})")


def json_object(doc, field: str) -> dict:
    """doc, once it is checked to be a JSON object; field names it."""
    if not isinstance(doc, dict):
        raise ValueError(f"{field} must be a JSON object")
    return doc


def json_field(doc: dict, key: str, field: str):
    """doc[key] of the JSON object that ``field`` names, or an error that
    names the missing key."""
    if key not in doc:
        raise ValueError(f'{field} has no "{key}"')
    return doc[key]


def json_int(doc: dict, key: str, field: str,
             default: int | None = None) -> int:
    """doc[key] as a plain JSON integer, or ``default`` when the key is
    absent and a default is given.  A boolean, a number with a fraction
    part, a string or a list is refused, not converted."""
    if default is not None and key not in doc:
        return default
    value = json_field(doc, key, field)
    if type(value) is not int:
        raise ValueError(f'{field}: "{key}" must be an integer, '
                         f'not {type(value).__name__}')
    return value


def read_rows(entries, dim: int, field: str = "entries") -> list[dict]:
    """Sparse rows of a dim x dim matrix from ``[r, c, text]`` JSON entries.

    Every entry is checked before the rows are allocated: it must be a
    list of two integer indices inside the matrix and a string value, and
    an error names it as ``field[i]``, as does an error in its text.  A
    later entry for the same position replaces an earlier one, and a zero
    value is not stored.
    """
    if not isinstance(entries, list):
        raise ValueError(f"{field} must be a list of [row, col, text] entries")
    for i, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 3
                and type(entry[0]) is int and type(entry[1]) is int
                and isinstance(entry[2], str)):
            raise ValueError(f"{field}[{i}] is not [row, col, text] with "
                             f"integer indices and a string value")
        r, c, _ = entry
        if not (0 <= r < dim and 0 <= c < dim):
            raise ValueError(f"{field}[{i}]: entry {entry} lies outside the "
                             f"{dim} x {dim} matrix")
    rows: list[dict] = [{} for _ in range(dim)]
    for i, (r, c, text) in enumerate(entries):
        try:
            value = parse_rational(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise type(exc)(f"{field}[{i}]: {exc}") from None
        if value.is_zero:
            rows[r].pop(c, None)
        else:
            rows[r][c] = value
    return rows


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

    def identity_like(self):
        """The identity of this matrix's dimension, as its class."""
        return self._clone([{r: ONE} for r in range(self.dim)])

    # -- access --------------------------------------------------------------
    def get(self, r: int, c: int) -> RationalFunction:
        return self.rows[r].get(c, ZERO)

    def iter_entries(self):
        """Yield (row, col, value) in row-major order."""
        for r, row in enumerate(self.rows):
            for c in sorted(row):
                yield r, c, row[c]

    @property
    def is_zero(self) -> bool:
        return all(not row for row in self.rows)

    def nnz(self) -> int:
        return sum(len(row) for row in self.rows)

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
        scalar = _coerce(factor)
        if scalar is NotImplemented:
            raise TypeError(f"cannot scale by {type(factor).__name__}")
        if scalar.is_zero:
            return self._clone([{} for _ in range(self.dim)])
        return self._clone([{c: v * scalar for c, v in row.items()}
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

    # -- evaluation -----------------------------------------------------------
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
# fused sum of products
# ---------------------------------------------------------------------------

def product_sum_rows(start: SparseMatrix, terms):
    """Yield (r, row) for each nonzero row of start + sum coeff * X * Y
    over (coeff, X, Y), unreduced and in ascending row order.

    The term table (coeff.num, coeff.den, X.rows, Y.rows) is built once,
    with zero coefficients dropped; then each row is finished over every
    term before it is yielded, and no row after it is read until the next
    one is requested.  No intermediate matrix is built: each output entry
    is an unreduced (num, den) pair of polynomials to which every product
    coeff * X[r, k] * Y[k, c] is added in term order: over an equal
    denominator the numerators add, and any other pair is
    cross-multiplied.  An entry X[r, k] whose Y row k is empty
    contributes nothing and is skipped before coeff * X[r, k] is formed;
    on the deforming map about 45 % of the X entries meet an empty row,
    since each generator's nonzero rows are half of the basis.  An entry
    whose numerator cancels to zero is the exact zero and is dropped at
    once, without a gcd; every kept pair has a nonzero numerator over a
    nonzero denominator, so the sum is zero iff no row is yielded.
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


def first_entry(first):
    """(row, col, value) of a row (r, row) yielded by
    :func:`product_sum_rows`, or None for None.

    The entry is the one :meth:`SparseMatrix.first_nonzero` names when the
    row is the first one yielded: at the row's minimum column, and only it
    is reduced.
    """
    if first is None:
        return None
    r, row = first
    c = min(row)
    return r, c, RationalFunction(*row[c])


def reduce_rows(start: SparseMatrix, rows) -> SparseMatrix:
    """The (r, row) pairs of :func:`product_sum_rows` as a matrix of
    canonical entries, of the class of start."""
    out: list[dict] = [{} for _ in range(start.dim)]
    for r, row in rows:
        out[r] = {c: RationalFunction(num, den)
                  for c, (num, den) in row.items()}
    return start._clone(out)


def product_sum(start: SparseMatrix, terms) -> SparseMatrix:
    """start + sum coeff * X * Y over (coeff, X, Y), as the class of start.

    Every row of :func:`product_sum_rows` with every entry reduced once.
    Canonical forms in Q(q) are unique, so the result equals the one built
    by matrix products, scalings and sums.
    """
    return reduce_rows(start, product_sum_rows(start, terms))


# ---------------------------------------------------------------------------
# elimination over a field: rank and inversion
# ---------------------------------------------------------------------------

def _eliminate(work: dict, pivot: dict, col: int) -> None:
    """Subtract from work, in place, the multiple of pivot that clears
    work[col].  That entry is dropped without being computed, and so is
    every sum that cancels to zero."""
    factor = work.pop(col) / pivot[col]
    for c, v in pivot.items():
        if c == col:
            continue
        s = work[c] - factor * v if c in work else -(factor * v)
        if s:
            work[c] = s
        else:
            del work[c]


def _echelon(rows) -> dict[int, dict]:
    """The rows reduced to distinct leading columns, keyed by their lead.

    ``rows`` is read once, as an iterable of dicts mapping column index to
    a field entry (RationalFunction or Fraction; zero entries count as
    absent).  A row is reduced by the kept row with its leading (lowest)
    column until its lead is new, and is then kept, or until it vanishes.
    A row whose lead is new on arrival is kept with no arithmetic: rows
    with pairwise distinct leads are independent over any field (an
    echelon certificate), so the ordered monomials of a faithful set are
    only counted.  The number of kept rows is the rank.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        work = {c: v for c, v in row.items() if v}
        while work:
            lead = min(work)
            if lead not in pivots:
                pivots[lead] = work
                break
            _eliminate(work, pivots[lead], lead)
    return pivots


def rank(rows) -> int:
    """Exact rank over Q(q) of an iterable of sparse rows, each a dict
    mapping column index to RationalFunction (see :func:`_echelon`)."""
    return len(_echelon(rows))


def rank_numeric(rows) -> int:
    """Rank of rows with Fraction entries, by the same field elimination."""
    return len(_echelon({c: Fraction(v) for c, v in row.items()}
                        for row in rows))


def invert_dense(matrix: SparseMatrix) -> SparseMatrix:
    """The inverse of a matrix over Q(q), as its class.

    Row r is extended by the unit entry in column n + r and the n rows are
    brought to echelon form; the matrix is invertible iff their leads are
    exactly 0..n-1.  Back-substitution from the last lead then clears each
    row's other left-half entries, and the right half over the lead entry
    is the inverse row.  Raises ValueError("matrix is singular") when no
    inverse exists.
    """
    n = matrix.dim
    pivots = _echelon({**row, n + r: ONE} for r, row in enumerate(matrix.rows))
    if set(pivots) != set(range(n)):
        raise ValueError("matrix is singular")
    for lead in reversed(range(n)):
        row = pivots[lead]
        for c in [c for c in row if lead < c < n]:
            _eliminate(row, pivots[c], c)
    return matrix._clone([{c - n: v / row[r] for c, v in row.items() if c >= n}
                          for r, row in sorted(pivots.items())])
