"""Exact sparse linear algebra over Q(q).

Provides the shared :class:`SparseMatrix` container (dict-of-columns per
row, zero entries never stored), the fraction-free sum-of-products
kernel over terms (coeff, F1, ..., Fk), each a coefficient times a word
of matrices, which reads each matrix in its cleared form (rows over Z[q]
over one common denominator, derived once per matrix), and one sparse forward
elimination over a field behind the exact rank over Q(q), the rank over
:class:`fractions.Fraction` entries and the inverse.
Rows whose leading (lowest) columns are pairwise distinct are linearly
independent over any field, and the elimination keeps such rows without
arithmetic, so on them the rank is a count.  A row may arrive in pieces
of ascending columns, and such a row is read only up to the piece that
gives its lead unless the lead collides; a row that can be read again is
then kept as itself and read anew on a collision.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm

from .scalar import (ONE, Poly, RationalFunction, ZERO, _coerce, _poly,
                     parse_rational)


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
    list of two integer indices inside the matrix and a string value, at
    a position no earlier entry holds, and an error names it as
    ``field[i]`` (a repeated position names both entries), as does an
    error in its text.  A zero value is not stored.
    """
    if not isinstance(entries, list):
        raise ValueError(f"{field} must be a list of [row, col, text] entries")
    seen: dict[tuple, int] = {}
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
        first = seen.setdefault((r, c), i)
        if first != i:
            raise ValueError(f"{field}[{i}] repeats the position [{r}, {c}] "
                             f"of {field}[{first}]")
    rows: list[dict] = [{} for _ in range(dim)]
    for i, (r, c, text) in enumerate(entries):
        try:
            value = parse_rational(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise type(exc)(f"{field}[{i}]: {exc}") from None
        if not value.is_zero:
            rows[r][c] = value
    return rows


def row_product(arow: dict, brows) -> dict:
    """The row arow of a matrix times the matrix with rows brows, as a
    sparse row: every sum that cancels to zero is dropped."""
    out: dict[int, RationalFunction] = {}
    for k, av in arow.items():
        for c, bv in brows[k].items():
            s = out.get(c, ZERO) + av * bv
            if s.is_zero:
                out.pop(c, None)
            else:
                out[c] = s
    return out


class SparseMatrix:
    """Square sparse matrix over Q(q).

    ``rows[r]`` maps column index to a nonzero :class:`RationalFunction`.
    Values are immutable by convention: operations allocate fresh
    matrices and never mutate their inputs.
    """

    __slots__ = ("dim", "rows", "_cleared")

    def __init__(self, dim: int, rows=None):
        self.dim = dim
        if rows is None:
            rows = tuple({} for _ in range(dim))
        self.rows = tuple(rows)
        self._cleared = None

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

    def cleared(self) -> tuple:
        """The matrix as (d, rows) with X = rows / d: d, the lcm of the
        entry denominators in the split form of :func:`_split` (None for a
        matrix with no entries), and rows over Z[q], each mapping a column
        to a field element with denominator 1.

        Derived on the first call and kept on the matrix, so it lives as
        long as the matrix does.  A matrix with no entries or with every
        denominator 1 is its own cleared form: its rows are returned as
        they are, with no arithmetic.
        """
        if self._cleared is None:
            self._cleared = _clear(self.rows)
        den, rows = self._cleared
        return den, self.rows if rows is None else rows

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
            return self._clone([row_product(arow, other.rows)
                                for arow in self.rows])
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
# cleared form and the fraction-free sum of products
# ---------------------------------------------------------------------------

#: the denominator 1 in split form (see :func:`_split`)
_UNIT = (0, 1, None)

#: the zero of Z[q], to which each entry's first product is added, and
#: the one, the denominator of every entry of a cleared form
_ZERO, _ONE = Poly(), Poly((1,))


def _split(cs: tuple) -> tuple:
    """The canonical denominator with coefficient tuple cs as (k, c, p),
    with den = q^k * c * p.

    c > 0 is the integer content, and p is None for 1, or else primitive
    with a nonzero constant term and a positive leading coefficient.
    Products of such parts are again such parts, so the lcm of two split
    denominators is taken part by part, and only the p parts can need a
    gcd.
    """
    if cs == (1,):
        return _UNIT
    k = 0
    while not cs[k]:
        k += 1
    if k == len(cs) - 1:
        return k, cs[k], None
    rest = cs[k:]
    c = _int_gcd(*rest)
    return k, c, _poly(rest if c == 1 else tuple([x // c for x in rest]))


def _times(a: Poly | None, b: Poly | None) -> Poly | None:
    """The product of two p parts of :func:`_split`, None standing for 1."""
    if a is None:
        return b
    return a if b is None else a * b


def _lcm_poly(a: Poly | None, b: Poly) -> Poly:
    """The lcm of two p parts of :func:`_split`, a None for 1; a gcd is
    taken only when both are nontrivial and differ."""
    if a is None or a.coeffs == b.coeffs:
        return b
    return a * b.div_exact(Poly.gcd(a, b))


def _shift(p: Poly | None, k: int, c: int) -> Poly:
    """q^k * c * p, p None for 1, formed on the coefficient tuple."""
    cs = (1,) if p is None else p.coeffs
    return _poly((0,) * k + (cs if c == 1 else tuple([c * x for x in cs])))


def _cofactor(den: tuple, k: int, c: int, p: Poly | None,
              num: Poly | None = None) -> Poly | None:
    """num * den / (q^k * c * p) as a Poly, for a split denominator den
    that q^k * c * p divides; None stands for num = 1 and for the result
    1.  No product is formed for a unit factor."""
    dk, dc, dp = den
    out = num
    if dp is not p and (p is None or dp.coeffs != p.coeffs):
        quo = dp if p is None else dp.div_exact(p)
        out = quo if out is None else out * quo
    if dk != k or dc != c:
        out = _shift(out, dk - k, dc // c)
    return out


def _den_poly(den: tuple) -> Poly:
    """A split denominator as one Poly."""
    k, c, p = den
    return _shift(p, k, c)


def _over_one(num: Poly) -> RationalFunction:
    """num as the field element num/1, which is canonical with no gcd."""
    out = object.__new__(RationalFunction)
    out.num, out.den = num, _ONE
    return out


def _clear(rows) -> tuple:
    """(d, rows over Z[q]) of :meth:`SparseMatrix.cleared`, rows None for
    a matrix that is its own cleared form: one with no entries (d None) or
    with every denominator 1.  Otherwise each numerator is multiplied by
    its denominator's cofactor in d, q^j * s * (d's p part / its own)."""
    dens = {v.den.coeffs for row in rows for v in row.values()}
    if not dens:
        return None, None
    if dens == {(1,)}:
        return _UNIT, None
    parts = {cs: _split(cs) for cs in dens}
    dk, dc, dp = _UNIT
    for k, c, p in parts.values():
        dk, dc = max(dk, k), _int_lcm(dc, c)
        if p is not None:
            dp = _lcm_poly(dp, p)
    lifts = {cs: (dk - k, dc // c, _cofactor((0, 1, dp), 0, 1, p))
             for cs, (k, c, p) in parts.items()}
    cleared = []
    for row in rows:
        out = {} if row else row
        for col, v in row.items():
            j, s, quo = lifts[v.den.coeffs]
            num = v.num if quo is None else v.num * quo
            out[col] = _over_one(_shift(num, j, s) if j or s != 1 else num)
        cleared.append(out)
    return (dk, dc, dp), cleared


def _cleared_product(xrows, yrows) -> list:
    """The product of two matrices given by rows over Z[q], each entry a
    field element over 1, in the same form.  Only Poly products and sums
    are formed, and a sum that cancels is dropped."""
    product = []
    for row in xrows:
        out = {}
        for k, xv in row.items():
            for c, yv in yrows[k].items():
                total = out.get(c, _ZERO) + xv.num * yv.num
                if total.coeffs:
                    out[c] = total
                else:
                    out.pop(c, None)
        product.append({c: _over_one(v) for c, v in out.items()})
    return product


def product_sum_rows(start: SparseMatrix, terms):
    """Yield (r, row, den) for each nonzero row of
    start + sum coeff * F1 * ... * Fk over the terms (coeff, F1, ..., Fk),
    each a coefficient times a word of k >= 1 matrices, in ascending row
    order: the row's entries are polynomials over the one common
    denominator den of the whole sum.

    Every factor is read in its cleared form (:meth:`SparseMatrix.cleared`:
    F = F~/d_F with F~ over Z[q], each entry read through its numerator),
    so a term has the one denominator D = coeff.den * d_F1 * ... * d_Fk,
    and den is the lcm L of start's d and of every D, in the split form of
    :func:`_split`.  The term table (m, X~ rows, Y~ rows) with
    m = coeff.num * L / D is built once, with zero coefficients and terms
    with an empty factor dropped, and no product is formed for a unit
    factor.  Y~ is the word's last factor and X~ the product of the
    others, formed over Z[q] by :func:`_cleared_product` as the factors
    are read, with no product for a word of two; for a word of one matrix
    X~ is the unit rows.  Each row of L * residual is
    then finished over every term before it is yielded, and no row after
    it is read until the next one is requested: m * X~[r, k] * Y~[k, c]
    is added to its entry in term order with Poly additions only.  An
    entry X~[r, k] whose Y~ row k is empty contributes nothing and is
    skipped before m * X~[r, k] is formed; on the deforming map about
    45 % of the X entries meet an empty row, since each generator's
    nonzero rows are half of the basis.  An entry whose sum cancels is the
    exact zero and is dropped at once, so the residual is zero iff no row
    is yielded, and an entry's value is RationalFunction(sum, L).
    """
    dim = start.dim
    sden, srows = start.cleared()
    dk, dc, dp = sden or _UNIT
    table = []
    for coeff, *word in terms:
        num = coeff.num
        if not num.coeffs:
            continue
        cd = coeff.den.coeffs
        k, c, p = _UNIT if cd == (1,) else _split(cd)
        xrows = yrows = None
        for factor in word:
            if factor.dim != dim:
                raise ValueError(f"dimension mismatch: {dim} vs {factor.dim}")
            d, rows = factor.cleared()
            if d is None:
                break
            if d is not _UNIT:
                k, c, p = k + d[0], c * d[1], _times(p, d[2])
            if yrows is not None:
                xrows = (yrows if xrows is None
                         else _cleared_product(xrows, yrows))
            yrows = rows
        else:
            if k > dk:
                dk = k
            if dc % c:
                dc = _int_lcm(dc, c)
            if p is not None and p is not dp:
                dp = _lcm_poly(dp, p)
            if xrows is None:
                xrows = [{r: ONE} for r in range(dim)]
            table.append((num, k, c, p, xrows, yrows))
    den = dk, dc, dp
    table = [(num if k == dk and c == dc and p is dp
              else _cofactor(den, k, c, p, num), xrows, yrows)
             for num, k, c, p, xrows, yrows in table]
    lift = sden and _cofactor(den, *sden)
    for r, srow in enumerate(srows):
        out = {c: v.num if lift is None else v.num * lift
               for c, v in srow.items()}
        for m, xrows, yrows in table:
            for k, xv in xrows[r].items():
                yrow = yrows[k]
                if not yrow:
                    continue
                xm = m * xv.num
                for c, yv in yrow.items():
                    total = out.get(c, _ZERO) + xm * yv.num
                    if total.coeffs:
                        out[c] = total
                    else:
                        out.pop(c, None)
        if out:
            yield r, out, den


def first_entry(first):
    """(row, col, value) of a row (r, row, den) yielded by
    :func:`product_sum_rows`, or None for None.

    The entry is the one :meth:`SparseMatrix.first_nonzero` names when the
    row is the first one yielded: at the row's minimum column, and only it
    is reduced.
    """
    if first is None:
        return None
    r, row, den = first
    c = min(row)
    return r, c, RationalFunction(row[c], _den_poly(den))


def reduce_rows(start: SparseMatrix, rows) -> SparseMatrix:
    """The rows of :func:`product_sum_rows` as a matrix of canonical
    entries, of the class of start."""
    out: list[dict] = [{} for _ in range(start.dim)]
    for r, row, den in rows:
        den = _den_poly(den)
        out[r] = {c: RationalFunction(num, den) for c, num in row.items()}
    return start._clone(out)


def product_sum(start: SparseMatrix, terms) -> SparseMatrix:
    """start + sum coeff * F1 * ... * Fk over the terms (coeff, F1, ..., Fk),
    as the class of start.

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


def _echelon(rows) -> dict[int, object]:
    """The rows reduced to distinct leading columns, keyed by their lead.

    ``rows`` is read once.  A row is a dict mapping column index to a
    field entry (RationalFunction or Fraction; zero entries count as
    absent), or an iterable of such dicts, its pieces, whose columns
    increase from one piece to the next.  Pieces are read only up to the
    first nonzero one, whose lowest column is then the row's lead.  A row
    whose lead is new on arrival is kept with no arithmetic, and the rest
    of its pieces stays unread: rows with pairwise distinct leads are
    independent over any field (an echelon certificate), so the ordered
    monomials of a faithful set are only counted, each read up to its
    first nonzero piece.  A row whose lead is taken is read in full and
    reduced by the kept row with that lead, which is read in full first,
    until its lead is new, and it is then kept, or until it vanishes.

    A row of pieces is re-iterable when ``iter(row)`` is a fresh iterator
    and not the row itself.  Such a row, kept on arrival, is kept as the
    row alone, and when a later row collides with it, it is read in full
    anew from the start.  A one-shot iterator of pieces is kept as its
    pieces read so far, with the rest of it suspended until a collision.

    The number of kept rows is the rank.  A kept row that arrived as a
    dict, or that was reduced before it was kept, is a complete dict; one
    that arrived as pieces may be the re-iterable row itself or hold only
    the pieces read so far.
    """
    pivots: dict[int, object] = {}
    unread: dict[int, object] = {}
    for row in rows:
        if isinstance(row, dict):
            pieces, source = iter((row,)), None
        else:
            pieces = iter(row)
            source = None if pieces is row else row
        work = {}
        for piece in pieces:
            work = {c: v for c, v in piece.items() if v}
            if work:
                break
        while work:
            lead = min(work)
            if lead not in pivots:
                if source is None:
                    pivots[lead], unread[lead] = work, pieces
                else:
                    pivots[lead] = source
                break
            pivot, tail = pivots[lead], unread.pop(lead, ())
            if not isinstance(pivot, dict):
                pivot, tail = {}, pivot
                pivots[lead] = pivot
            for rest, into in ((pieces, work), (tail, pivot)):
                for piece in rest:
                    into.update((c, v) for c, v in piece.items() if v)
            source = None
            _eliminate(work, pivot, lead)
    return pivots


def rank(rows) -> int:
    """Exact rank over Q(q) of an iterable of sparse rows with
    RationalFunction entries, each a dict, a one-shot iterator of pieces
    or a re-iterable row of pieces (see :func:`_echelon`)."""
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
