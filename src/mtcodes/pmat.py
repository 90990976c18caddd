"""Matrices over GF(q)[x].

The central routine is the row Hermite normal form: column-forward
elimination producing an upper echelon matrix with monic pivots, entries
above each pivot reduced to lower degree, and zero rows at the bottom.  One
elimination core (`_echelon`) does this without a transform; `hnf` is its
only entry.  On request `hnf` runs the core on [M | I] to carry the
unimodular left transform along, so membership questions ("write this
vector in the row module") reduce to back-substitution against the echelon
rows.

The degree of the determinant is read off the HNF diagonal (the
determinant itself is never needed).  The twisted-code layer gets a GPM
from one transform-free elimination: the stack [top; diag(x^m_i - lam_i)]
is reduced modulo those moduli as it is eliminated, so degrees stay below
the block lengths.  Its companion A, with A * G = diag(x^m_i - lam_i),
follows from the triangular G by back-substitution (`_back_substitute`),
whose exact divisions certify that the module contains the diagonal rows.
Every division goes through the coefficient-list kernel of `upoly`.

The type of a row span over the chain ring GF(q)[x]/<p^f>, p irreducible,
comes from one elimination (`_chain_type`, on rows of coefficient lists):
one column sweep modulo p^(f-h) per layer h.  The rank over the field
GF(q)[x]/<p> is the type for f = 1.

Text form: one row per line, entries separated by '|', each entry in the
Poly grammar.
"""

from __future__ import annotations

from .errors import ParseError
from .gf import Field
from .record import Record
from .upoly import (
    NEG_INF, Poly, _add_product, _divisor_row, _exact_quotient, _long_divide, _power, _reduce, _trim, is_irreducible,
)


class PolyMatrix:
    """Immutable rectangular matrix of Poly entries over one field."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows):
        rs = tuple(tuple(e for e in row) for row in rows)
        width = len(rs[0]) if rs else 0
        for row in rs:
            if len(row) != width:
                raise ValueError("ragged rows")
            for e in row:
                if not isinstance(e, Poly) or e.field != field:
                    raise ValueError("entries must be Poly over the matrix field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rs)

    @staticmethod
    def _trusted(field: Field, rows) -> "PolyMatrix":
        """Wrap rows of Poly entries over ``field``, all of one width, that
        the library computed itself; skips the constructor's per-entry
        checks.  ``rows`` is any iterable of row iterables."""
        out = object.__new__(PolyMatrix)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "rows", tuple(tuple(row) for row in rows))
        return out

    def __setattr__(self, *a):
        raise AttributeError("PolyMatrix is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def identity(field: Field, n: int) -> "PolyMatrix":
        one, zero = Poly.one(field), Poly.zero(field)
        return PolyMatrix(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(field: Field, r: int, c: int) -> "PolyMatrix":
        zero = Poly.zero(field)
        return PolyMatrix(field, [[zero] * c for _ in range(r)])

    @staticmethod
    def diagonal(entries) -> "PolyMatrix":
        entries = list(entries)
        field = entries[0].field
        zero = Poly.zero(field)
        n = len(entries)
        return PolyMatrix(field, [[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def stack(*mats: "PolyMatrix") -> "PolyMatrix":
        field = mats[0].field
        rows = []
        for m in mats:
            rows.extend(m.rows)
        return PolyMatrix(field, rows)

    # -- shape and access --------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return PolyMatrix(
            self.field,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return PolyMatrix(
            self.field,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        r1, c1 = self.shape
        r2, c2 = other.shape
        if c1 != r2:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        if r1 == 0 or c2 == 0:
            return PolyMatrix.zeros(self.field, r1, c2)
        f, zero = self.field, Poly.zero(self.field)
        cols = list(zip(*other.rows)) if other.rows else [()] * c2
        out = []
        for row in self.rows:
            orow = []
            for col in cols:
                acc: list[int] = []
                for a, b in zip(row, col):
                    _add_product(f, acc, a.coeffs, b.coeffs)
                orow.append(Poly._trusted(f, acc) if acc else zero)
            out.append(orow)
        return PolyMatrix._trusted(f, out)

    def transpose(self) -> "PolyMatrix":
        r, c = self.shape
        if r == 0 or c == 0:
            return PolyMatrix.zeros(self.field, c, r)
        return PolyMatrix._trusted(self.field, zip(*self.rows))

    def map_entries(self, fn) -> "PolyMatrix":
        """Apply fn, a map from Poly to Poly over the same field, to every
        entry."""
        return PolyMatrix._trusted(self.field, [[fn(e) for e in row] for row in self.rows])

    def frobenius(self, k: int) -> "PolyMatrix":
        """Apply sigma^k to every coefficient of every entry; self when k
        is a multiple of e."""
        if k % self.field.e == 0:
            return self
        return self.map_entries(lambda e: e.frobenius(k))

    def scale(self, s: Poly) -> "PolyMatrix":
        return self.map_entries(lambda e: e * s)

    # -- text form -----------------------------------------------------------

    def __str__(self):
        return "\n".join(" | ".join(str(e) for e in row) for row in self.rows)

    def __repr__(self):
        r, c = self.shape
        return f"PolyMatrix({r}x{c} over {self.field.header()})"

    @staticmethod
    def parse(field: Field, text: str) -> "PolyMatrix":
        rows = []
        for line in text.strip().splitlines():
            line = line.strip()
            if not line:
                continue
            rows.append([Poly.parse(field, cell) for cell in line.split("|")])
        if not rows:
            raise ParseError("empty matrix text")
        return PolyMatrix(field, rows)


class HnfResult(Record):
    """h = transform @ origin, det(transform) a nonzero constant; transform
    is None when it was not requested."""

    h: PolyMatrix
    transform: PolyMatrix | None
    pivots: tuple[tuple[int, int], ...]  # (row, column) of each pivot

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _echelon(field: Field, rows: list, n_cols: int, moduli: list[Poly] | None = None) -> list[tuple[int, int]]:
    """Bring the first n_cols columns of ``rows`` to Hermite normal form in
    place, without a transform, and return the (row, column) pivots.

    Columns are processed left to right.  Within a column the candidate of
    least degree is promoted, the rows below are reduced by division until
    the column is clear, the pivot is scaled monic, and entries above are
    reduced to degree below the pivot's.  Zero rows end at the bottom; the
    result is unique for a fixed row module.  Rows may be wider than
    n_cols: columns past n_cols ride along in every row operation.

    With ``moduli`` the stack is ``rows`` followed by diag(moduli).  The
    diagonal row of column k joins the stack when column k is reached;
    until then it is an untouched generator, so every other row's column-k
    entry is reduced modulo moduli[k], up front and after each row
    operation.  Each reduction subtracts a multiple of that generator, so
    the module, and with it the normal form, is unchanged, while entry
    degrees stay below the moduli's (the F_q[x] analogue of the
    modulo-determinant HNF of Domich, Kannan and Trotter).

    The elimination runs on one mutable coefficient list per entry, kept
    free of trailing zeros, and wraps each entry as a Poly once, on exit.
    A row update in column c divides the destination's column-c entry in
    place by the pivot's, prepared as a `_divisor_row` once per pivot
    candidate, which leaves the remainder there; the quotient then touches
    only the columns right of c, both rows being zero to the left of c.
    Each modulus is prepared once per call.
    """
    neg, add_scaled = field.neg, field.add_scaled
    work = [[list(e.coeffs) for e in row] for row in rows]
    mod_div = None if moduli is None else [_divisor_row(field, d.coeffs) for d in moduli]
    if mod_div is not None:
        for row in work:
            for k, e in enumerate(row):
                _reduce(field, e, mod_div[k])

    def sub_scaled(dst: list, src: list, div, c: int) -> None:
        """dst -= q * src for q the quotient of dst[c] by src[c], whose
        `_divisor_row` is div."""
        e = dst[c]
        nq = [neg(x) for x in _long_divide(field, e, div)]
        _trim(e)
        for j in range(c + 1, len(dst)):
            b = src[j]
            if b:
                out = dst[j]
                _add_product(field, out, nq, b)
                if mod_div is None:
                    _trim(out)
                else:
                    _reduce(field, out, mod_div[j])

    r = 0
    pivots = []
    for c in range(n_cols):
        if moduli is not None:
            diag = [[] for _ in range(n_cols)]
            diag[c] = list(moduli[c].coeffs)
            work.append(diag)
        n_rows = len(work)
        while True:
            cand, size = None, 0
            for i in range(r, n_rows):
                length = len(work[i][c])
                if length and (cand is None or length < size):
                    cand, size = i, length
            if cand is None:
                break
            if cand != r:
                work[r], work[cand] = work[cand], work[r]
            pivot = work[r]
            div = _divisor_row(field, pivot[c])
            dirty = False
            for i in range(r + 1, n_rows):
                if work[i][c]:
                    sub_scaled(work[i], pivot, div, c)
                    if work[i][c]:
                        dirty = True
            if not dirty:
                break
        if cand is None:
            continue
        pivot = work[r]
        lead = pivot[c][-1]
        if lead != 1:
            inv = field.inv(lead)
            scaled = []
            for e in pivot:
                out = [0] * len(e)
                add_scaled(out, 0, inv, enumerate(e))
                scaled.append(out)
            work[r] = pivot = scaled
        div = None
        for i in range(r):
            if len(work[i][c]) >= size:
                if div is None:
                    div = _divisor_row(field, pivot[c])
                sub_scaled(work[i], pivot, div, c)
        pivots.append((r, c))
        r += 1
    zero = Poly.zero(field)
    rows[:] = [[Poly._trusted(field, e) if e else zero for e in row] for row in work]
    return pivots


def hnf(m: PolyMatrix, moduli=None, *, transform: bool = True) -> HnfResult:
    """Row Hermite normal form, with its unimodular left transform on request.

    With ``transform`` (the default) the elimination core runs on [m | I]
    and the right half ends as the transform; without it the core runs on
    m alone and ``transform`` is None.

    ``moduli`` d_0, ..., d_{c-1} stand for the rows diag(moduli) stacked
    below m: the result is the normal form of that stack, eliminated with
    column k reduced modulo d_k (see `_echelon`), so no entry reaches the
    degree of its modulus.  No transform is kept for such a stack.
    """
    field = m.field
    rows = [list(row) for row in m.rows]
    n_cols = m.shape[1]
    if moduli is not None:
        moduli = list(moduli)
        if transform:
            raise ValueError("no transform is kept for a stack reduced modulo its moduli")
        if rows and n_cols != len(moduli):
            raise ValueError(f"matrix has {n_cols} columns but {len(moduli)} moduli")
        if not all(moduli):
            raise ValueError("moduli must be nonzero")
        n_cols = len(moduli)
    elif transform:
        eye = PolyMatrix.identity(field, len(rows)).rows
        rows = [row + list(e) for row, e in zip(rows, eye)]
    pivots = _echelon(field, rows, n_cols, moduli)
    return HnfResult(
        PolyMatrix._trusted(field, [row[:n_cols] for row in rows]),
        PolyMatrix._trusted(field, [row[n_cols:] for row in rows]) if transform else None,
        tuple(pivots),
    )


def deg_det(m: PolyMatrix):
    """Degree of det(m); NEG_INF when the determinant vanishes."""
    n_r, n_c = m.shape
    if n_r != n_c:
        raise ValueError("determinant of a non-square matrix")
    res = hnf(m, transform=False)
    if res.rank < n_r:
        return NEG_INF
    return sum(res.h.rows[i][i].degree for i in range(n_r))


_NOT_DIAGONAL = "row module does not contain the diagonal submodule"


def _back_substitute(field: Field, gpm_rows, diag_polys) -> list[list[Poly]]:
    """Rows of the A with A @ G = diag(d) for an upper-triangular G.

    Row i: A_ij = 0 for j < i, A_ii = d_i / G_ii and
    A_ij = -(sum_{i <= k < j} A_ik * G_kj) / G_jj.  The solution over
    GF(q)(x) is unique, so every division is exact exactly when d_i * e_i
    lies in the row module of G; otherwise this raises ValueError.

    Each G_jj is prepared as a `_divisor_row` once, and each numerator
    is accumulated in one coefficient list.
    """
    ell = len(diag_polys)
    if any(not gpm_rows[j][j] for j in range(ell)):
        raise ValueError(_NOT_DIAGONAL)
    neg = field.neg
    divs = [_divisor_row(field, gpm_rows[j][j].coeffs) for j in range(ell)]
    g = [[e.coeffs for e in row] for row in gpm_rows]
    zero = Poly.zero(field)
    out = []
    for i, d in enumerate(diag_polys):
        row = [zero] * ell
        negs = {}  # k -> the coefficients of -A_ik, for each nonzero A_ik
        for j in range(i, ell):
            if j == i:
                num = d.coeffs
            else:
                num = []
                for k, a in negs.items():
                    _add_product(field, num, a, g[k][j])
                _trim(num)
            if not num:
                continue
            quot = _exact_quotient(field, num, divs[j])
            if quot is None:
                raise ValueError(_NOT_DIAGONAL)
            negs[j] = [neg(x) for x in quot]
            row[j] = Poly._trusted(field, quot)
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# Arithmetic in GF(q)[x]/<p> and GF(q)[x]/<p^f>
# ---------------------------------------------------------------------------

def rank_mod(m: PolyMatrix, p: Poly) -> int:
    """Rank of m over the field GF(q)[x]/<p>, p irreducible: the chain-ring
    type for exponent 1."""
    if not is_irreducible(p):
        raise ValueError("modulus must be irreducible")
    return _chain_type([[e.coeffs for e in row] for row in m.rows], p, 1).type_vector[0]


class ChainType(Record):
    """Type (r_0, ..., r_{f-1}) of a row span over GF(q)[x]/<p^f>."""

    modulus: Poly
    power: int
    type_vector: tuple[int, ...]

    @property
    def size_log_q(self) -> int:
        """log_q of the number of elements in the row span."""
        return _size_log_q(self.modulus.degree, self.type_vector)


def _size_log_q(degree: int, type_vector) -> int:
    """log_q of the size of a row span of this type over GF(q)[x]/<p^f>,
    deg p = degree and f = len(type_vector): a row in layer h spans
    GF(q)[x]/<p^(f-h)>, of q^(degree * (f - h)) elements."""
    f = len(type_vector)
    return degree * sum((f - h) * r for h, r in enumerate(type_vector))


def chain_type(m: PolyMatrix, p: Poly, f: int) -> ChainType:
    """Type of the row span of m over the chain ring GF(q)[x]/<p^f>, p
    irreducible: one column sweep per layer (see `_chain_type`)."""
    if f < 1:
        raise ValueError("chain exponent must be >= 1")
    if not is_irreducible(p):
        raise ValueError("modulus must be irreducible")
    return _chain_type([[e.coeffs for e in row] for row in m.rows], p, f)


def _chain_type(rows, p: Poly, f: int) -> ChainType:
    """`chain_type` for f >= 1 and a p already known to be irreducible, on
    ``rows``: a matrix as rows of coefficient sequences, low degree first,
    which it does not modify.

    Layer h sweeps the columns modulo p^(f-h): in each column a row whose
    entry u is a unit (not divisible by p; in the last layer, nonzero) is
    set aside, counting towards r_h, and every other row with a nonzero
    entry a there, a multiple of p too, becomes u * row - a * pivot_row.
    As u is a unit this keeps the row span, and so the type, without
    inverting u.  Clearing never brings a unit back into a swept column,
    so what remains is divided by p once, into the next layer's rows.
    p^(f-h) is formed and prepared as a `_divisor_row` only for a layer
    that sets a row aside.  Zero rows are dropped, and the sweep stops
    when no row is left.
    """
    fld = p.field
    div_p = _divisor_row(fld, p.coeffs)
    n_cols = len(rows[0]) if rows else 0
    div = _divisor_row(fld, _power(p, f).coeffs) if f > 1 else div_p
    rows = [[_reduce(fld, list(e), div) for e in row] for row in rows]
    type_vector = []
    for h in range(f):
        rows = [row for row in rows if any(row)]
        if not rows:
            break
        last = h == f - 1
        r_h = 0
        for c in range(n_cols):
            at = next(
                (i for i, row in enumerate(rows) if row[c] and (last or _exact_quotient(fld, row[c], div_p) is None)),
                None,
            )
            if at is None:
                continue
            if h and not r_h:
                div = _divisor_row(fld, _power(p, f - h).coeffs)
            pivot_row = rows.pop(at)
            u = pivot_row[c]
            for i, row in enumerate(rows):
                a = row[c]
                if a:
                    na, new = [fld.neg(x) for x in a], []
                    for x, y in zip(row, pivot_row):
                        e: list[int] = []
                        _add_product(fld, e, u, x)
                        _add_product(fld, e, na, y)
                        new.append(_reduce(fld, e, div))
                    rows[i] = new
            r_h += 1
        type_vector.append(r_h)
        if not last:
            rows = [[_exact_quotient(fld, e, div_p) for e in row] for row in rows]
    type_vector += [0] * (f - len(type_vector))
    return ChainType(p, f, tuple(type_vector))
