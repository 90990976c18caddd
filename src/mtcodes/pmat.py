"""Matrices over GF(q)[x].

The central routine is the row Hermite normal form: column-forward
elimination producing an upper echelon matrix with monic pivots, entries
above each pivot reduced to lower degree, and zero rows at the bottom.  The
unimodular left transform is tracked alongside, so membership questions
("write this vector in the row module") reduce to back-substitution against
the echelon rows.

On top of HNF sit the operations the twisted-code layer needs: reduction of
a generating stack to a square generator polynomial matrix, solving
A * G = diag(x^m_i - lam_i) for the companion A, degree-of-determinant,
rank over GF(q)[x]/<p> for irreducible p, and the type of the row span over
the chain ring GF(q)[x]/<p^f>.

Text form: one row per line, entries separated by '|', each entry in the
Poly grammar.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .gf import Field
from .upoly import NEG_INF, Poly, is_irreducible, poly_ext_gcd


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

    def __setattr__(self, *a):
        raise AttributeError("PolyMatrix is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_ints(field: Field, rows) -> "PolyMatrix":
        """Rows of ints or int-lists: ints become constants, lists coefficient
        vectors."""
        out = []
        for row in rows:
            prow = []
            for e in row:
                if isinstance(e, Poly):
                    prow.append(e)
                elif isinstance(e, int):
                    prow.append(Poly.constant(field, e))
                else:
                    prow.append(Poly(field, e))
            out.append(prow)
        return PolyMatrix(field, out)

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
    def backward_identity(field: Field, n: int) -> "PolyMatrix":
        """J_n: ones on the antidiagonal."""
        one, zero = Poly.one(field), Poly.zero(field)
        return PolyMatrix(field, [[one if i + j == n - 1 else zero for j in range(n)] for i in range(n)])

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
        zero = Poly.zero(self.field)
        cols = list(zip(*other.rows)) if other.rows else [()] * c2
        out = []
        for row in self.rows:
            orow = []
            for col in cols:
                acc = zero
                for a, b in zip(row, col):
                    if a and b:
                        acc = acc + a * b
                orow.append(acc)
            out.append(orow)
        return PolyMatrix(self.field, out)

    def transpose(self) -> "PolyMatrix":
        r, c = self.shape
        if r == 0 or c == 0:
            return PolyMatrix.zeros(self.field, c, r)
        return PolyMatrix(self.field, list(zip(*self.rows)))

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix(self.field, [[fn(e) for e in row] for row in self.rows])

    def frobenius(self, k: int) -> "PolyMatrix":
        return self.map_entries(lambda e: e.frobenius(k))

    def mod_entries(self, m: Poly) -> "PolyMatrix":
        return self.map_entries(lambda e: e % m)

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

    # -- derived forms ---------------------------------------------------

    def hnf(self) -> "HnfResult":
        return hnf(self)

    def deg_det(self):
        return deg_det(self)

    def det(self) -> Poly:
        return det(self)


@dataclass(frozen=True)
class HnfResult:
    """h = transform @ origin, det(transform) a nonzero constant."""

    h: PolyMatrix
    transform: PolyMatrix
    pivots: tuple[tuple[int, int], ...]  # (row, column) of each pivot

    @property
    def rank(self) -> int:
        return len(self.pivots)


def hnf(m: PolyMatrix) -> HnfResult:
    """Row Hermite normal form with tracked left transform.

    Columns are processed left to right.  Within a column the candidate of
    least degree is promoted, the rows below are reduced by division until
    the column is clear, the pivot is scaled monic, and entries above are
    reduced to degree below the pivot's.  Zero rows end at the bottom; the
    result is unique for a fixed row module.
    """
    field = m.field
    n_rows, n_cols = m.shape
    rows = [list(r) for r in m.rows]
    u = [list(r) for r in PolyMatrix.identity(field, n_rows).rows]
    r = 0
    pivots = []

    def sub_scaled(dst, src, q):
        rows[dst] = [a - q * b for a, b in zip(rows[dst], rows[src])]
        u[dst] = [a - q * b for a, b in zip(u[dst], u[src])]

    for c in range(n_cols):
        while True:
            cand = None
            for i in range(r, n_rows):
                e = rows[i][c]
                if not e.is_zero() and (cand is None or e.degree < rows[cand][c].degree):
                    cand = i
            if cand is None:
                break
            if cand != r:
                rows[r], rows[cand] = rows[cand], rows[r]
                u[r], u[cand] = u[cand], u[r]
            dirty = False
            for i in range(r + 1, n_rows):
                if not rows[i][c].is_zero():
                    q, _ = divmod(rows[i][c], rows[r][c])
                    sub_scaled(i, r, q)
                    if not rows[i][c].is_zero():
                        dirty = True
            if not dirty:
                break
        if cand is None:
            continue
        lead = rows[r][c].lead
        if lead != 1:
            inv = field.inv(lead)
            rows[r] = [e.scale(inv) for e in rows[r]]
            u[r] = [e.scale(inv) for e in u[r]]
        for i in range(r):
            if not rows[i][c].is_zero() and rows[i][c].degree >= rows[r][c].degree:
                q, _ = divmod(rows[i][c], rows[r][c])
                sub_scaled(i, r, q)
        pivots.append((r, c))
        r += 1
        if r == n_rows:
            break
    return HnfResult(PolyMatrix(field, rows), PolyMatrix(field, u), tuple(pivots))


def deg_det(m: PolyMatrix):
    """Degree of det(m); NEG_INF when the determinant vanishes."""
    n_r, n_c = m.shape
    if n_r != n_c:
        raise ValueError("determinant of a non-square matrix")
    if n_r == 0:
        return 0
    res = hnf(m)
    if res.rank < n_r:
        return NEG_INF
    return sum(res.h.rows[i][i].degree for i in range(n_r))


def det(m: PolyMatrix) -> Poly:
    """Fraction-free Bareiss determinant."""
    n_r, n_c = m.shape
    if n_r != n_c:
        raise ValueError("determinant of a non-square matrix")
    field = m.field
    if n_r == 0:
        return Poly.one(field)
    a = [list(r) for r in m.rows]
    sign = 1
    prev = Poly.one(field)
    for k in range(n_r - 1):
        if a[k][k].is_zero():
            pivot = next((i for i in range(k + 1, n_r) if not a[i][k].is_zero()), None)
            if pivot is None:
                return Poly.zero(field)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n_r):
            for j in range(k + 1, n_r):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num.exact_div(prev)
            a[i][k] = Poly.zero(field)
        prev = a[k][k]
    d = a[n_r - 1][n_r - 1]
    return d if sign > 0 else -d


def express_in_row_module(res: HnfResult, vector) -> list[Poly]:
    """Coefficients c (over the ORIGINAL rows) with c @ origin = vector.

    Raises DomainError-free ValueError if the vector lies outside the row
    module; callers that need a domain error wrap it.
    """
    field = res.h.field
    v = list(vector)
    n_rows, n_cols = res.h.shape
    if len(v) != n_cols:
        raise ValueError("vector length does not match matrix width")
    coeff = [Poly.zero(field)] * n_rows
    for r, c in res.pivots:
        if v[c].is_zero():
            continue
        q, rem = divmod(v[c], res.h.rows[r][c])
        if not rem.is_zero():
            raise ValueError("vector is not in the row module")
        coeff[r] = q
        v = [a - q * b for a, b in zip(v, res.h.rows[r])]
    if any(not e.is_zero() for e in v):
        raise ValueError("vector is not in the row module")
    # c over H rows -> c @ transform gives coefficients over the input rows.
    out = []
    for j in range(n_rows):
        acc = Poly.zero(field)
        for i in range(n_rows):
            if coeff[i] and res.transform.rows[i][j]:
                acc = acc + coeff[i] * res.transform.rows[i][j]
        out.append(acc)
    return out


def reduce_to_gpm(stack: PolyMatrix, diag_polys) -> PolyMatrix:
    """HNF a generating stack down to the square generator polynomial matrix.

    diag_polys are the block moduli x^m_i - lam_i; the stack's row module
    must contain each of them on its own axis.
    """
    diag_polys = list(diag_polys)
    ell = len(diag_polys)
    _, n_c = stack.shape
    if n_c != ell:
        raise ValueError(f"stack has {n_c} columns but {ell} block moduli")
    res = hnf(stack)
    if res.rank < ell:
        raise ValueError("row module does not contain the diagonal submodule")
    gpm = PolyMatrix(stack.field, res.h.rows[:ell])
    # Membership of each diagonal row certifies the precondition.
    gres = hnf(gpm)
    zero = Poly.zero(stack.field)
    for i, d in enumerate(diag_polys):
        v = [zero] * ell
        v[i] = d
        try:
            express_in_row_module(gres, v)
        except ValueError:
            raise ValueError(
                "row module does not contain the diagonal submodule"
            ) from None
    return gpm


def solve_identical(gpm: PolyMatrix, diag_polys) -> PolyMatrix:
    """The unique A with A @ gpm = diag(diag_polys).

    Verified by multiplying back; a failure there means the input was not a
    generator polynomial matrix for these moduli.
    """
    diag_polys = list(diag_polys)
    ell = len(diag_polys)
    r, c = gpm.shape
    if r != ell or c != ell:
        raise ValueError("generator polynomial matrix must be square")
    field = gpm.field
    res = hnf(gpm)
    zero = Poly.zero(field)
    rows = []
    for i, d in enumerate(diag_polys):
        v = [zero] * ell
        v[i] = d
        rows.append(express_in_row_module(res, v))
    a = PolyMatrix(field, rows)
    if (a @ gpm) != PolyMatrix.diagonal(diag_polys):
        raise AssertionError("companion solve failed the multiply-back check")
    return a


# ---------------------------------------------------------------------------
# Arithmetic in GF(q)[x]/<p> and GF(q)[x]/<p^f>
# ---------------------------------------------------------------------------

def _inv_mod(a: Poly, m: Poly) -> Poly:
    """Inverse of a modulo m, for a coprime to m (ext gcd is monic, so the
    degree-0 gcd is exactly 1)."""
    g, s, _ = poly_ext_gcd(a, m)
    if g.degree != 0:
        raise ZeroDivisionError(f"{a} is not invertible modulo {m}")
    return s % m


def rank_mod(m: PolyMatrix, p: Poly) -> int:
    """Rank of m over the field GF(q)[x]/<p>, p irreducible."""
    if not is_irreducible(p):
        raise ValueError("modulus must be irreducible")
    return _rank_mod(m, p)


def _rank_mod(m: PolyMatrix, p: Poly) -> int:
    """`rank_mod` for a p already known to be irreducible."""
    rows = [[e % p for e in row] for row in m.rows]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = _inv_mod(rows[rank][c], p)
        rows[rank] = [(e * inv) % p for e in rows[rank]]
        for i in range(n_rows):
            if i != rank and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


@dataclass(frozen=True)
class ChainType:
    """Type (r_0, ..., r_{f-1}) of a row span over GF(q)[x]/<p^f>."""

    modulus: Poly
    power: int
    type_vector: tuple[int, ...]

    @property
    def size_log_q(self) -> int:
        """log_q of the number of elements in the row span."""
        d = self.modulus.degree
        return d * sum((self.power - h) * r for h, r in enumerate(self.type_vector))


def chain_type(m: PolyMatrix, p: Poly, f: int) -> ChainType:
    """Type of the row span of m over the chain ring GF(q)[x]/<p^f>.

    Layer h of the reduction finds the rows still carrying a unit entry,
    eliminates with them (they contribute to r_h), divides what remains by
    p, and recurses with the exponent dropped by one.
    """
    if f < 1:
        raise ValueError("chain exponent must be >= 1")
    if not is_irreducible(p):
        raise ValueError("modulus must be irreducible")
    return _chain_type(m, p, f)


def _chain_type(m: PolyMatrix, p: Poly, f: int) -> ChainType:
    """`chain_type` for f >= 1 and a p already known to be irreducible."""
    powers = [p]
    for _ in range(f - 1):
        powers.append(powers[-1] * p)
    rows = [[e % powers[-1] for e in row] for row in m.rows]
    type_vector = []
    for h in range(f):
        mod_h = powers[f - h - 1]  # p^(f-h), the modulus for this layer
        r_h = 0
        while True:
            found = None
            for i, row in enumerate(rows):
                for j, e in enumerate(row):
                    if not (e % p).is_zero():
                        found = (i, j)
                        break
                if found:
                    break
            if not found:
                break
            i, j = found
            pivot_row = rows.pop(i)
            inv = _inv_mod(pivot_row[j], mod_h)
            pivot_row = [(e * inv) % mod_h for e in pivot_row]
            rows = [
                [(a - row[j] * b) % mod_h for a, b in zip(row, pivot_row)]
                for row in rows
            ]
            r_h += 1
        type_vector.append(r_h)
        if h < f - 1:
            # Everything left is divisible by p exactly; peel one layer.
            mod_next = powers[f - h - 2]
            rows = [[e.exact_div(p) % mod_next for e in row] for row in rows]
    return ChainType(p, f, tuple(type_vector))
