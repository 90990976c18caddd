"""Linear codes over GF(q) with exact structured operations.

A code is stored as its reduced row echelon generator, which makes equality
a tuple comparison and membership a short reduction.  The parity check
matrix comes from the pivot/free column split of the RREF.  Intersections,
Galois intersections and hulls, and the largest reversible subcode
C cap rev C are all one meet: the words of a generator that a set of check
rows annihilates.  None of them enumerates codewords.

Scalar matrices are plain tuples of tuples of field ints.  rref, mat_mul
and membership update whole rows with the row primitive
Field.add_scaled, as polynomial arithmetic does.
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import BudgetError, DomainError, ParseError
from .gf import Field

# Default ceiling on q^k enumerations, for minimum distance here and for
# the oracle; the CLI's MTCODES_ENUM_BUDGET overrides it.
ENUM_BUDGET = 2**20

Matrix = tuple[tuple[int, ...], ...]


def check_enum_budget(q: int, k: int, budget: int | None = None) -> None:
    """Raise BudgetError when the q^k words of a k-dimensional code exceed
    the budget (default ENUM_BUDGET)."""
    budget = ENUM_BUDGET if budget is None else budget
    if q**k > budget:
        raise BudgetError(f"enumerating {q}^{k} codewords exceeds budget {budget}")


def check_kappa(field: Field, kappa: int) -> None:
    """Raise DomainError unless 0 <= kappa < e, for a kappa-Galois form over
    GF(p^e)."""
    if not 0 <= kappa < field.e:
        raise DomainError(f"kappa must lie in [0, {field.e}), got {kappa}")


# ---------------------------------------------------------------------------
# scalar matrix helpers
# ---------------------------------------------------------------------------

def rref(field: Field, rows) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns; zero rows dropped."""
    work = [list(r) for r in rows]
    n_cols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        row = [0] * n_cols
        field.add_scaled(row, 0, field.inv(work[pivot][c]), enumerate(work[pivot]))
        work[pivot] = work[r]
        work[r] = row
        terms = [(j, e) for j, e in enumerate(row) if e]
        for i, other in enumerate(work):
            if i != r and other[c]:
                field.add_scaled(other, 0, field.neg(other[c]), terms)
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def mat_mul(field: Field, a, b) -> Matrix:
    """a @ b: one add_scaled of a row of b per nonzero entry of a row of a."""
    width = len(b[0]) if b else 0
    terms = [[(j, e) for j, e in enumerate(row) if e] for row in b]
    out = []
    for row in a:
        acc = [0] * width
        for x, t in zip(row, terms):
            field.add_scaled(acc, 0, x, t)
        out.append(tuple(acc))
    return tuple(out)


def mat_rank(field: Field, rows) -> int:
    return len(rref(field, rows)[0])


def frobenius_rows(field: Field, rows, k: int) -> Matrix:
    """sigma^k applied entrywise; the rows themselves when k = 0 mod e."""
    if k % field.e == 0:
        return rows
    return tuple(tuple(field.frobenius(e, k) for e in row) for row in rows)


def reverse_columns(rows) -> Matrix:
    return tuple(tuple(reversed(row)) for row in rows)


def parse_matrix_block(field: Field, lines, start: int) -> tuple[Matrix, int]:
    """Parse 'matrix R C' plus R rows starting at lines[start].

    Returns the matrix and the index one past the parsed block.  Line
    numbers in errors are 1-based offsets into the full document, which the
    caller encodes by passing (text, lineno) pairs.
    """
    text, lineno = lines[start]
    parts = text.split()
    if len(parts) != 3 or parts[0] != "matrix":
        raise ParseError("expected 'matrix <rows> <cols>'", lineno)
    try:
        n_rows, n_cols = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError("matrix dimensions must be integers", lineno) from None
    if n_rows < 1 or n_cols < 1:
        raise ParseError("matrix dimensions must be positive", lineno)
    rows, parsed = [], {}  # each distinct cell text is parsed once
    for i in range(n_rows):
        if start + 1 + i >= len(lines):
            raise ParseError(f"matrix needs {n_rows} rows, found {i}", lineno)
        rtext, rline = lines[start + 1 + i]
        cells = rtext.split()
        if len(cells) != n_cols:
            raise ParseError(f"expected {n_cols} entries, found {len(cells)}", rline)
        row = []
        for c in cells:
            e = parsed.get(c)
            if e is None:
                try:
                    e = parsed[c] = field.parse_element(c)
                except ParseError as exc:
                    raise ParseError(str(exc), rline) from None
            row.append(e)
        rows.append(tuple(row))
    return tuple(rows), start + 1 + n_rows


# ---------------------------------------------------------------------------
# the code itself
# ---------------------------------------------------------------------------

class LinearCode:
    """A k-dimensional linear code of length n over GF(q)."""

    def __init__(self, field: Field, length: int, rows=()):
        if length < 1:
            raise ValueError("length must be positive")
        work = [[int(e) for e in row] for row in rows]
        for row in work:
            if len(row) != length:
                raise ValueError("generator rows must have the code length")
            if not 0 <= min(row) <= max(row) < field.q:
                raise ValueError(f"generator entries must lie in range({field.q})")
        self.field = field
        self.n = length
        self.gen, self._pivots = rref(field, work)

    @staticmethod
    def _from_rref(field: Field, length: int, rows, pivots) -> "LinearCode":
        """The code whose generator rows, tuples of field elements, are
        already in RREF with the given pivot columns: no rref."""
        code = object.__new__(LinearCode)
        code.field, code.n = field, length
        code.gen, code._pivots = tuple(rows), tuple(pivots)
        return code

    @staticmethod
    def zero(field: Field, length: int) -> "LinearCode":
        return LinearCode(field, length)

    @staticmethod
    def full(field: Field, length: int) -> "LinearCode":
        rows = [[1 if i == j else 0 for j in range(length)] for i in range(length)]
        return LinearCode(field, length, rows)

    @property
    def k(self) -> int:
        return len(self.gen)

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.field == other.field
            and self.n == other.n
            and self.gen == other.gen
        )

    def __hash__(self):
        return hash((self.field, self.n, self.gen))

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}] over {self.field.header()})"

    @cached_property
    def parity(self) -> Matrix:
        """(n-k) x n check matrix from the pivot/free split of the RREF."""
        field = self.field
        free = [c for c in range(self.n) if c not in set(self._pivots)]
        rows = []
        for j, fc in enumerate(free):
            row = [0] * self.n
            row[fc] = 1
            for i, pc in enumerate(self._pivots):
                row[pc] = field.neg(self.gen[i][fc])
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def _terms(self) -> list[list[tuple[int, int]]]:
        """The nonzero (column, entry) pairs of each generator row."""
        return [[(j, e) for j, e in enumerate(row) if e] for row in self.gen]

    # -- membership --------------------------------------------------------

    def contains_word(self, vec) -> bool:
        field = self.field
        v = [int(e) for e in vec]
        if len(v) != self.n:
            raise ValueError("vector length mismatch")
        for pc, terms in zip(self._pivots, self._terms):
            field.add_scaled(v, 0, field.neg(v[pc]), terms)
        return not any(v)

    def _check_compatible(self, other: "LinearCode"):
        if self.field != other.field or self.n != other.n:
            raise DomainError("codes live in different spaces")

    # -- duals ---------------------------------------------------------------

    def dual(self) -> "LinearCode":
        return LinearCode(self.field, self.n, self.parity)

    def galois_dual(self, kappa: int = 0) -> "LinearCode":
        """The kappa-Galois dual: everything v with sum_i c_i sigma^kappa(v_i) = 0.

        Generated by sigma^(e-kappa) applied entrywise to the parity check.
        """
        check_kappa(self.field, kappa)
        field = self.field
        rows = frobenius_rows(field, self.parity, field.e - kappa)
        return LinearCode(field, self.n, rows)

    # -- intersections ---------------------------------------------------

    def intersect(self, other: "LinearCode") -> "LinearCode":
        """self intersected with other: the words of the code of fewer rows
        that the parity check of the other annihilates (see `_meet`)."""
        self._check_compatible(other)
        if other.k <= self.k:
            return _meet(self.field, self.n, self.parity, other.gen)
        return _meet(self.field, self.n, other.parity, self.gen)

    def trivially_intersects(self, other: "LinearCode") -> bool:
        """True when the intersection is {0}: rank(H1 @ G2^T) = k2."""
        self._check_compatible(other)
        prod = mat_mul(self.field, self.parity, _transpose(other.gen))
        return mat_rank(self.field, prod) == other.k

    def galois_intersect(self, other: "LinearCode", kappa: int = 0) -> "LinearCode":
        """self^(perp kappa) intersected with other, without forming the dual
        as a code: the Galois dual has check matrix sigma^(e-kappa)(G1) and
        generator sigma^(e-kappa)(H1), so the meet starts from other's
        k2 rows or the dual's n - k1, whichever are fewer (see `_meet`)."""
        self._check_compatible(other)
        check_kappa(self.field, kappa)
        field, k = self.field, self.field.e - kappa
        if other.k <= self.n - self.k:
            return _meet(field, self.n, frobenius_rows(field, self.gen, k), other.gen)
        return _meet(field, self.n, other.parity, frobenius_rows(field, self.parity, k))

    def hull(self, kappa: int = 0) -> "LinearCode":
        """self intersect self^(perp kappa)."""
        return self.galois_intersect(self, kappa)

    # -- reversal ------------------------------------------------------------

    def reversed_code(self) -> "LinearCode":
        return LinearCode(self.field, self.n, reverse_columns(self.gen))

    def is_reversible(self) -> bool:
        return self.reversibility()[0]

    def reversibility(self) -> tuple[bool, "LinearCode"]:
        """(is reversible, largest reversible subcode).

        The largest reversible subcode is self intersected with its reversal,
        the words of G @ J_n that H annihilates; the code is reversible
        exactly when that subcode keeps dimension k.  Both sides have k
        rows, so neither is the smaller side of the meet.
        """
        sub = _meet(self.field, self.n, self.parity, reverse_columns(self.gen))
        return sub.k == self.k, sub

    # -- metrics -----------------------------------------------------------

    def min_distance(self, budget: int | None = None) -> float:
        """Exact minimum weight by Brouwer-Zimmermann enumeration.

        On each of m disjoint information sets a word equals its
        coefficient vector on that set's systematic generator.  Round w
        weighs each combination of w rows of a set (coefficient 1 on the
        first), so once round w is done on j sets and round w - 1 on the
        others, every word not yet seen weighs >= mw + j; the walk stops
        when that bound reaches the lightest word seen.  Round 1, the rows,
        runs as each set is built, with the bound 2j on the j built so far.
        Returns math.inf for the zero code, and raises BudgetError when q^k
        exceeds the budget (ENUM_BUDGET).
        """
        if self.k == 0:
            return math.inf
        check_enum_budget(self.field.q, self.k, budget)
        gens, best = [], self.n
        for gen in self._systematic_generators():
            gens.append(gen)
            best = min(best, *map(len, gen))
            if best <= 2 * len(gens):
                return best
        for w in range(2, self.k + 1):
            for j, gen in enumerate(gens):
                if best <= len(gens) * w + j:
                    return best
                best = min(best, _lightest(self.field, self.n, gen, w))
        return best

    def _systematic_generators(self):
        """Generators, as the nonzero (column, entry) terms of each row, on
        disjoint information sets: the RREF's, then one rref per set with
        the unused columns first, while all k pivots land in them."""
        yield self._terms
        used = set(self._pivots)
        while self.n - len(used) >= self.k:
            order = [c for c in range(self.n) if c not in used] + sorted(used)
            rows, pivots = rref(self.field, [[row[c] for c in order] for row in self.gen])
            if pivots[-1] >= self.n - len(used):
                return
            yield [sorted((order[j], e) for j, e in enumerate(row) if e) for row in rows]
            used.update(order[p] for p in pivots)


def _lightest(field: Field, length: int, gen, w: int) -> int:
    """The least weight of sum c_i g_i over w rows g_i of gen (term lists),
    with c = 1 on the first row and c != 0 on the rest, depth first: one
    Field.add_scaled per word, prefixes of fewer rows included."""
    best, k, nonzero = length, len(gen), range(1, field.q)
    stack = [([0] * length, 0, w, (1,))]
    while stack:
        word, start, left, coefs = stack.pop()
        for i in range(start, k - left + 1):
            for c in coefs:
                new = word.copy()
                field.add_scaled(new, 0, c, gen[i])
                if left > 1:
                    stack.append((new, i + 1, left - 1, nonzero))
                else:
                    best = min(best, length - new.count(0))
    return best


def _transpose(rows) -> Matrix:
    return tuple(zip(*rows)) if rows else ()


def _meet(field: Field, length: int, checks, gen) -> LinearCode:
    """The words x @ gen that every row of checks is orthogonal to, with x
    running over the parity check of the span of checks @ gen^T.

    The elimination is on the product, of len(gen) columns, so callers
    pass as ``gen`` whichever side of the meet has fewer rows."""
    if not gen:
        return LinearCode.zero(field, length)
    x = LinearCode(field, len(gen), mat_mul(field, checks, _transpose(gen))).parity
    return LinearCode(field, length, mat_mul(field, x, gen))
