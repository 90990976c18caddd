"""Multi-twisted codes represented by generator polynomial matrices.

A code of index ell with block lengths (m_1, ..., m_ell) and nonzero shift
constants (lam_1, ..., lam_ell) is a linear code invariant under the twisted
shift T that rotates each block one step and multiplies the wrapped symbol
by its block's shift.  Codewords correspond to length-ell polynomial
vectors, componentwise modulo x^m_i - lam_i, and the code corresponds to an
F_q[x]-submodule containing diag(x^m_i - lam_i).

Every such module is generated by the ell rows of a square generator
polynomial matrix (GPM) G, and there is a unique companion A with
A @ G = diag(x^m_i - lam_i): the identical equation.  A code stores only
its reduced GPM; A is back-substituted from it when first read.  The
scalar generator is built from G, and G read off a scalar generator, by
one twisted-shift recurrence on the systematic rows: each block's rows
come back from its last row by T^-1 (`_systematic_rows`,
`_gpm_of_systematic`), with no Gaussian or Hermite elimination, and every
power of T on a codeword is `_twist`.
Everything else in this module works through G and A:

* duals and Galois duals (via the reciprocal transform of A),
* reversed codes, whose GPM and companion are read off the dual's pair,
* intersections of codes sharing a profile, from one elimination of the
  stack [[G2, 0], [G1, G1]] modulo the block moduli (Zassenhaus's
  sum-and-intersection), trivial-intersection tests, which read the
  reduced GPM of C1 + C2 off one elimination of [G2; G1], both seeded by
  G2 (no diagonal row that G2 spans is formed), and subcode tests by one
  triangular solve X @ G2 = G1; none forms an entry of degree N or
  factors x^N - 1,
* the paper's auxiliary quasi-cyclic pair (Q, P) of an intersection, of
  co-index N = lcm(t_i * m_i), t_i the order of lam_i, which only the
  reported intersections and hulls read, off the same elimination,
* trivial-intersection evidence and Galois LCD tests via ranks modulo the
  irreducible factors of x^N - 1, with a chain-ring layer analysis when
  x^N - 1 is not square-free; a factor p_j^f_j sees only the blocks
  whose modulus p_j divides, read off the order of p_j's roots (recorded
  as x^N - 1 is factored) with a remainder only for a shift of order
  above 2, so a factor dividing no block modulus costs
  no elimination, and a factor with one such block reads its type from
  that block's two contents, gcd(x^m_i - lam_i, L[:, i]) and
  gcd(x^m_i - lam_i, R[i, :]), formed once per table and block (the
  matrix is an outer product); only a factor with two or more
  eliminates, on residues modulo x^m_i - lam_i weighted by the
  cofactors c_i = (x^N - 1)/(x^m_i - lam_i) taken modulo p_j^f_j in
  closed form, so no entry reaches degree N (`MTProfile.factor_plan`
  holds what each factor needs),
* Galois self-orthogonality, dual-containment and reversibility tests as
  exact polynomial congruences modulo x^N - 1.

Those congruences read L @ diag(c_i) @ R modulo x^N - 1, and
`_cofactor_product` builds it block by block from residues modulo
x^m_i - lam_i, with no degree-N product and no division by x^N - 1.

Binary operations other than the structure advisor require identical
profiles; unequal shift vectors generically force trivial blocks and can
break the MT structure of an intersection, so the advisor is the only place
where mixed shifts are meaningful.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, reduce

from .errors import BudgetError, DomainError
from .gf import Field
from .lincode import LinearCode, check_enum_budget, check_kappa
from .pmat import PolyMatrix, _back_substitute, _chain_type, _diagonal_rows, _size_log_q, hnf
from .record import Record
from .upoly import (
    Factorization, Poly, _add_product, _divisor_row, _exact_quotient, _gcd, _long_divide, _monic_factors, _power,
    _reduce, _remainder, _trim, factor, poly_gcd, reciprocal_poly,
)

ADVISOR_BUDGET = 4096


class MTProfile(Record):
    """Index, block lengths, and shift constants of a multi-twisted family."""

    field: Field
    blocks: tuple[int, ...]
    shifts: tuple[int, ...]

    def __init__(self, field: Field, blocks, shifts):
        self._set_fields(field, tuple(int(m) for m in blocks), tuple(int(s) for s in shifts))
        if len(self.blocks) != len(self.shifts) or not self.blocks:
            raise ValueError("need matching, nonempty block and shift tuples")
        if any(m < 1 for m in self.blocks):
            raise ValueError("block lengths must be positive")
        if any(not 0 < s < self.field.q for s in self.shifts):
            raise ValueError("shift constants must be nonzero field elements")

    @property
    def ell(self) -> int:
        return len(self.blocks)

    @property
    def n(self) -> int:
        return sum(self.blocks)

    @cached_property
    def orders(self) -> tuple[int, ...]:
        """Multiplicative orders t_i of the shift constants."""
        return tuple(self.field.mult_order(s) for s in self.shifts)

    @cached_property
    def period(self) -> int:
        """N = lcm(t_i * m_i): the order of the twisted shift map."""
        return reduce(math.lcm, (t * m for t, m in zip(self.orders, self.blocks)))

    @cached_property
    def moduli(self) -> tuple[Poly, ...]:
        """The block moduli x^m_i - lam_i."""
        return tuple(
            Poly.binomial(self.field, m, s) for m, s in zip(self.blocks, self.shifts)
        )

    def annihilator(self) -> Poly:
        """x^N - 1."""
        return Poly.binomial(self.field, self.period, 1)

    @cached_property
    def factorization(self) -> Factorization:
        """x^N - 1 factored; layer tables read it.  `factor` keeps one
        factor list per (field, N), so profiles of equal period (this one's
        dual, Galois duals and reversal among them) share it.  The
        cyclotomic route of `factor` certifies each factor irreducible by
        its degree (a divisor of Phi_d of degree ord_d(q)), so no factor is
        re-tested here."""
        return factor(self.annihilator())

    @cached_property
    def factor_plan(self) -> tuple:
        """Per factor p^f of x^N - 1, in `factorization` order, what its
        layer of a table reads: (p, f, active, how).

        active holds the pairs (i, v) for the blocks whose modulus p
        divides, v = v_p(x^m_i - lam_i) >= 1.  how is, with no active
        block, the layer of type (0, ..., 0) that every table of the
        profile shares; with one, p's `_divisor_row`, by which
        `_layer_table` divides that block's contents; with two or more,
        (`_divisor_row` of p^f, ((i, w_i), ...)), w_i = c_i mod p^f a
        coefficient list free of trailing zeros, for c_i =
        (x^N - 1) / (x^m_i - lam_i).

        The roots of p have order d, recorded as x^N - 1 is factored (p
        divides Phi_d), and p divides x^m_i - lam_i exactly when a root
        alpha has alpha^m_i = lam_i.  alpha^m_i has order d / gcd(d, m_i):
        where that is not t_i, the order of lam_i, the block is inactive,
        and where it is t_i <= 2 the block is active, as lam_i is then the
        only element of order t_i.  Only a block with t_i > 2 of matching
        order takes a remainder, x^(m_i mod d) modulo p compared with
        lam_i, one per factor and distinct block length; that row of p is
        reused as the layer divisor, and as p^f's when f = 1.  v follows
        from m_i alone: with c the characteristic and m_i = m' * c^s, c not
        dividing m', x^m_i - lam_i is the c^s-th power of the square-free
        x^m' - lam_i^(1/c^s), so v = c^s.  c_i has valuation f - v, and the
        cofactor of every inactive block is a multiple of p^f, since p^f
        divides x^N - 1 and is coprime to that block's modulus.

        The weights are closed forms.  With N = N' * f, x^N - 1 =
        (x^N' - 1)^f, and x^m_i - lam_i = E^v for E = x^m'_i - mu,
        mu^v = lam_i.  E divides x^N' - 1, square-free as c does not divide
        N'; let e = (x^N' - 1)/E.  Differentiating e * E = x^N' - 1 modulo
        p, where E vanishes, gives e * m'_i * x^(m'_i - 1) = N' *
        x^(N' - 1), so e = (N'/m'_i) * mu^-1 modulo p, as x^N' = 1 and
        x^m'_i = mu there.  Raising to the power v, a power of c, gives
        e^v = kappa_i modulo p^v, with kappa_i = (N'/m'_i) * lam_i^-1 in
        GF(c).  Then c_i = e^f * E^(f - v) = e^v * (x^N' - 1)^(f - v), and
        p^(f - v) divides the second factor, so modulo p^f
        c_i = kappa_i * (x^(N'v) - 1)^(f/v - 1)
            = kappa_i * sum_(t < f/v) x^(t N' v),
        since (y - 1)^(f/v) = y^(f/v) - 1 for y = x^(N'v).  For v = f this is
        the constant kappa_i, and for c not dividing N it is (N/m_i) * lam_i^-1.
        """
        fld, char = self.field, self.field.p
        mults = []
        for m in self.blocks:
            v = 1
            while m % char == 0:
                m //= char
                v *= char
            mults.append(v)
        plan = []
        for (p, f), d in zip(self.factorization, _monic_factors(fld, self.period)[1]):
            active, div, powers = [], None, {}
            for i, (m, t, v) in enumerate(zip(self.blocks, self.orders, mults)):
                if d // math.gcd(d, m) != t:
                    continue
                if t > 2:
                    if m not in powers:
                        div = div or _divisor_row(fld, p.coeffs)
                        powers[m] = _reduce(fld, [0] * (m % d) + [1], div)
                    if powers[m] != [self.shifts[i]]:
                        continue
                active.append((i, v))
            if not active:
                how = FactorLayer(p, f, (0,) * f)
            elif len(active) == 1:
                how = div or _divisor_row(fld, p.coeffs)
            else:
                if f > 1 or div is None:
                    div = _divisor_row(fld, _power(p, f).coeffs)
                n_red, weights = self.period // f, []
                for i, v in active:
                    kappa = fld.mul(n_red // (self.blocks[i] // v) % char, fld.inv(self.shifts[i]))
                    step = n_red * v
                    cs = [0] * ((f // v - 1) * step + 1)
                    cs[::step] = [kappa] * (f // v)
                    weights.append((i, _reduce(fld, cs, div)))
                how = (div, tuple(weights))
            plan.append((p, f, tuple(active), how))
        return tuple(plan)

    # -- derived profiles --------------------------------------------------

    def dual_profile(self) -> "MTProfile":
        f = self.field
        return MTProfile(f, self.blocks, tuple(f.inv(s) for s in self.shifts))

    def galois_dual_profile(self, kappa: int) -> "MTProfile":
        f = self.field
        shifts = tuple(f.frobenius(f.inv(s), f.e - kappa) for s in self.shifts)
        return MTProfile(f, self.blocks, shifts)

    def reversed_profile(self) -> "MTProfile":
        f = self.field
        return MTProfile(
            f,
            tuple(reversed(self.blocks)),
            tuple(f.inv(s) for s in reversed(self.shifts)),
        )

    def describe(self) -> str:
        f = self.field
        shifts = ", ".join(f.format_element(s) for s in self.shifts)
        blocks = ", ".join(str(m) for m in self.blocks)
        return f"({shifts})-MT, blocks ({blocks})"


def reciprocal_columns(mat: PolyMatrix, profile: MTProfile) -> PolyMatrix:
    """M(1/x) @ diag(x^m_j) for a matrix whose columns follow the blocks.

    Entry (i, j) is first reduced modulo x^m_j - lam_j, then reversed inside
    a degree-m_j window.  The reduction changes each entry by a multiple of
    its block modulus, which downstream congruences absorb (the transform of
    that multiple is a multiple of x^m_j - lam_j^-1, and every use either
    multiplies by the matching cofactor or stacks the dual moduli).  Only an
    entry of degree m_j or more is divided, by its block modulus prepared
    once per call.
    """
    fld, blocks, divs = profile.field, profile.blocks, {}
    rows = []
    for row in mat.rows:
        out = []
        for j, e in enumerate(row):
            if len(e.coeffs) > blocks[j]:
                if j not in divs:
                    divs[j] = _divisor_row(fld, profile.moduli[j].coeffs)
                e = _remainder(e, divs[j])
            out.append(reciprocal_poly(e, blocks[j]))
        rows.append(out)
    return PolyMatrix._trusted(fld, rows)


def _antitranspose(mat: PolyMatrix) -> PolyMatrix:
    """J @ mat^T @ J for J the backward identity: (i, j) is mat[n-1-j][n-1-i]."""
    n = len(mat.rows)
    return PolyMatrix._trusted(mat.field, [[row[n - 1 - i] for row in reversed(mat.rows)] for i in range(n)])


def _block_residues(left: PolyMatrix, right: PolyMatrix, profile: MTProfile, k: int) -> list:
    """The matrix of r_k = left[a][k] * right[k][b] mod x^m_k - lam_k, over
    the rows a of left and the columns b of right, as coefficient lists free
    of trailing zeros; the block modulus is prepared once."""
    fld, div = profile.field, _divisor_row(profile.field, profile.moduli[k].coeffs)
    column = [b.coeffs for b in right.rows[k]]
    out = []
    for row in left.rows:
        a, orow = row[k].coeffs, []
        for b in column:
            r: list[int] = []
            if a and b:
                _add_product(fld, r, a, b)
                _reduce(fld, r, div)
            orow.append(r)
        out.append(orow)
    return out


def _cofactor_product(left: PolyMatrix, right: PolyMatrix, profile: MTProfile) -> PolyMatrix:
    """left @ diag(c_k) @ right modulo x^N - 1, with c_k = (x^N - 1) /
    (x^m_k - lam_k), block by block and without a degree-N product.

    Since c_k * (x^m_k - lam_k) = x^N - 1, the k-th term of entry (i, j) is
    c_k * r for r = left[i][k] * right[k][j] mod x^m_k - lam_k
    (`_block_residues`), already of degree below N.  With o the order of
    lam_k, c_k = sum_t lam_k^-(t+1) x^(t*m_k) over 0 <= t < N/m_k, so
    c_k * r is r * lam_k^-1, ..., r * lam_k^-o in successive windows of
    m_k: a cycle of o*m_k coefficients that repeats N/(o*m_k) times.
    """
    f, n, zero = profile.field, profile.period, Poly.zero(profile.field)
    mul, add_scaled = f.mul, f.add_scaled
    acc = [[[] for _ in right.rows[0]] for _ in left.rows]
    for k, (m, lam, o) in enumerate(zip(profile.blocks, profile.shifts, profile.orders)):
        scales, reps = [f.pow(lam, -t) for t in range(1, o + 1)], n // (o * m)
        for acc_row, r_row in zip(acc, _block_residues(left, right, profile, k)):
            for e, r in zip(acc_row, r_row):
                if r:
                    r += [0] * (m - len(r))
                    term = [mul(s, c) for s in scales for c in r] * reps
                    if e:
                        add_scaled(e, 0, 1, enumerate(term))
                    else:
                        e.extend(term)
    return PolyMatrix._trusted(f, [[Poly._trusted(f, e) if e else zero for e in row] for row in acc])


def _dim_of(gpm_rows, n: int) -> int:
    """n - sum deg G_ii, the dimension of the code of a reduced GPM."""
    return n - sum(row[i].degree for i, row in enumerate(gpm_rows))


def _spans(blocks, shifts) -> list[tuple[int, int, int]]:
    """(start, m_i, lam_i) of each block of a codeword."""
    starts = itertools.accumulate(blocks[:-1], initial=0)
    return list(zip(starts, blocks, shifts))


def _twist(fld: Field, row, spans, s: int, c: int = 1) -> list[int]:
    """c * T^s(row) for any integer s: in each block the entry at position
    p moves to (p + s) mod m and is scaled by lam^floor((p + s) / m), which
    is x^s times the block's residue modulo x^m - lam.  An all-zero block
    and a scaling by 1 cost no multiplication."""
    mul, out = fld.mul, []
    for at, m, lam in spans:
        w, r = divmod(s, m)
        cut, end = at + m - r, at + m
        if c == lam == 1 or not any(row[at:end]):
            out += row[cut:end]
            out += row[at:cut]
            continue
        lo = c if w == 0 or lam == 1 else mul(c, fld.pow(lam, w))
        hi = lo if lam == 1 else mul(lo, lam)
        for k, part in ((hi, row[cut:end]), (lo, row[at:cut])):
            out.extend(part if k == 1 else [mul(k, x) for x in part])
    return out


def _prev_row(fld: Field, row, spans, i: int, t, lasts) -> list[int]:
    """T^-1(row) with its entry at each last pivot (k, t[k] - 1) cleared
    by lasts[k], the term list of that block's last systematic row, for a
    systematic row of block i (zero before it, so blocks k < i stay zero).
    T^-1 moves every other pivot entry of a systematic row one place back,
    so for an MT code this is the row before it in block i, and zero for
    the first."""
    out = _twist(fld, row, spans, -1)
    for k in range(i, len(spans)):
        if t[k]:
            c = out[spans[k][0] + t[k] - 1]
            if c:
                fld.add_scaled(out, 0, fld.neg(c), lasts[k])
    return out


def _nonzero_terms(row) -> list[tuple[int, int]]:
    return [(j, e) for j, e in enumerate(row) if e]


def _systematic_rows(profile: MTProfile, gpm_rows) -> tuple[list[tuple[int, ...]], list[int]]:
    """The RREF generator of the code of a reduced GPM and its pivot
    columns, with no elimination: systematic encoding of cyclic codes
    (MacWilliams & Sloane, *The Theory of Error-Correcting Codes*, ch. 7
    §8) carried to the GPM basis of quasi-cyclic codes (Lally &
    Fitzpatrick, 2001).

    The words x^j g_i, j < t_i = m_i - deg G_ii, are a basis in echelon
    form: x^j g_i is zero before block i and starts at position j of it,
    as G_ii(0) != 0.  So the pivots are the positions (i, j), j < t_i, and
    the systematic row r_(i,j) is the codeword that is 1 at (i, j) and 0
    at every other pivot.  Blocks are built last to first, each from its
    last row: r_(i,t_i-1) is G_ii(0)^-1 T^(t_i-1)(g_i), whose block i
    does not wrap as deg x^(t_i-1) G_ii = m_i - 1, with the pivot entries
    of later blocks cleared by their rows.  Each row before it is
    `_prev_row` of the next: one shift back and at most ell row updates
    per row."""
    fld, n, ell = profile.field, profile.n, profile.ell
    spans = _spans(profile.blocks, profile.shifts)
    t = [m - row[i].degree for i, (row, m) in enumerate(zip(gpm_rows, profile.blocks))]
    rows: list[list] = [[] for _ in range(ell)]
    terms: list[list] = [[] for _ in range(ell)]
    lasts: list = [None] * ell
    for i in reversed(range(ell)):
        if not t[i]:
            continue
        g = [0] * n
        for (s, _, _), e in zip(spans[i:], gpm_rows[i][i:]):
            g[s : s + len(e.coeffs)] = e.coeffs
        vec = _twist(fld, g, spans, t[i] - 1, fld.inv(gpm_rows[i][i].coeffs[0]))
        for j in range(i + 1, ell):
            for p in range(t[j]):
                c = vec[spans[j][0] + p]
                if c:
                    fld.add_scaled(vec, 0, fld.neg(c), terms[j][p])
        lasts[i] = _nonzero_terms(vec)
        block = [vec]
        for _ in range(1, t[i]):
            vec = _prev_row(fld, vec, spans, i, t, lasts)
            block.append(vec)
        rows[i] = block[::-1]
        if any(t[:i]):  # earlier blocks clear their last rows with these
            terms[i] = [_nonzero_terms(r) for r in rows[i][:-1]] + [lasts[i]]
    pivots = [spans[i][0] + j for i in range(ell) for j in range(t[i])]
    return [tuple(r) for block in rows for r in block], pivots


def _gpm_of_systematic(profile: MTProfile, gen, pivots) -> PolyMatrix | None:
    """The reduced GPM of the linear code with RREF generator gen and
    pivot columns pivots, or None when the code is not invariant under the
    twisted shift T; `_systematic_rows` run backwards.

    An MT code's pivots form a prefix 0, ..., t_i - 1 of each block i, and
    a code with such pivots is T-invariant exactly when each row's
    `_prev_row` is the row before it in its block (zero for the first): a
    word of the code is the sum of its pivot entries times their rows, and
    T^-1(C) lies in C exactly when T(C) does, T being invertible and C
    finite.  G_ii has degree m_i - t_i, and the last row r_(i, t_i - 1) is
    x^(t_i - 1) h in block i with deg h = m_i - t_i, so T^-(t_i - 1) of
    it, made monic, holds G_ii in block i; its entries in later blocks are
    reduced modulo G_jj, left to right, by the rows already built.  A
    block with no pivots has G_ii = x^m_i - lam_i and nothing else in its
    row."""
    fld, ell = profile.field, profile.ell
    spans = _spans(profile.blocks, profile.shifts)
    t, at = [0] * ell, 0
    for c in pivots:
        while c >= spans[at][0] + spans[at][1]:
            at += 1
        if c != spans[at][0] + t[at]:
            return None
        t[at] += 1
    ends = list(itertools.accumulate(t))
    lasts = [_nonzero_terms(gen[e - 1]) if k else None for e, k in zip(ends, t)]
    r, zero_row = 0, (0,) * profile.n
    for i in range(ell):
        for j in range(t[i]):
            before = gen[r - 1] if j else zero_row
            if tuple(_prev_row(fld, gen[r], spans, i, t, lasts)) != before:
                return None
            r += 1
    zero = Poly.zero(fld)
    mod_divs = [_divisor_row(fld, d.coeffs) for d in profile.moduli]
    gpm: list = [None] * ell
    for i in reversed(range(ell)):
        if not t[i]:
            gpm[i] = [zero] * i + [profile.moduli[i]] + [zero] * (ell - i - 1)
            continue
        row = gen[ends[i] - 1]
        lead = row[spans[i][0] + spans[i][1] - 1]
        back = _twist(fld, row, spans, 1 - t[i], fld.inv(lead))
        entries = [back[s : s + m] for s, m, _ in spans[i:]]
        _trim(entries[0])
        for j in range(i + 1, ell):
            e, above = entries[j - i], gpm[j]
            _trim(e)
            if len(e) >= len(above[j].coeffs):
                nq = [fld.neg(x) for x in _long_divide(fld, e, _divisor_row(fld, above[j].coeffs))]
                _trim(e)
                for k in range(j + 1, ell):
                    if above[k]:
                        _add_product(fld, entries[k - i], nq, above[k].coeffs)
                        _reduce(fld, entries[k - i], mod_divs[k])
        gpm[i] = [zero] * i + [Poly._trusted(fld, e) for e in entries]
    return PolyMatrix._trusted(fld, gpm)


class MTCode:
    """A multi-twisted code, canonically held as its reduced GPM."""

    def __init__(self, profile: MTProfile, rows=()):
        """Build the code whose module is generated by the given polynomial
        rows together with diag(x^m_i - lam_i).  rows may be a PolyMatrix,
        an iterable of Poly rows, or empty for the zero code."""
        self.profile = profile
        if isinstance(rows, PolyMatrix):
            row_list = [list(r) for r in rows.rows]
        else:
            row_list = [list(r) for r in rows]
        top = PolyMatrix(profile.field, row_list)
        try:
            res = hnf(top, profile.moduli)
        except ValueError as exc:
            raise DomainError(str(exc)) from exc
        self.gpm = PolyMatrix._trusted(profile.field, res.h.rows[: profile.ell])
        self._linear: LinearCode | None = None
        self._dual: MTCode | None = None

    @staticmethod
    def _from_pair(profile: MTProfile, gpm: PolyMatrix, companion: PolyMatrix | None = None) -> "MTCode":
        """The code whose reduced GPM is already known, and its companion
        when that is known too: no elimination."""
        code = object.__new__(MTCode)
        code.profile, code.gpm = profile, gpm
        if companion is not None:
            code.companion = companion
        code._linear = code._dual = None
        return code

    @cached_property
    def companion(self) -> PolyMatrix:
        """The A with A @ G = diag(x^m_i - lam_i), by back-substitution on
        the triangular GPM when first read."""
        fld = self.field
        diag = _diagonal_rows(self.profile.moduli)
        return PolyMatrix._trusted(fld, _back_substitute(fld, self.gpm.rows, diag))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(profile: MTProfile) -> "MTCode":
        return MTCode(profile)

    @staticmethod
    def full(profile: MTProfile) -> "MTCode":
        return MTCode(profile, PolyMatrix.identity(profile.field, profile.ell))

    @staticmethod
    def from_linear(profile: MTProfile, code: LinearCode) -> "MTCode":
        """Adopt a linear code as multi-twisted; it must be shift-invariant.
        The GPM is read off the code's RREF (`_gpm_of_systematic`), with no
        elimination, and the given code becomes the scalar form."""
        if code.field != profile.field or code.n != profile.n:
            raise DomainError("code length does not match the profile")
        gpm = _gpm_of_systematic(profile, code.gen, code._pivots)
        if gpm is None:
            raise DomainError("code is not invariant under the profile's twisted shift")
        mt = MTCode._from_pair(profile, gpm)
        mt._linear = code
        return mt

    # -- basic views ---------------------------------------------------------

    @property
    def field(self) -> Field:
        return self.profile.field

    @property
    def dim(self) -> int:
        """n - sum deg G_ii: deg det A for A @ G = diag(x^m_i - lam_i), read
        off the triangular GPM."""
        return _dim_of(self.gpm.rows, self.n)

    @property
    def n(self) -> int:
        return self.profile.n

    def __eq__(self, other):
        return (
            isinstance(other, MTCode)
            and self.profile == other.profile
            and self.gpm == other.gpm
        )

    def __hash__(self):
        return hash((self.profile, self.gpm))

    def __repr__(self):
        return f"MTCode([{self.n},{self.dim}] {self.profile.describe()})"

    def to_linear(self) -> LinearCode:
        """The scalar code, its RREF generator built from the GPM by the
        twisted-shift recurrence of `_systematic_rows`, with no rref."""
        if self._linear is None:
            rows, pivots = _systematic_rows(self.profile, self.gpm.rows)
            self._linear = LinearCode._from_rref(self.field, self.n, rows, pivots)
        return self._linear

    def min_distance(self, budget: int | None = None) -> float:
        """LinearCode.min_distance of to_linear(), Brouwer-Zimmermann on
        its information sets, with the q^k budget checked before the
        scalar generator is built."""
        if self.dim:
            check_enum_budget(self.field.q, self.dim, budget)
        return self.to_linear().min_distance(budget)

    def contains_word(self, vec) -> bool:
        return self.to_linear().contains_word(vec)

    def _require_same_profile(self, other: "MTCode"):
        if self.profile != other.profile:
            raise DomainError("operation requires identical profiles")

    # -- duals -----------------------------------------------------------

    def dual(self) -> "MTCode":
        """Euclidean dual: a lam^-1-twisted code built from the reciprocal
        transform of the companion."""
        if self._dual is None:
            top = reciprocal_columns(self.companion.transpose(), self.profile)
            self._dual = MTCode(self.profile.dual_profile(), top)
        return self._dual

    def galois_dual(self, kappa: int = 0) -> "MTCode":
        """The kappa-Galois dual: sigma^(e - kappa) of the Euclidean dual's
        GPM, which for kappa = 0 is that dual itself.

        sigma^k acts on coefficients as a ring automorphism, so sigma^k(G)
        is still upper triangular, monic on the diagonal and reduced above
        it: the reduced GPM of the Galois dual profile, with no second
        elimination."""
        check_kappa(self.field, kappa)
        base = self.dual()
        if kappa == 0:
            return base
        return MTCode._from_pair(self.profile.galois_dual_profile(kappa), base.gpm.frobenius(self.field.e - kappa))

    # -- reversal ------------------------------------------------------------

    def reversed_code(self) -> "MTCode":
        """The coordinate-reversed code, generated by the rows of B^T @ J for
        the dual pair (G', B) and J the backward identity; its GPM and
        companion are read off that pair, with no elimination.

        B = D @ G'^-1 for D = diag(x^m_i - lam_i^-1), and G' is reduced, so
        B is upper triangular, monic on the diagonal, and, column by column
        of B @ G' = D, deg B_rc < deg B_rr for c > r.  So J @ B^T @ J, of
        the same row module as B^T @ J, is the reduced GPM, and
        (J @ G'^T @ J) @ (J @ B^T @ J) = J @ D @ J gives its companion."""
        dual = self.dual()
        return MTCode._from_pair(
            self.profile.reversed_profile(), _antitranspose(dual.companion), _antitranspose(dual.gpm)
        )

    # -- containment and intersections -----------------------------------

    def _sum_gpm_rows(self, other: "MTCode") -> tuple:
        """The reduced GPM rows of C1 + C2, for a code of the same profile:
        the first ell rows of the normal form of [G2; G1], eliminated
        modulo the block moduli and seeded by G2, so no entry reaches the
        degree of its modulus and no diagonal row or companion is formed."""
        stack, ell = PolyMatrix._trusted(self.field, other.gpm.rows + self.gpm.rows), self.profile.ell
        return hnf(stack, self.profile.moduli, seeded=ell).h.rows[:ell]

    def is_subcode_of(self, other: "MTCode") -> bool:
        """Whether this module lies in the other's: whether X @ G2 = G1
        has a polynomial solution, by one triangular solve on G2
        (`_back_substitute`) with no elimination."""
        self._require_same_profile(other)
        targets = [[e.coeffs for e in row] for row in self.gpm.rows]
        return _back_substitute(self.field, other.gpm.rows, targets) is not None

    def intersect(self, other: "MTCode") -> "MTCode":
        """C1 cap C2 by `_zassenhaus` on [[G2, 0], [G1, G1]], seeded by G2:
        its rows with zero left half are [0 | a1 G1] for a1 G1 = -a2 G2,
        the module of C1 cap C2, which holds A1 [G1 | G1] - A2 [G2 | 0] =
        [0 | D] for D = diag(x^m_i - lam_i), so its right columns are
        reduced modulo the block moduli too."""
        self._require_same_profile(other)
        rows = _zassenhaus(self.profile, other.gpm.rows, self.gpm.rows, self.gpm.rows, self.profile.moduli, True)
        return MTCode._from_pair(self.profile, PolyMatrix._trusted(self.field, rows))

    def intersection_details(self, other: "MTCode") -> "GpmIntersection":
        """C1 cap C2 and the paper's quasi-cyclic pair (`_qc_intersection`)."""
        self._require_same_profile(other)
        return _qc_intersection(self.gpm.rows, other, seeded=True)

    def galois_intersection_details(self, other: "MTCode", kappa: int = 0) -> "GpmIntersection":
        """Details of self^(perp kappa) intersect other.

        Requires compatible shifts: sigma^(e-kappa)(lam_i^-1) = delta_i.
        self^(perp kappa) is generated by sigma^(e-kappa) of the dual's top
        rows and other's block moduli."""
        check_kappa(self.field, kappa)
        f = self.field
        if self.profile.blocks != other.profile.blocks or f != other.field:
            raise DomainError("operation requires identical block lengths")
        want = self.profile.galois_dual_profile(kappa).shifts
        if want != other.profile.shifts:
            raise DomainError(
                "shift constants are not Galois-dual compatible: "
                f"expected ({', '.join(f.format_element(s) for s in want)})"
            )
        top = reciprocal_columns(self.companion.transpose(), self.profile).frobenius(f.e - kappa)
        return _qc_intersection(top.rows, other, seeded=False)

    def galois_hull_details(self, kappa: int = 0) -> "GpmIntersection":
        return self.galois_intersection_details(self, kappa)

    def trivially_intersects(self, other: "MTCode") -> bool:
        """Whether C1 cap C2 = {0}, that is dim(C1 + C2) = dim C1 + dim C2.

        Past dim C1 + dim C2 > n the answer is False with no elimination;
        otherwise dim(C1 + C2) is read off the reduced GPM of the sum
        (`_sum_gpm_rows`).  Neither step factors x^N - 1, so the verdict
        costs the same whatever the period N.  The paper's factor-by-factor
        evidence is `trivial_intersection_evidence`."""
        self._require_same_profile(other)
        k = self.dim + other.dim
        if k > self.n:
            return False
        return _dim_of(self._sum_gpm_rows(other), self.n) == k

    def trivial_intersection_evidence(self, other: "MTCode") -> "LayerTable":
        """The paper's factor-by-factor dimension count for
        dim(C1 cap C2) = 0, whose verdict equals `trivially_intersects`.

        The auxiliary quasi-cyclic code Q generated by
        A1^T @ diag((x^N-1)/(x^m_i-lam_i)) @ G2^T has dim(Q) = dim(C2) -
        dim(C1 cap C2); its dimension is read off per irreducible factor
        p_j of x^N - 1 as the chain-ring type over GF(q)[x]/<p_j^f_j> (for
        f_j = 1, the rank modulo p_j).  `_layer_table` takes A1^T and G2^T
        and reads each factor's type from the blocks whose modulus p_j
        divides; the others contribute 0 there.
        """
        self._require_same_profile(other)
        return _layer_table(
            self.companion.transpose(), other.gpm.transpose(), self.profile, target=other.dim
        )

    # -- property checks ---------------------------------------------------

    def property_check(self, prop: str, kappa: int = 0) -> "PropertyCheck":
        """Necessary-and-sufficient test of a named property.

        prop is one of 'self_orthogonal', 'dual_containing', 'lcd',
        'reversible'.  A failed precondition is reported as holds=None with
        a note, distinct from a definite False.
        """
        if prop == "reversible":
            return self._check_reversible()
        if prop == "self_orthogonal":
            return self._check_congruence_property(prop, kappa, use_companion=False)
        if prop == "dual_containing":
            return self._check_congruence_property(prop, kappa, use_companion=True)
        if prop == "lcd":
            return self._check_lcd(kappa)
        raise ValueError(f"unknown property {prop!r}")

    def _galois_precondition(self, kappa: int) -> str | None:
        f = self.field
        want = self.profile.galois_dual_profile(kappa).shifts
        if want != self.profile.shifts:
            lits = ", ".join(f.format_element(s) for s in want)
            return (
                "precondition unmet: the kappa-Galois dual has shift "
                f"constants ({lits}), not the code's own"
            )
        return None

    def _check_congruence_property(self, prop: str, kappa: int, use_companion: bool) -> "PropertyCheck":
        check_kappa(self.field, kappa)
        note = self._galois_precondition(kappa)
        if note is not None:
            return PropertyCheck(prop, kappa, None, note, None, None)
        prof = self.profile
        f = self.field
        k = f.e - kappa
        if use_companion:
            left = reciprocal_columns(self.companion.transpose(), prof).frobenius(k)
            right = self.companion
        else:
            left = reciprocal_columns(self.gpm, prof).frobenius(k)
            right = self.gpm.transpose()
        residue = _cofactor_product(left, right, prof)
        return PropertyCheck(prop, kappa, residue.is_zero(), None, residue, None)

    def _check_lcd(self, kappa: int) -> "PropertyCheck":
        check_kappa(self.field, kappa)
        note = self._galois_precondition(kappa)
        if note is not None:
            return PropertyCheck("lcd", kappa, None, note, None, None)
        prof = self.profile
        left = reciprocal_columns(self.gpm, prof).frobenius(self.field.e - kappa)
        table = _layer_table(left, self.gpm.transpose(), prof, target=self.dim)
        return PropertyCheck("lcd", kappa, table.verdict, None, None, table)

    def _check_reversible(self) -> "PropertyCheck":
        prof = self.profile
        if prof.reversed_profile() != prof:
            return PropertyCheck(
                "reversible",
                None,
                None,
                "precondition unmet: blocks must be palindromic with "
                "shift constants satisfying lam_i = lam_(ell+1-i)^-1",
                None,
                None,
            )
        left = PolyMatrix._trusted(self.field, [row[::-1] for row in reciprocal_columns(self.gpm, prof).rows])
        residue = _cofactor_product(left, self.companion, prof)
        return PropertyCheck("reversible", None, residue.is_zero(), None, residue, None)


# ---------------------------------------------------------------------------
# intersection machinery
# ---------------------------------------------------------------------------

class GpmIntersection(Record):
    """Intersection result plus the auxiliary quasi-cyclic pair (Q, P)."""

    code: MTCode
    qc_gpm: PolyMatrix
    qc_companion: PolyMatrix


def _zassenhaus(profile: MTProfile, first, second, right, right_moduli, seeded: bool) -> list:
    """Zassenhaus's sum-and-intersection (H. Cohen, *A Course in
    Computational Algebraic Number Theory*, 2.4): the right halves of rows
    ell to 2 ell - 1 of the normal form of [[first | 0], [second | right]],
    its left columns reduced modulo the block moduli and its right ones
    modulo right_moduli as it is eliminated.  Its rows with zero left half
    are [0 | a @ right] for the a with a @ second in the module of first
    and the block moduli; where the module of those rows holds
    diag(right_moduli), they are its reduced GPM, and no entry reaches the
    degree of its modulus.  ``seeded``: first is a reduced GPM, so the
    diagonal rows of the left half are never formed (see `hnf`)."""
    fld, ell = profile.field, profile.ell
    zeros = (Poly.zero(fld),) * len(right_moduli)
    stack = [row + zeros for row in first] + [left + r for left, r in zip(second, right)]
    moduli, seed = profile.moduli + tuple(right_moduli), ell if seeded else 0
    rows = hnf(PolyMatrix._trusted(fld, stack), moduli, seeded=seed).h.rows
    return [row[ell:] for row in rows[ell : 2 * ell]]


def _qc_intersection(first_rows, second: MTCode, seeded: bool) -> GpmIntersection:
    """C1 cap C2 and the paper's pair (Q, P), C1 the module of first_rows
    and second's block moduli: Q the reduced GPM of
    [A1^T diag(c_i) G2^T; (x^N - 1) I], c_i = (x^N - 1)/(x^m_i - lam_i),
    and P = (x^N - 1) Q^-1.  As G1 diag(c) A1 = (x^N - 1) I, a @ G2 lies in
    C1 iff Q a^T = 0 modulo x^N - 1, so P^T generates
    K = {a : a @ G2 in C1}, which holds L e_k for L the lcm of the block
    moduli.  `_zassenhaus` of [[C1 | 0], [G2 | J]], J the backward
    identity, gives the reduced GPM of K @ J, P^T being lower triangular,
    and, as in `MTCode.reversed_code`, P is its antitranspose, seeded when
    first_rows are a reduced GPM.  Q follows by one triangular solve."""
    prof, fld, ell = second.profile, second.field, second.profile.ell
    lcm = reduce(lambda a, b: a * b.exact_div(poly_gcd(a, b)), prof.moduli)
    back = PolyMatrix.identity(fld, ell).rows[::-1]
    meet = _zassenhaus(prof, first_rows, second.gpm.rows, back, [lcm] * ell, seeded)
    p = _antitranspose(PolyMatrix._trusted(fld, meet))
    q = PolyMatrix._trusted(fld, _back_substitute(fld, p.rows, _diagonal_rows([prof.annihilator()] * ell)))
    return GpmIntersection(MTCode(prof, p.transpose() @ second.gpm), q, p)


class FactorLayer(Record):
    """Dimension contribution of one irreducible factor of x^N - 1."""

    factor: Poly
    power: int
    type_vector: tuple[int, ...]

    @property
    def weighted(self) -> int:
        """log_q of the layer's size, as `ChainType.size_log_q`."""
        return _size_log_q(self.factor.degree, self.type_vector)


class LayerTable(Record):
    """Per-factor evidence that an auxiliary code reaches a target dimension."""

    layers: tuple[FactorLayer, ...]
    target: int

    @property
    def total(self) -> int:
        """The sum of the layers' weights; a layer of type (0, ..., 0)
        weighs 0 and is skipped."""
        return sum(layer.weighted for layer in self.layers if any(layer.type_vector))

    @property
    def verdict(self) -> bool:
        return self.total == self.target


def _layer_table(left: PolyMatrix, right: PolyMatrix, profile: MTProfile, target: int) -> LayerTable:
    """Chain-ring types of left @ diag(c_i) @ right, one per factor
    p_j^f_j of x^N - 1.

    Modulo p_j^f_j only the blocks whose modulus p_j divides contribute
    (`MTProfile.factor_plan`):

    * a factor dividing no block modulus has type (0, ..., 0), its layer
      shared by the profile's tables;
    * with one active block i the matrix is the outer product
      left[:, i] * c_i * right[i, :], whose type `_single_block_type`
      reads off the block's `_content`s, formed once per table;
    * with two or more, `_chain_type` eliminates the matrix of
      sum_i w_i * r_i modulo p_j^f_j (`_weighted_residues`), where
      w_i = c_i mod p_j^f_j and
      r_i = left[a][i] * right[i][b] mod x^m_i - lam_i, formed once per
      table for each block active in such a factor (`_block_residues`).  c_i * r_i differs from
      c_i * left[a][i] * right[i][b] by a multiple of x^N - 1, so no entry
      of degree N is formed or reduced.
    """
    fld = profile.field
    layers, residues, contents = [], {}, {}
    for p_j, f_j, active, how in profile.factor_plan:
        if not active:
            layers.append(how)
            continue
        if len(active) > 1:
            for i, _ in active:
                if i not in residues:
                    residues[i] = _block_residues(left, right, profile, i)
            type_vector = _chain_type(_weighted_residues(residues, how, fld), p_j, f_j).type_vector
        else:
            ((i, v),) = active
            if i not in contents:
                m = profile.moduli[i].coeffs
                contents[i] = _content(fld, m, [row[i] for row in left.rows]), _content(fld, m, right.rows[i])
            type_vector = _single_block_type(fld, contents[i], v, how, f_j)
        layers.append(FactorLayer(p_j, f_j, type_vector))
    return LayerTable(tuple(layers), target)


def _weighted_residues(residues, weights, fld: Field) -> list:
    """The matrix of sum_i w_i * r_i modulo P = p^f, as rows of coefficient
    lists, for the residue matrices r_i (`_block_residues`) and the plan
    of a factor with two or more active blocks (`MTProfile.factor_plan`):
    P's `_divisor_row` and the pairs (i, w_i).  Each entry is reduced
    modulo P once, after the sum."""
    div, pairs = weights

    def entry(a: int, b: int) -> list[int]:
        acc: list[int] = []
        for i, w in pairs:
            _add_product(fld, acc, w, residues[i][a][b])
        return _reduce(fld, acc, div)

    return [[entry(a, b) for b in range(len(row))] for a, row in enumerate(residues[pairs[0][0]])]


def _content(fld: Field, modulus, entries) -> list[int]:
    """The monic gcd of a block modulus x^m - lam and the entries, as a
    coefficient list: one `_gcd` chain that stops at 1."""
    g = list(modulus)
    for e in entries:
        if len(g) == 1:
            break
        if e.coeffs:
            g = _gcd(fld, g, e.coeffs)
    return g


def _single_block_type(fld: Field, contents, v: int, div, f: int) -> tuple[int, ...]:
    """Type over GF(q)[x]/<p^f> (div: p's `_divisor_row`) of the row span
    of c * u w^T, from the `_content`s gcd(M, u) and gcd(M, w) of an M
    with v_p(M) = v <= f = v + v_p(c).  The span is p^h times a free
    module of rank one, h = f - v + a + b for a = min(v, v_p(u)) and
    b = min(v - a, v_p(w)): type e_h when h < f, else (0, ..., 0).  As
    v_p(gcd(M, u)) = min(v, v_p(u)), only a content other than 1 is
    divided."""
    h = f - v
    for cs in contents:
        while h < f and len(cs) > div[0]:
            cs = _exact_quotient(fld, cs, div)
            if cs is None:
                break
            h += 1
    return tuple(int(k == h) for k in range(f))


class PropertyCheck(Record):
    """Outcome of a property test; holds=None means a precondition failed."""

    prop: str
    kappa: int | None
    holds: bool | None
    note: str | None
    residue: PolyMatrix | None
    table: LayerTable | None


# ---------------------------------------------------------------------------
# intersection structure advisor
# ---------------------------------------------------------------------------

class StructureAdvice(Record):
    """What shift vectors, if any, make the intersection multi-twisted.

    admitted lists every certified Gamma; exhaustive says whether all
    (q-1)^ell shift vectors were tried or only the listed candidates.
    notes narrate the distance-bound cases that apply.
    """

    blocks: tuple[int, ...]
    shifts1: tuple[int, ...]
    shifts2: tuple[int, ...]
    intersection: LinearCode
    admitted: tuple[tuple[int, ...], ...]
    candidates: tuple[tuple[int, ...], ...]
    exhaustive: bool
    differing: int
    zero_projection_blocks: tuple[int, ...]
    d1: float | None
    d2: float | None
    notes: tuple[str, ...]


def advise_intersection_structure(
    code1: MTCode,
    code2: MTCode,
    distance_budget: int | None = None,
) -> StructureAdvice:
    """Compute C1 cap C2 linearly and search for shift vectors under which
    it is multi-twisted.

    The two codes may carry different shift constants but must share block
    lengths.  Candidates always include both codes' shifts; when (q-1)^ell
    fits ADVISOR_BUDGET every nonzero shift vector is tried, otherwise the
    report flags itself as inconclusive beyond the tested set.
    """
    f = code1.field
    if f != code2.field or code1.profile.blocks != code2.profile.blocks:
        raise DomainError("advisor requires identical block lengths")
    blocks = code1.profile.blocks
    ell = len(blocks)
    lin1, lin2 = code1.to_linear(), code2.to_linear()
    inter = lin1.intersect(lin2)

    shifts1, shifts2 = code1.profile.shifts, code2.profile.shifts
    differing = sum(1 for a, b in zip(shifts1, shifts2) if a != b)

    nonzero = range(1, f.q)
    exhaustive = (f.q - 1) ** ell <= ADVISOR_BUDGET
    candidates: list[tuple[int, ...]] = []
    if exhaustive:
        candidates.extend(itertools.product(nonzero, repeat=ell))
    else:
        candidates.append(shifts1)
        if shifts2 != shifts1:
            candidates.append(shifts2)

    admitted = []
    for gamma in candidates:
        spans = _spans(blocks, gamma)
        if all(inter.contains_word(_twist(f, row, spans, 1)) for row in inter.gen):
            admitted.append(tuple(gamma))

    # Projection of the intersection onto each block.
    zero_projection = []
    at = 0
    for i, m in enumerate(blocks):
        if all(all(e == 0 for e in row[at : at + m]) for row in inter.gen):
            zero_projection.append(i)
        at += m

    d1 = d2 = None
    try:
        d1 = lin1.min_distance(distance_budget)
        d2 = lin2.min_distance(distance_budget)
    except BudgetError:
        pass

    notes = _advice_notes(shifts1, shifts2, ell, differing, d1, d2, admitted, zero_projection, exhaustive)
    return StructureAdvice(
        blocks=blocks,
        shifts1=shifts1,
        shifts2=shifts2,
        intersection=inter,
        admitted=tuple(admitted),
        candidates=tuple(candidates),
        exhaustive=exhaustive,
        differing=differing,
        zero_projection_blocks=tuple(zero_projection),
        d1=d1,
        d2=d2,
        notes=tuple(notes),
    )


def _advice_notes(shifts1, shifts2, ell, differing, d1, d2, admitted, zero_projection, exhaustive):
    notes = []
    if shifts1 == shifts2:
        notes.append(
            "shared shift constants: the intersection is multi-twisted "
            "for them unconditionally"
        )
        return notes
    notes.append(f"shift vectors differ at {differing} of {ell} indices")
    if d1 is None or d2 is None:
        notes.append("minimum distances unavailable within budget; "
                     "distance-bound case analysis skipped")
    else:
        if d1 > ell:
            notes.append(
                f"first code's distance {d1} > {ell}: an MT structure, if "
                "any, must use the first code's shifts"
            )
        if d2 > ell:
            notes.append(
                f"second code's distance {d2} > {ell}: an MT structure, if "
                "any, must use the second code's shifts"
            )
        if d1 <= ell and d2 <= ell:
            notes.append(
                f"distances {d1} and {d2} are both <= {ell}: a different "
                "shift vector Gamma can work only when each code's distance "
                "is at most the number of blocks where Gamma differs from "
                "that code's shifts"
            )
        if d1 > ell and d2 > ell:
            diff_blocks = [i for i, (a, b) in enumerate(zip(shifts1, shifts2)) if a != b]
            ok = set(diff_blocks) <= set(zero_projection)
            notes.append(
                "both distances exceed the index: an MT structure exists iff "
                "every block where the shifts differ projects to zero; "
                f"{'holds' if ok else 'fails'} here"
            )
    if not exhaustive:
        notes.append("inconclusive beyond tested set (exhaustive search over budget)")
    if not admitted:
        notes.append("no tested shift vector admits an MT structure")
    return notes
