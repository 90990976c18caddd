"""The benchmark's own finite-field and F_q[x] arithmetic.

Every check of a program output runs on this module (or on
``mtcodes.oracle``), never on the GPM machinery under test.  Field elements
use the program's encoding: base-p digits of an int are the coordinates in
the basis 1, w, ..., w^(e-1) for the field's modulus, which is read from the
program's Field as data.  Polynomials are lists of ints, low degree first,
without trailing zeros.
"""

from __future__ import annotations


class GF:
    """GF(p^e) with log/antilog tables, independent of mtcodes.gf."""

    def __init__(self, p: int, e: int, modulus):
        self.p, self.e, self.q = p, e, p**e
        self.modulus = tuple(modulus)
        q = self.q
        # Find a primitive element by brute force and tabulate its powers.
        for g in range(2 if q > 2 else 1, q):
            exp, a = [], 1
            seen = set()
            for _ in range(q - 1):
                if a in seen:
                    break
                seen.add(a)
                exp.append(a)
                a = self._slow_mul(a, g)
            if len(exp) == q - 1:
                break
        self.exp = exp + exp
        self.log = [0] * q
        for i, a in enumerate(exp):
            self.log[a] = i

    def _digits(self, a):
        out = []
        for _ in range(self.e):
            a, d = divmod(a, self.p)
            out.append(d)
        return out

    def _undigits(self, ds):
        a = 0
        for d in reversed(ds):
            a = a * self.p + d % self.p
        return a

    def _slow_mul(self, a, b):
        p, e = self.p, self.e
        if e == 1:
            return a * b % p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k]
            if c:
                for i, mi in enumerate(self.modulus):
                    prod[k - e + i] = (prod[k - e + i] - c * mi) % p
        return self._undigits(prod[:e])

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._undigits([x + y for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a):
        if self.e == 1:
            return -a % self.p
        if self.p == 2:
            return a
        return self._undigits([-x for x in self._digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.exp[(self.q - 1 - self.log[a]) % (self.q - 1)]

    def pow(self, a, n):
        if a == 0:
            return 0 if n else 1
        return self.exp[(self.log[a] * n) % (self.q - 1)]

    def frob(self, a, k):
        """a^(p^k)."""
        return self.pow(a, self.p ** (k % self.e))

    def order(self, a):
        """Multiplicative order of a nonzero a."""
        n = self.q - 1
        t = n // _gcd(n, self.log[a])
        return t

    def parse(self, text: str) -> int:
        """Element literal as the program prints it: a digit, w, w^k, or a
        parenthesised sum of c*w^i terms."""
        s = text.strip()
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1]
        total = 0
        for term in s.split("+"):
            term = term.strip()
            coef = 1
            if "*" in term:
                c, term = term.split("*", 1)
                coef = int(c)
            if term.isdigit():
                val = int(term) % self.p
            elif term == "w":
                val = self.p
            elif term.startswith("w^"):
                val = self.pow(self.p, int(term[2:]))
            else:
                raise ValueError(f"bad element literal {text!r}")
            total = self.add(total, self.mul(coef % self.p, val))
        return total


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# ---------------------------------------------------------------------------
# polynomials over GF
# ---------------------------------------------------------------------------

def trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def deg(a):
    return len(a) - 1


def padd(f: GF, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = f.add(out[i], c)
    return trim(out)


def psub(f: GF, a, b):
    return padd(f, a, [f.neg(c) for c in b])


def pmul(f: GF, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = f.add(out[i + j], f.mul(x, y))
    return trim(out)


def pdivmod(f: GF, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return [], trim(rem)
    inv = f.inv(b[-1])
    quot = [0] * (len(rem) - db)
    for k in range(len(rem) - 1, db - 1, -1):
        c = rem[k]
        if c:
            qc = f.mul(c, inv)
            quot[k - db] = qc
            for i, y in enumerate(b):
                if y:
                    rem[k - db + i] = f.sub(rem[k - db + i], f.mul(qc, y))
    return trim(quot), trim(rem[:db])


def pmod(f: GF, a, b):
    return pdivmod(f, a, b)[1]


def binomial(f: GF, m: int, lam: int):
    """x^m - lam."""
    return [f.neg(lam)] + [0] * (m - 1) + [1]


# ---------------------------------------------------------------------------
# modules over F_q[x] and the codes they define
# ---------------------------------------------------------------------------

def matmul(f: GF, a, b):
    """Product of matrices whose entries are polynomials."""
    out = []
    for row in a:
        orow = []
        for j in range(len(b[0])):
            acc = []
            for i, x in enumerate(row):
                if x and b[i][j]:
                    acc = padd(f, acc, pmul(f, x, b[i][j]))
            orow.append(acc)
        out.append(orow)
    return out


def is_upper_triangular(g) -> bool:
    return all(not g[i][j] for i in range(len(g)) for j in range(i))


def module_dim(f: GF, rows, moduli) -> int:
    """F_q-dimension of the code generated by polynomial rows together with
    diag(moduli).

    Column-by-column Euclidean elimination; every entry of a column j not
    yet eliminated stays reduced modulo moduli[j], which is legal because
    the row moduli[j]*e_j is untouched until column j is reached.  The
    pivot of column j is the gcd of that column, so the code has dimension
    sum(m_j - deg pivot_j).
    """
    ell = len(moduli)
    pool = [[pmod(f, e, moduli[j]) for j, e in enumerate(r)] for r in rows]
    dim = 0
    for c in range(ell):
        diag_row = [[] for _ in range(ell)]
        diag_row[c] = list(moduli[c])
        live = [r for r in pool if r[c]] + [diag_row]
        rest = [r for r in pool if not r[c]]
        while len(live) > 1:
            live.sort(key=lambda r: len(r[c]))
            piv = live[0]
            nxt = [piv]
            for r in live[1:]:
                qt, _ = pdivmod(f, r[c], piv[c])
                r = [psub(f, x, pmul(f, qt, y)) for x, y in zip(r, piv)]
                r = [r[j] if j <= c else pmod(f, r[j], moduli[j]) for j in range(ell)]
                (nxt if r[c] else rest).append(r)
            live = nxt
        dim += deg(moduli[c]) - deg(live[0][c])
        pool = rest
    return dim


def member(f: GF, gpm, moduli, vec) -> bool:
    """Whether a polynomial vector lies in the row module of an upper
    triangular GPM whose rows generate diag(moduli) (checked separately)."""
    ell = len(moduli)
    v = [pmod(f, e, moduli[j]) for j, e in enumerate(vec)]
    for c in range(ell):
        if not v[c]:
            continue
        qt, r = pdivmod(f, v[c], gpm[c][c])
        if r:
            return False
        v = [pmod(f, psub(f, x, pmul(f, qt, y)), moduli[j]) for j, (x, y) in enumerate(zip(v, gpm[c]))]
    return not any(v)


def gpm_dim(gpm, blocks) -> int:
    return sum(m - deg(gpm[i][i]) for i, m in enumerate(blocks))


def to_vector(f: GF, polys, blocks, moduli):
    out = []
    for p, m, mod in zip(polys, blocks, moduli):
        p = pmod(f, p, mod)
        out.extend(p[i] if i < len(p) else 0 for i in range(m))
    return out


def from_vector(vec, blocks):
    out, at = [], 0
    for m in blocks:
        out.append(trim(list(vec[at : at + m])))
        at += m
    return out


def scalar_basis(f: GF, gpm, blocks, moduli):
    """k scalar rows spanning the code of an upper triangular GPM:
    x^j * g_i for 0 <= j < m_i - deg G_ii."""
    out = []
    for i, row in enumerate(gpm):
        cur = list(row)
        for _ in range(blocks[i] - deg(row[i])):
            out.append(to_vector(f, cur, blocks, moduli))
            cur = [pmod(f, [0] + e, mod) if e else [] for e, mod in zip(cur, moduli)]
    return out


def rank(f: GF, rows) -> int:
    """Rank of a scalar matrix by Gaussian elimination."""
    work = [list(r) for r in rows if any(r)]
    r = 0
    n_cols = len(work[0]) if work else 0
    for c in range(n_cols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = f.inv(work[r][c])
        prow = [f.mul(inv, x) for x in work[r]]
        work[r] = prow
        for i in range(r + 1, len(work)):
            t = work[i][c]
            if t:
                work[i] = [f.sub(x, f.mul(t, y)) for x, y in zip(work[i], prow)]
        r += 1
    return r


def galois_gram(f: GF, a, b, kappa: int):
    """Rows a_i . sigma^kappa(b_j): the kappa-Galois form between two sets."""
    bs = [[f.frob(x, kappa) for x in row] for row in b]
    out = []
    for u in a:
        orow = []
        for v in bs:
            acc = 0
            for x, y in zip(u, v):
                if x and y:
                    acc = f.add(acc, f.mul(x, y))
            orow.append(acc)
        out.append(orow)
    return out
