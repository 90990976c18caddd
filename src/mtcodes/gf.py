"""Exact arithmetic in GF(p^e).

Field elements are plain ints in ``range(q)``.  The base-p digits of the int
are the coordinates of the element in the polynomial basis 1, w, w^2, ...,
w^(e-1), where w is the class of x modulo the field's irreducible modulus.
All arithmetic goes through a :class:`Field` instance, which owns the modulus
and chooses its arithmetic representation once, at construction:

* q <= 256: dense q x q add and mul tables, with negation and inverse
  tables beside them.  A prime field fills them by integer arithmetic, an
  extension field by lookups in its log tables (below), which are built
  first and dropped once the dense tables stand.
* prime fields with q > 256: integer arithmetic mod p; ``inv`` is
  ``pow(a, p - 2, p)``.
* extension fields with 256 < q <= 2^16: log/antilog tables of length
  O(q) to the base of a primitive element, for ``mul`` and ``inv``, and
  Zech logarithms (log(1 + g^n)) for ``add``.
* extension fields with q > 2^16: loops over the base-p digits (in
  characteristic 2, carry-less products of the bit patterns), and
  ``inv`` by square-and-multiply.

Moduli are tested for irreducibility by ``upoly.is_irreducible``.

0 and 1 always encode the additive and multiplicative identities, and for
prime fields the encoding is just the usual residue.

Keeping elements as bare ints (rather than wrapper objects) makes vectors and
polynomial coefficient lists cheap and hashable; the cost is that every
operation needs the field in hand, which in practice every caller already
has.  Polynomial arithmetic, and the scalar matrices of ``lincode``, call
the fused row primitive :meth:`Field.add_scaled` once per row rather than
``add``/``mul`` once per coefficient.

Integers are factored (``_prime_factors``) for the order q of a field, for
the unit group order q - 1, kept per field for multiplicative orders and
discrete logs, and for small cyclotomic indices.  Trial division by every
d below 2^10 comes first; a larger piece is proven prime by
Miller-Rabin, exact below 3.3 * 10^24, or split by Pollard-Brent rho with
a fixed step budget, past which DomainError is raised: no q hangs.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import DomainError, ParseError

# Largest q for which dense add/mul tables are precomputed.
_TABLE_LIMIT = 256
# Largest q of an extension field that gets log/antilog tables.  They take
# about 100 bytes per element (6 MB at 2^16, 26 MB at 2^18) and are built in
# O(q * e).  With Python 3.11 on a 2-core x86-64 machine, building GF(2^16)
# takes 0.043 s, against 30 us for one digit-loop mul in GF(2^20); the
# dense tables of GF(2^8), read from its log tables, take 0.02 s.
_LOG_LIMIT = 2**16


# Miller-Rabin to these bases decides primality exactly below _MR_EXACT
# (Sorenson and Webster, 2015): 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3_317_044_064_679_887_385_961_981
# The most Pollard-Brent rho steps one `_prime_factors` call takes, about a
# second in pure Python; enough to split off any prime factor below about
# 10^11.
_RHO_STEPS = 1 << 20


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, ascending; [] for n < 2.

    The factors below 2^10 are divided out first, by trial division, which
    leaves n prime when n < 2^20.  Any larger piece is proven prime by
    Miller-Rabin to the bases 2, ..., 41, exact below 3.3 * 10^24, or split
    by Pollard-Brent rho (`_rho_split`).  A piece that is neither proven
    prime nor split within _RHO_STEPS steps in all raises DomainError, so
    the call is bounded in time."""
    out = []
    for d in range(2, 1 << 10):
        if d * d > n:
            break
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
    todo, steps = [n] if n > 1 else [], _RHO_STEPS
    while todo:
        m = todo.pop()
        if m < 1 << 20 or (m < _MR_EXACT and _is_strong_probable_prime(m)):
            out.append(m)
        else:
            d, steps = _rho_split(m, steps)
            todo += (d, m // d)
    return sorted(set(out))


def _is_strong_probable_prime(n: int) -> bool:
    """Miller-Rabin on the odd n > 41 to every base in _MR_BASES."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_split(n: int, steps: int) -> tuple[int, int]:
    """A factor 1 < d < n of n, which has no prime factor below 2^10 and is
    not proven prime, with the steps left of ``steps``: Pollard's rho with
    Brent's cycle search on y -> y^2 + c for c = 1, 2, ..., the differences
    multiplied together and taken gcd with n once per 128 steps.  Raises
    DomainError when the steps run out."""
    for c in itertools.count(1):
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            steps -= 2 * r
            if steps < 0:
                raise DomainError(
                    f"cannot factor {n}: not proven prime (Miller-Rabin is exact below 3.3*10^24) "
                    f"and not split within {_RHO_STEPS} Pollard rho steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * abs(x - y) % n
                g = math.gcd(prod, n)
                k += 128
            r *= 2
        if g == n:
            # The batch overshot: replay it one step at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, steps


def _is_prime(n: int) -> bool:
    return n > 1 and _prime_factors(n) == [n]


def _is_irreducible(p: int, modulus: tuple[int, ...]) -> bool:
    # upoly imports Field, so it is imported here, at call time.
    from .upoly import Poly, is_irreducible

    return is_irreducible(Poly(field(p), modulus))


def default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree e over GF(p).

    Candidates are compared by their coefficient tuples read from the
    constant term upward; the leading 1 is implied.  For e = 1 this is x.
    For e > 1 candidates with constant term 0 are divisible by x and are
    skipped without a test.
    """
    if e == 1:
        return (0, 1)
    for tail in itertools.product(range(1, p), *[range(p)] * (e - 1)):
        f = tail + (1,)
        if _is_irreducible(p, f):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Field:
    """GF(p^e) with an explicit irreducible modulus over GF(p).

    Parameters
    ----------
    p : characteristic, prime.
    e : extension degree, >= 1.
    modulus : optional coefficient tuple (low degree first, length e+1,
        monic).  Defaults to the lexicographically least monic irreducible.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, p: int, e: int = 1, modulus=None):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        if modulus is None:
            modulus = default_modulus(p, e)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e")
            if not _is_irreducible(p, modulus):
                raise ValueError("modulus is reducible")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        # The modulus as an int of base-p digits, as elements are encoded;
        # in characteristic 2 `_raw_mul` reduces by its bit pattern.
        self._modulus_int = self.from_coeffs(modulus)
        # w = class of x; for prime fields the modulus is x and w = 0.
        self.omega = p % self.q if e > 1 else None
        # Discrete logs to the base w, kept per element once found, and the
        # baby steps of each prime order they were searched in.
        self._omega_logs: dict[int, int | None] = {}
        # The prime factors of q - 1, the order of the unit group, which
        # every element's order divides; set by the first `mult_order`.
        self._unit_primes: list[int] | None = None
        self._baby_steps: dict[int, tuple[int, dict[int, int], int]] = {}
        # sigma^k as a list per k, for dense tables; built on first use.
        self._frobenius_lists: dict[int, list[int]] = {}
        # The representation is the set of tables that are not None; with
        # none, arithmetic runs on ints (e = 1) or base-p digits (e > 1).
        self._add_table: list[list[int]] | None = None
        self._mul_table: list[list[int]] | None = None
        self._inv_table: list[int] | None = None
        self._neg_table: list[int] | None = None
        self._log: list | None = None
        self._exp: list[int] | None = None
        self._zech: list | None = None
        if self.q <= _TABLE_LIMIT:
            self._build_tables()
        elif e > 1 and self.q <= _LOG_LIMIT:
            self._build_log_tables()

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def of_order(q: int, modulus=None) -> "Field":
        """GF(q) for the prime power q, through the ``field`` memo."""
        ps = _prime_factors(q)
        if len(ps) != 1:
            raise ValueError(f"{q} is not a prime power")
        p, e = ps[0], 0
        while q > 1:
            q //= p
            e += 1
        return field(p, e, modulus)

    # -- encoding ------------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p digits of a: coordinates in the basis 1, w, ..., w^(e-1)."""
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        a = 0
        for c in reversed(list(cs)):
            a = a * self.p + (int(c) % self.p)
        return a

    def elements(self):
        return range(self.q)

    # -- arithmetic ----------------------------------------------------------

    def _build_tables(self):
        """Dense tables, filled through add and mul before they exist:
        those run on ints for a prime field, and on the log tables, built
        first and then dropped, for an extension field."""
        q = self.q
        if self.e > 1:
            self._build_log_tables()
        add = [[self.add(a, b) for b in range(q)] for a in range(q)]
        mul = [[self.mul(a, b) for b in range(q)] for a in range(q)]
        self._log = self._exp = self._zech = None
        self._add_table = add
        self._mul_table = mul
        self._inv_table = [0] + [mul[a].index(1) for a in range(1, q)]
        self._neg_table = [row.index(0) for row in add]

    def _build_log_tables(self):
        """exp[i] = g^i and log[g^i] = i for a primitive element g.

        exp has length 2(q - 1), so a sum of two logs indexes it without a
        reduction.  zech[n] = log(1 + g^n), or None where 1 + g^n = 0, also
        over two periods so that a difference of logs (negative ones by
        Python's index wrap) indexes it directly.
        """
        q, p = self.q, self.p
        g = next(c for c in range(p, q) if self.mult_order(c) == q - 1)
        # Multiplying by g is GF(p)-linear on the digits, so g*a is the sum
        # of g*(low half of a) and g*(high half of a), read from two tables
        # of about sqrt(q) entries: one digit-vector addition per element.
        h = p ** (self.e // 2)
        lo = [self._raw_mul(g, a) for a in range(h)]
        hi = [self._raw_mul(g, a * h) for a in range(q // h)]
        exp = [1] * (q - 1)
        a = 1
        for i in range(1, q - 1):
            a = exp[i] = self._raw_add(lo[a % h], hi[a // h])
        log: list = [None] * q
        for i, a in enumerate(exp):
            log[a] = i
        exp += exp
        # -1 = g^((q-1)/2) in odd characteristic; -a = a in characteristic 2.
        half = 0 if p == 2 else (q - 1) // 2
        self._neg_table = [0] + [exp[log[a] + half] for a in range(1, q)]
        # 1 + a changes only the lowest base-p digit of a.
        zech = [log[a + 1 if (a + 1) % p else a + 1 - p] for a in exp[: q - 1]]
        self._zech = zech + zech
        self._log = log
        self._exp = exp

    def _raw_add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        p = self.p
        if p == 2:
            return a ^ b
        out = 0
        mult = 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _raw_mul(self, a: int, b: int) -> int:
        """a * b from the base-p digits: the schoolbook product of the two
        digit vectors, reduced by the monic modulus from the top term down.
        In characteristic 2 the digits are the bits of a and b, so the
        product is a carry-less one of ints."""
        e, m = self.e, self.modulus
        if self.p == 2:
            prod = 0
            while b:
                if b & 1:
                    prod ^= a
                a <<= 1
                b >>= 1
            mod = self._modulus_int
            for k in range(prod.bit_length() - 1, e - 1, -1):
                if prod >> k & 1:
                    prod ^= mod << (k - e)
            return prod
        prod = [0] * (2 * e - 1)
        cb = self.coeffs(b)
        for i, x in enumerate(self.coeffs(a)):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] += x * y
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k] % self.p
            if c:
                for i in range(e):
                    prod[k - e + i] -= c * m[i]
        return self.from_coeffs(prod[:e])

    def _zech_add(self, a: int, b: int) -> int:
        # g^la + g^lb = g^la * (1 + g^(lb - la))
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][b]
        if self._zech is not None:
            return self._zech_add(a, b)
        return self._raw_add(a, b)

    def neg(self, a: int) -> int:
        if self._neg_table is not None:
            return self._neg_table[a]
        if self.e == 1:
            return -a % self.p
        if self.p == 2:
            return a
        return self.from_coeffs((-c) % self.p for c in self.coeffs(a))

    def sub(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][self._neg_table[b]]
        if self.e == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]] if a and b else 0
        if self.e == 1:
            return a * b % self.p
        return self._raw_mul(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self._inv_table is not None:
            return self._inv_table[a]
        if self._exp is not None:
            return self._exp[self.q - 1 - self._log[a]]
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def add_scaled(self, out: list[int], off: int, c: int, terms) -> None:
        """out[off + j] += c * b for every (j, b) in terms, in place.

        The row primitive of polynomial arithmetic: ``terms`` is any
        iterable of (index, coefficient) pairs, e.g. ``enumerate(row)`` or
        the nonzero entries of a sparse row.
        """
        if not c:
            return
        add = self._add_table
        if add is not None:
            crow = self._mul_table[c]
            for j, b in terms:
                j += off
                out[j] = add[out[j]][crow[b]]
        elif self.e == 1:
            p = self.p
            for j, b in terms:
                j += off
                out[j] = (out[j] + c * b) % p
        elif self._exp is not None:
            exp, log = self._exp, self._log
            lc = log[c]
            zadd = self._zech_add
            for j, b in terms:
                if b:
                    j += off
                    out[j] = zadd(out[j], exp[lc + log[b]])
        else:
            raw_add, raw_mul = self._raw_add, self._raw_mul
            for j, b in terms:
                j += off
                out[j] = raw_add(out[j], raw_mul(c, b))

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inv(a), -n
        result = 1
        while n:
            if n & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            n >>= 1
        return result

    def frobenius(self, a: int, k: int = 1) -> int:
        """sigma^k(a) = a^(p^k); k is reduced mod e."""
        k %= self.e
        if not k:
            return a
        if self._mul_table is None:
            return self.pow(a, self.p**k)
        sigma = self._frobenius_lists.get(k)
        if sigma is None:
            mul, sigma = self._mul_table, list(range(self.q))
            for _ in range(k):
                base = sigma
                for _ in range(self.p - 1):
                    sigma = [mul[s][b] for s, b in zip(sigma, base)]
            self._frobenius_lists[k] = sigma
        return sigma[a]

    def mult_order(self, a: int) -> int:
        """Least t >= 1 with a^t = 1; error on 0.

        t divides q - 1, so it is found by dividing q - 1 by each of its
        prime factors r while a^(t/r) = 1; they are found on the first call.
        """
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        t = self.q - 1
        if self._unit_primes is None:
            self._unit_primes = _prime_factors(t)
        for r in self._unit_primes:
            while t % r == 0 and self.pow(a, t // r) == 1:
                t //= r
        return t

    # -- text forms ----------------------------------------------------------

    def _omega_log(self, a: int) -> int | None:
        """The least j >= 0 with w^j = a; None when a is not a power of w, or
        the field is prime.  Kept per element once found."""
        if self.omega is None:
            return None
        if a not in self._omega_logs:
            self._omega_logs[a] = self._discrete_log(a)
        return self._omega_logs[a]

    def _discrete_log(self, a: int) -> int | None:
        """Pohlig-Hellman over the prime factors r of the order n of w.

        a is a power of w exactly when a^n = 1, the group being cyclic.  For
        each r^s exactly dividing n, j mod r^s is found one base-r digit at a
        time, each a discrete log in the subgroup of order r (`_log_of_order`);
        the residues combine by the Chinese remainder theorem into the j with
        0 <= j < n, which is the least, the powers w^0, ..., w^(n-1) being
        distinct."""
        w = self.omega
        n = self.mult_order(w)
        if not a or self.pow(a, n) != 1:
            return None
        j, mod = 0, 1
        for r in self._unit_primes:
            if n % r:
                continue
            rs = r
            while n % (rs * r) == 0:
                rs *= r
            g, h, gamma = self.pow(w, n // rs), self.pow(a, n // rs), self.pow(w, n // r)
            x, digit = 0, 1
            while digit < rs:
                # h * g^-x lies in the subgroup of order rs / digit.
                y = self.pow(self.mul(h, self.pow(g, -x)), rs // digit // r)
                x += self._log_of_order(r, gamma, y) * digit
                digit *= r
            j += mod * ((x - j) * pow(mod, -1, rs) % rs)
            mod *= rs
        return j

    def _log_of_order(self, r: int, gamma: int, y: int) -> int:
        """The d < r with gamma^d = y, gamma of prime order r and y a power
        of it, by baby-step giant-step: the m = ceil(sqrt(r)) baby steps
        gamma^i are kept per r, and y * gamma^(-m k) is looked up among them
        for k < m."""
        if r not in self._baby_steps:
            m, table, b = math.isqrt(r - 1) + 1, {}, 1
            for i in range(m):
                table[b] = i
                b = self.mul(b, gamma)
            self._baby_steps[r] = (m, table, self.inv(b))
        m, table, giant = self._baby_steps[r]
        for k in range(m):
            if y in table:
                return k * m + table[y]
            y = self.mul(y, giant)
        raise AssertionError(f"{y} is not a power of {gamma}")

    def format_element(self, a: int) -> str:
        """Canonical literal: a digit for prime-subfield values, else a power
        of w, else a parenthesized polynomial in w."""
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element of {self}")
        if a < self.p:
            return str(a)
        j = self._omega_log(a)
        if j == 1:
            return "w"
        if j is not None:
            return f"w^{j}"
        terms = []
        for i, c in enumerate(self.coeffs(a)):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                wpart = "w" if i == 1 else f"w^{i}"
                terms.append(wpart if c == 1 else f"{c}*{wpart}")
        return "(" + "+".join(terms) + ")"

    def parse_element(self, text: str) -> int:
        """Inverse of format_element; also accepts any w-power or sum form."""
        s = text.strip()
        if not s:
            raise ParseError("empty field element")
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1]
        total = 0
        for sign, piece in _split_sum(s):
            val = self._parse_term(piece)
            total = self.add(total, val if sign > 0 else self.neg(val))
        return total

    def _parse_term(self, term: str) -> int:
        term = term.strip()
        if not term:
            raise ParseError("empty term in field element")
        coef = 1
        if "*" in term:
            digits, _, term = term.partition("*")
            digits = digits.strip()
            if not digits.isdigit():
                raise ParseError(f"bad coefficient {digits!r}")
            coef = int(digits)
            if coef >= self.p:
                raise ParseError(f"coefficient {coef} out of range for GF({self.p}^{self.e})")
            term = term.strip()
        if term.isdigit():
            v = int(term)
            if v >= self.p:
                raise ParseError(f"constant {v} out of range; prime subfield has {self.p} elements")
            return self.mul(coef, v)
        if term == "w" or term.startswith("w^"):
            if self.omega is None:
                raise ParseError(f"w is undefined in the prime field GF({self.p})")
            k = 1
            if term != "w":
                try:
                    k = int(term[2:])
                except ValueError:
                    raise ParseError(f"bad element literal {term!r}") from None
            return self.mul(coef, self.pow(self.omega, k))
        raise ParseError(f"bad element literal {term!r}")

    def header(self) -> str:
        """Field line as written at the top of a code document."""
        if self.e == 1:
            return f"GF({self.p})"
        mod = " ".join(str(c) for c in self.modulus)
        return f"GF({self.p}^{self.e}) mod {mod}"

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"Field({self.header()!r})"


def _split_sum(s: str) -> list[tuple[int, str]]:
    """Split a +/- separated expression into (sign, term) pairs.

    Leading and doubled signs act as unary minus; dangling operators raise.
    """
    out: list[tuple[int, str]] = []
    sign = 1
    cur = ""
    expecting = True
    for ch in s:
        if ch in "+-":
            if cur.strip():
                out.append((sign, cur.strip()))
                cur = ""
                sign = 1
            if ch == "-":
                sign = -sign
            expecting = True
        else:
            cur += ch
            if not ch.isspace():
                expecting = False
    if cur.strip():
        out.append((sign, cur.strip()))
    elif expecting:
        raise ParseError(f"dangling operator in {s!r}")
    if not out:
        raise ParseError("empty expression")
    return out


@lru_cache(maxsize=None)
def _cached_field(p: int, e: int, modulus: tuple[int, ...] | None) -> Field:
    return Field(p, e, modulus)


def field(p: int, e: int = 1, modulus=None) -> Field:
    """Memoized Field constructor; identical parameters share one instance."""
    key = tuple(modulus) if modulus is not None else None
    return _cached_field(p, e, key)
