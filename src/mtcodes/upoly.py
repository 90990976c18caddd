"""Univariate polynomials over GF(q).

Coefficients are stored low degree first with no trailing zeros, so the
degree of the zero polynomial is the explicit sentinel NEG_INF rather than
-1.  Polynomials are immutable; arithmetic returns new objects.

The text form is ``c0 + c1*x + c2*x^2 + ...`` with zero terms omitted and
unit coefficients contracted (``w + x``, ``x^6 + 1``).  The parser accepts
the same grammar plus binary/unary minus, arbitrary whitespace, and terms in
any order.

Every product and division in the package, in `Poly`, the matrix
eliminations and the layer tables, runs on one kernel over coefficient
lists: `_add_product`, `_divisor_row`, `_long_divide`, `_reduce` and
`_exact_quotient`.  It is the one place that reads a divisor row; the
Euclid steps of `_gcd` build none.

Factorization covers exactly c * (x^N - 1), the only polynomials the
codes factor.  With N = N' * p^s, x^N - 1 is the product of Phi_d^(p^s)
over d | N', and every irreducible factor of Phi_d has degree ord_d(q).
The Phi_d are taken in ascending order of d, each built from
Phi_(d/l) for a prime l | d.  For d | q - 1 the factors are the
x - omega^k directly.  Otherwise Phi_d is cut by the factors already
found for every Phi_(d/l): x -> x^l maps the roots of Phi_d onto those
of Phi_(d/l), so each factor g of Phi_(d/l) gives the piece
gcd(Phi_d, g(x^l)).  No gcd whose answer is known is formed: (a) when
l | d/l, Phi_d(x) = Phi_(d/l)(x^l) and the g(x^l) are the pieces as they
stand; (b) a piece of degree ord_d(q) is irreducible and is not cut
again; (c) a piece's refinement against the g(x^l) stops once its parts'
degrees add up to its own; and (d) each gcd is one Euclid on coefficient
lists (`_gcd`), shared with `poly_gcd`, Rabin's test and the coset split.
Pieces still above degree ord_d(q) are split by
sums over the q-cyclotomic cosets of Z/d, which Frobenius fixes modulo
x^d - 1: each such sum is an element of GF(q) in every irreducible
component, so one power below q (or a trace to GF(2)) splits it.  Each
factor is certified irreducible by its degree: it divides Phi_d and has
degree ord_d(q), and the degrees must add up to phi(d).  The random
coset coefficients come from a generator seeded with ``FACTOR_SEED``
for each x^N - 1; the factor list is sorted, and a monic irreducible
factorization is unique, so the list does not depend on the seed, which
any report that includes a factorization still records.  ``factor`` keeps
the monic factor list of each x^N - 1 per (field, N), with the order d
of each factor's roots beside it, for at most ``_FACTOR_MEMO_SIZE`` of
them, so a process factors each period once: a profile, its dual,
Galois dual and reversal all share N, and so do the codes of one
document.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

from .errors import ParseError
from .gf import Field, _prime_factors, _split_sum
from .record import Record

NEG_INF = float("-inf")

# Seed for the coset-splitting RNG; recorded in CLI reports.
FACTOR_SEED = 2024

# Most factorizations of x^N - 1 that `factor` keeps, least recently used
# dropped first.
_FACTOR_MEMO_SIZE = 64


class Poly:
    """Immutable univariate polynomial over a Field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not 0 <= c < field.q:
                raise ValueError(f"coefficient {c} not in GF({field.q})")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def _trusted(field: Field, cs: list[int]) -> "Poly":
        """Wrap a coefficient list already in range(q), trimming trailing
        zeros; skips the conversion and range check of the constructor, for
        results computed by field arithmetic.  Takes ownership of ``cs``."""
        _trim(cs)
        out = object.__new__(Poly)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "coeffs", tuple(cs))
        return out

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(field: Field) -> "Poly":
        return Poly._trusted(field, [])

    @staticmethod
    def one(field: Field) -> "Poly":
        return Poly(field, (1,))

    @staticmethod
    def constant(field: Field, c: int) -> "Poly":
        return Poly(field, (c,))

    @staticmethod
    def x(field: Field) -> "Poly":
        return Poly(field, (0, 1))

    @staticmethod
    def binomial(field: Field, m: int, lam: int) -> "Poly":
        """x^m - lam, the block modulus of a twisted block."""
        if m < 1:
            raise ValueError("degree must be positive")
        return Poly(field, (field.neg(lam),) + (0,) * (m - 1) + (1,))

    # -- basics ---------------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return self._plus_scaled(other, 1)

    def __neg__(self) -> "Poly":
        return self.scale(self.field.neg(1))

    def __sub__(self, other: "Poly") -> "Poly":
        return self._plus_scaled(other, self.field.neg(1))

    def _plus_scaled(self, other: "Poly", c: int) -> "Poly":
        """self + c * other."""
        f = self.field
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        f.add_scaled(out, 0, c, enumerate(b))
        return Poly._trusted(f, out)

    def __mul__(self, other: "Poly") -> "Poly":
        out: list[int] = []
        _add_product(self.field, out, self.coeffs, other.coeffs)
        return Poly._trusted(self.field, out)

    def scale(self, c: int) -> "Poly":
        f = self.field
        out = [0] * len(self.coeffs)
        f.add_scaled(out, 0, c, enumerate(self.coeffs))
        return Poly._trusted(f, out)

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero() or k == 0:
            return self
        return Poly._trusted(self.field, [0] * k + list(self.coeffs))

    def __divmod__(self, other: "Poly"):
        f = self.field
        rem = list(self.coeffs)
        db = len(other.coeffs) - 1
        if len(rem) - 1 < db:
            return Poly.zero(f), self
        quot = _long_divide(f, rem, _divisor_row(f, other.coeffs))
        return Poly._trusted(f, quot), Poly._trusted(f, rem)

    def __mod__(self, other: "Poly") -> "Poly":
        if len(self.coeffs) < len(other.coeffs):
            return self
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def pow_mod(self, n: int, mod: "Poly") -> "Poly":
        """self^n modulo mod, by squaring; mod's reduction row is built
        once for every reduction."""
        div = _divisor_row(mod.field, mod.coeffs)
        result = Poly.one(self.field)
        base = _remainder(self, div)
        while n:
            if n & 1:
                result = _remainder(result * base, div)
            base = _remainder(base * base, div)
            n >>= 1
        return result

    def frobenius(self, k: int) -> "Poly":
        """Apply sigma^k to every coefficient; sigma^e is the identity, so
        for k a multiple of e this is self."""
        f = self.field
        if k % f.e == 0:
            return self
        return Poly._trusted(f, [f.frobenius(c, k) for c in self.coeffs])

    # -- text form --------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        f = self.field
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            lit = f.format_element(c)
            if i == 0:
                terms.append(lit)
            else:
                xpart = "x" if i == 1 else f"x^{i}"
                terms.append(xpart if c == 1 else f"{lit}*{xpart}")
        return " + ".join(terms)

    def __repr__(self):
        return f"Poly({self})"

    @staticmethod
    def parse(field: Field, text: str, block: tuple[int, int] | None = None) -> "Poly":
        """The polynomial written in text; with block = (m, lam), its residue
        modulo x^m - lam, each term folded as it is read by
        x^d = lam^(d // m) * x^(d mod m), so no list outgrows m."""
        coeffs: list[int] = []
        for sign, term in _split_sum(text):
            c, d = _parse_poly_term(field, term)
            if sign < 0:
                c = field.neg(c)
            if block is not None:
                wraps, d = divmod(d, block[0])
                c = field.mul(c, field.pow(block[1], wraps))
            while len(coeffs) <= d:
                coeffs.append(0)
            coeffs[d] = field.add(coeffs[d], c)
        return Poly(field, coeffs)


def _trim(cs: list[int]) -> None:
    """Drop the trailing zeros of a coefficient list in place."""
    while cs and not cs[-1]:
        cs.pop()


def _add_product(f: Field, out: list[int], a, b) -> None:
    """out += a * b in place, for coefficient sequences a and b, extending
    out as far as the product reaches: one `Field.add_scaled` over the
    nonzero terms of the longer factor per nonzero term of the shorter.
    When the shorter is a constant the longer is read once, with no list of
    its nonzero terms, and copied when that constant is 1 and out is empty.
    Trailing zeros of out are left for the caller to trim.  Every product
    of two polynomials in the package goes through here."""
    if not a or not b:
        return
    if len(a) > len(b):
        a, b = b, a
    if not out and len(a) == 1 and a[0] == 1:
        out.extend(b)
        return
    out.extend([0] * (len(a) + len(b) - 1 - len(out)))
    row = enumerate(b) if len(a) == 1 else [(j, bj) for j, bj in enumerate(b) if bj]
    add_scaled = f.add_scaled
    for i, ai in enumerate(a):
        if ai:
            add_scaled(out, i, ai, row)


def _divisor_row(f: Field, cs) -> tuple[int, int, list[tuple[int, int]]]:
    """The divisor with coefficient sequence cs, free of trailing zeros,
    prepared for long division: its degree, the inverse of its leading
    coefficient, and -cs below the leading term as (index, coeff) pairs of
    its nonzero entries.  Subtracting qc times the divisor from a remainder
    adds qc * (-cs); the leading term only cancels a coefficient that is
    never read again."""
    if not cs:
        raise ZeroDivisionError("polynomial division by zero")
    neg = f.neg
    return len(cs) - 1, f.inv(cs[-1]), [(i, neg(bi)) for i, bi in enumerate(cs[:-1]) if bi]


def _long_divide(f: Field, rem: list[int], div) -> list[int]:
    """Divide the coefficient list rem in place by a `_divisor_row` of
    degree db, leaving the remainder's db low coefficients in rem; return
    the quotient's coefficients (rem must have at least db + 1)."""
    db, inv_lead, row = div
    if not db:
        quot = rem[:] if inv_lead == 1 else [f.mul(c, inv_lead) for c in rem]
        rem.clear()
        return quot
    quot = [0] * (len(rem) - db)
    mul, add_scaled = f.mul, f.add_scaled
    for k in range(len(rem) - 1, db - 1, -1):
        c = rem[k]
        if c:
            if inv_lead != 1:
                c = mul(c, inv_lead)
            quot[k - db] = c
            add_scaled(rem, k - db, c, row)
    del rem[db:]
    return quot


def _reduce(f: Field, cs: list[int], div) -> list[int]:
    """cs modulo the `_divisor_row` div, in place, free of trailing zeros;
    returns cs."""
    _trim(cs)
    if len(cs) > div[0]:
        _long_divide(f, cs, div)
        _trim(cs)
    return cs


def _exact_quotient(f: Field, cs, div) -> list[int] | None:
    """cs divided by the `_divisor_row` div, free of trailing zeros, or None
    when the division leaves a remainder; cs itself is not modified."""
    rem = list(cs)
    quot = _long_divide(f, rem, div) if len(rem) > div[0] else []
    if any(rem):
        return None
    _trim(quot)
    return quot


def _remainder(e: Poly, div) -> Poly:
    """e modulo the polynomial prepared as the `_divisor_row` div."""
    if len(e.coeffs) <= div[0]:
        return e
    return Poly._trusted(e.field, _reduce(e.field, list(e.coeffs), div))


def _power(p: Poly, k: int) -> Poly:
    """p^k as the product, over the base-c digits k_t of k (c the
    characteristic), of (p^(c^t))^(k_t), where p^(c^t) = sigma^t(p)(x^(c^t))
    since the c-th power map is additive and is sigma on the coefficients.
    Each factor has at most deg p + 1 terms, so for k = c^s there is no
    product to form at all."""
    c, t, out = p.field.p, 0, Poly.one(p.field)
    while k:
        k, digit = divmod(k, c)
        if digit:
            base = _spread(p.frobenius(t), c**t)
            for _ in range(digit):
                out = out * base
        t += 1
    return out


def _parse_poly_term(field: Field, term: str) -> tuple[int, int]:
    """One additive term -> (coefficient, degree)."""
    term = term.strip()
    # Split a trailing x-part off; the coefficient may itself contain '*'
    # (e.g. "2*w^3*x^2") or parentheses ("(1+w)*x").
    xpart = None
    body = term
    star = term.rfind("*")
    if term == "x" or term.startswith("x^") or term.startswith("x "):
        xpart, body = term, ""
    elif star != -1 and term[star + 1 :].strip().startswith("x"):
        xpart = term[star + 1 :].strip()
        body = term[:star].strip()
    if xpart is None:
        return field.parse_element(term), 0
    if xpart == "x":
        d = 1
    elif xpart.startswith("x^"):
        try:
            d = int(xpart[2:])
        except ValueError:
            raise ParseError(f"bad power {xpart!r}") from None
        if d < 0:
            raise ParseError("negative powers are not allowed")
    else:
        raise ParseError(f"bad term {term!r}")
    c = 1 if body == "" else field.parse_element(body)
    return c, d


def reciprocal_poly(f: Poly, m: int) -> Poly:
    """x^m * f(1/x): the coefficient list reversed within m+1 slots.

    Requires deg f <= m; maps 0 to 0.
    """
    if f.is_zero():
        return f
    if f.degree > m:
        raise ValueError(f"degree {f.degree} exceeds reversal window {m}")
    out = [0] * (m + 1)
    for i, c in enumerate(f.coeffs):
        out[m - i] = c
    return Poly._trusted(f.field, out)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0."""
    return Poly._trusted(a.field, _gcd(a.field, a.coeffs, b.coeffs))


def _gcd(f: Field, a, b) -> list[int]:
    """The monic gcd of two coefficient sequences free of trailing zeros,
    as a new list ([] for gcd(0, 0)).  Every gcd in the package runs here.
    Each Euclid step reduces a modulo b in place: while a reaches deg b,
    a -= c * x^s * b with c = lead(a) / lead(b), one `Field.add_scaled`
    over the nonzero terms of b below its leading one, and a's leading
    term, which that cancels, is dropped unread."""
    a, b = list(a), list(b)
    mul, neg, inv, add_scaled = f.mul, f.neg, f.inv, f.add_scaled
    while b:
        db = len(b) - 1
        if len(a) > db:
            inv_lead = inv(b[-1])
            row = [(j, bj) for j, bj in enumerate(b[:-1]) if bj]
            while len(a) > db:
                c = a.pop()
                if c:
                    add_scaled(a, len(a) - db, neg(c if inv_lead == 1 else mul(c, inv_lead)), row)
            _trim(a)
        a, b = b, a
    if a and a[-1] != 1:
        c = inv(a[-1])
        a = [mul(c, ai) for ai in a]
    return a


class Factorization(Record):
    """unit * prod(f_i ^ m_i) with the f_i monic irreducible, sorted by
    (degree, coefficient tuple)."""

    field: Field
    unit: int
    factors: tuple[tuple[Poly, int], ...]

    def expand(self) -> Poly:
        acc = Poly.constant(self.field, self.unit)
        for f, m in self.factors:
            for _ in range(m):
                acc = acc * f
        return acc

    def __iter__(self):
        return iter(self.factors)


def is_irreducible(f: Poly) -> bool:
    """Rabin irreducibility test over GF(q)."""
    d = f.degree
    if d is NEG_INF or d == 0:
        return False
    if d == 1:
        return True
    fld = f.field
    q = fld.q
    x = Poly.x(fld)
    if x.pow_mod(q**d, f) != x % f:
        return False
    for r in _prime_factors(d):
        g = poly_gcd(x.pow_mod(q ** (d // r), f) - x, f)
        if g.degree is not NEG_INF and g.degree > 0:
            return False
    return True


def _binomial_degree(f: Poly) -> int | None:
    """N when f is c * (x^N - 1), else None."""
    cs = f.coeffs
    if len(cs) < 2 or cs[0] != f.field.neg(cs[-1]) or any(cs[1:-1]):
        return None
    return len(cs) - 1


def _mult_order_mod(q: int, d: int) -> int:
    """Least t >= 1 with q^t = 1 (mod d), for gcd(q, d) = 1."""
    t, r = 1, q % d
    while r != 1 % d:
        r = r * q % d
        t += 1
    return t


def _spread(g: Poly, l: int) -> Poly:
    """g(x^l)."""
    out = [0] * (l * (len(g.coeffs) - 1) + 1)
    out[::l] = g.coeffs
    return Poly._trusted(g.field, out)


def _binomial_factors(fld: Field, n: int) -> list[tuple[Poly, int, int]]:
    """Irreducible factors of x^n - 1 as (factor, multiplicity, root order),
    unsorted: x^n - 1 = prod over d | n' of Phi_d^(p^s) for n = n' * p^s,
    and the roots of every factor of Phi_d have order d.  The Phi_d
    are built and cut in ascending order of d, each from those of its
    divisors (`_cyclotomic_pieces`); pieces still above ord_d(q) go to
    `_coset_split`, whose random coset sums are seeded by FACTOR_SEED.
    Every factor of Phi_d must have degree ord_d(q), and their degrees
    must sum to phi(d): a divisor of Phi_d of that degree is irreducible,
    so this certifies the list, and AssertionError is raised otherwise."""
    rng = random.Random(FACTOR_SEED)
    mult = 1
    while n % fld.p == 0:
        n //= fld.p
        mult *= fld.p
    cyclo: dict[int, Poly] = {}
    split: dict[int, list[Poly]] = {}
    found = []
    for d in range(1, n + 1):
        if n % d:
            continue
        deg = _mult_order_mod(fld.q, d)
        phi = cyclo[d] = _cyclotomic(fld, d, cyclo)
        irreducibles = split[d] = [
            irr
            for piece in _cyclotomic_pieces(phi, d, deg, split)
            for irr in (_coset_split(piece, d, deg, rng) if piece.degree > deg else [piece])
        ]
        degrees = [g.degree for g in irreducibles]
        if any(e != deg for e in degrees) or sum(degrees) != phi.degree:
            raise AssertionError(
                f"Phi_{d} over GF({fld.q}) split into degrees {sorted(degrees)}, "
                f"not {phi.degree // deg} factors of degree ord_{d}(q) = {deg}"
            )
        found.extend((g, mult, d) for g in irreducibles)
    return found


def _cyclotomic(fld: Field, d: int, cyclo: dict[int, Poly]) -> Poly:
    """Phi_d from Phi_r, r = d / l for the largest prime l | d, in `cyclo`:
    Phi_d(x) = Phi_r(x^l) when l | r, else Phi_r(x^l) / Phi_r(x)."""
    if d == 1:
        return Poly.binomial(fld, 1, 1)
    l = _prime_factors(d)[-1]
    r = d // l
    lifted = _spread(cyclo[r], l)
    return lifted if r % l == 0 else lifted.exact_div(cyclo[r])


def _cyclotomic_pieces(phi: Poly, d: int, deg: int, split: dict[int, list[Poly]]) -> list[Poly]:
    """Phi_d cut into coprime monic pieces, each a product of irreducibles
    of degree deg = ord_d(q), from the factors of Phi_(d/l), l prime,
    already in `split`.

    When d | q - 1 the primitive d-th roots of unity lie in GF(q), and the
    pieces are the x - omega^k for an omega of order d, k in (Z/d)^*.
    Otherwise, for each prime l | d, x -> x^l maps the roots of Phi_d onto
    those of Phi_(d/l), so the g(x^l), one per factor g of Phi_(d/l), have
    disjoint root sets, and the pieces are the nonconstant
    gcd(P, g(x^l)) over all of them.  No gcd whose answer is known is
    formed:

    (a) when l | d/l for some prime l, Phi_d(x) = Phi_(d/l)(x^l), so the
        g(x^l) themselves are the pieces for that l;
    (b) a piece of degree deg is irreducible and no later prime cuts it;
    (c) the parts gcd(P, g(x^l)) of P are coprime and multiply to P, so
        P's refinement stops once their degrees add up to deg P;
    (d) each gcd is one `_gcd` on coefficient lists."""
    fld = phi.field
    if (fld.q - 1) % d == 0:
        omega = next(
            w for w in (fld.pow(a, (fld.q - 1) // d) for a in range(1, fld.q)) if fld.mult_order(w) == d
        )
        return [
            Poly._trusted(fld, [fld.neg(fld.pow(omega, k)), 1]) for k in range(1, d + 1) if math.gcd(k, d) == 1
        ]
    primes = _prime_factors(d)
    lifted = [l for l in primes if d // l % l == 0]
    if lifted:
        l = max(lifted, key=lambda l: len(split[d // l]))
        pieces = [_spread(g, l) for g in split[d // l]]
        primes = [r for r in primes if r != l]
    else:
        pieces = [phi]
    for l in primes:
        if all(piece.degree == deg for piece in pieces):
            break
        spread = [_spread(g, l).coeffs for g in split[d // l]]
        refined = []
        for piece in pieces:
            left = piece.degree
            if left == deg:
                refined.append(piece)
                continue
            for g in spread:
                h = _gcd(fld, piece.coeffs, g)
                if len(h) > 1:
                    refined.append(Poly._trusted(fld, h))
                    left -= len(h) - 1
                    if not left:
                        break
        pieces = refined
    return pieces


def _coset_split(piece: Poly, d: int, deg: int, rng: random.Random) -> list[Poly]:
    """The irreducible factors, all of degree deg = ord_d(q), of a monic
    piece of Phi_d.

    For each q-cyclotomic coset C of Z/d, eta_C = sum over c in C of x^c
    has eta_C(x)^q = eta_C(x^q) = eta_C modulo x^d - 1, so any
    b = sum of c_C * eta_C lies in GF(q) in every irreducible component of
    a piece P, and uniformly so for random c_C.  Then gcd(P, b^((q-1)/2) - 1),
    or for even q the gcd with the trace of b to GF(2), splits P with
    probability about 1/2; the parts are split again until each has
    degree deg.  Every factor of x^d - 1 has degree dividing deg, so a
    part of any other degree would never split down: AssertionError."""
    fld = piece.field
    q = fld.q
    cosets, seen = [], set()
    for a in range(d):
        if a not in seen:
            coset = [a]
            b = a * q % d
            while b != a:
                coset.append(b)
                b = b * q % d
            seen.update(coset)
            cosets.append(coset)
    out, todo = [], [piece]
    while todo:
        p = todo.pop()
        if p.degree == deg:
            out.append(p)
            continue
        if p.degree % deg:
            raise AssertionError(f"Phi_{d} over GF({q}): a part of degree {p.degree}")
        coeffs = [0] * d
        for coset in cosets:
            c = rng.randrange(q)
            for a in coset:
                coeffs[a] = c
        b = Poly._trusted(fld, coeffs) % p
        if fld.p == 2:
            t = b
            for _ in range(fld.e - 1):
                b = b * b % p
                t = t + b
            g = poly_gcd(p, t)
        else:
            g = poly_gcd(p, b.pow_mod((q - 1) // 2, p) - Poly.one(fld))
        todo += [g, p.exact_div(g)] if 0 < g.degree < p.degree else [p]
    return out


def factor(f: Poly) -> Factorization:
    """Factorization of f = c * (x^N - 1), N >= 1, into monic irreducibles
    by the cyclotomic route of `_binomial_factors`; any other f, zero
    included, raises ValueError.

    Factors are sorted by degree, then by coefficient tuple, and the
    factorization is unique, so equal inputs give equal factor lists.
    The list is computed once per (field, N) and shared; only the unit c
    is taken from f on each call.
    """
    n = _binomial_degree(f)
    if n is None:
        raise ValueError("factor takes only c * (x^N - 1) with N >= 1")
    return Factorization(f.field, f.lead, _monic_factors(f.field, n)[0])


@lru_cache(maxsize=_FACTOR_MEMO_SIZE)
def _monic_factors(fld: Field, n: int) -> tuple[tuple[tuple[Poly, int], ...], tuple[int, ...]]:
    """The sorted factors of x^n - 1 with multiplicities, and the order of
    each factor's roots in the same order, memoized."""
    found = sorted(_binomial_factors(fld, n), key=lambda g: (g[0].degree, g[0].coeffs))
    return tuple((g, m) for g, m, _ in found), tuple(d for _, _, d in found)
