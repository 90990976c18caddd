"""Univariate polynomial arithmetic, text forms, gcds, and factorization."""

import contextlib
import math
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtcodes.upoly as upoly_mod
from mtcodes import Poly, PolyMatrix, factor, field, reciprocal_poly
from mtcodes.gf import Field, _prime_factors
from mtcodes.upoly import (
    FACTOR_SEED,
    NEG_INF,
    _add_product,
    _divisor_row,
    _exact_quotient,
    _reduce,
    _spread,
    is_irreducible,
    poly_gcd,
)

from helpers import f4, f9_mod221, poly, reference_cyclotomic_pieces


F3 = field(3)


def rand_poly(rng, f, max_deg):
    return Poly(f, [rng.randrange(f.q) for _ in range(rng.randint(0, max_deg + 1))])


def test_degree_and_zero_sentinel():
    assert Poly.zero(F3).degree == NEG_INF
    assert Poly.one(F3).degree == 0
    assert Poly.x(F3).degree == 1
    assert Poly(F3, [1, 0, 0]).degree == 0  # trailing zeros trimmed
    assert not Poly.zero(F3)
    assert Poly.one(F3).coeffs == (1,)


def test_text_round_trip_canonical():
    f = f4()
    p = poly(f, "w + w^2*x + x^3")
    assert str(p) == "w + w^2*x + x^3"
    assert Poly.parse(f, str(p)) == p
    assert str(Poly.zero(f)) == "0"
    assert str(Poly.one(f)) == "1"
    assert str(Poly.x(f)) == "x"
    assert Poly.parse(f, "x^2") == Poly(f, (0, 0, 1))
    assert Poly.parse(F3, "2 + x - x") == Poly.constant(F3, 2)


def test_binomial_is_shift_modulus():
    f = f4()
    b = Poly.binomial(f, 6, 1)
    assert b == poly(f, "1 + x^6")  # x^6 - 1 = x^6 + 1 in characteristic 2
    b3 = Poly.binomial(F3, 3, 2)
    assert b3 == poly(F3, "1 + x^3")  # x^3 - 2 = x^3 + 1 over F_3


@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=100)
def test_ring_axioms_f4(a, b, c):
    f = f4()
    rng = random.Random(a * 3 + b * 5 + c * 7)
    pa, pb, pc = (rand_poly(rng, f, 5) for _ in range(3))
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa - pa == Poly.zero(f)


@given(st.integers(0, 10**6))
@settings(max_examples=150)
def test_divmod_invariant(seed):
    rng = random.Random(seed)
    f = [F3, f4(), f9_mod221()][seed % 3]
    a = rand_poly(rng, f, 8)
    b = rand_poly(rng, f, 4)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_mod_returns_a_shorter_dividend_itself():
    a = poly(F3, "1 + 2*x")
    b = poly(F3, "x^2 + 1")
    assert a % b is a
    assert Poly.zero(F3) % b == Poly.zero(F3)
    for dividend in (a, Poly.zero(F3)):
        with pytest.raises(ZeroDivisionError):
            dividend % Poly.zero(F3)


def test_exact_div_rejects_remainder():
    a = poly(F3, "1 + x^2")
    b = poly(F3, "x")
    with pytest.raises(ValueError):
        a.exact_div(b)
    assert (a * b).exact_div(b) == a


@given(st.integers(0, 10**6))
@settings(max_examples=200)
def test_gcd_properties(seed):
    """Over table, prime and digit-loop fields, with a common factor
    planted in half the cases: the gcd is monic, divides both, and equals
    Euclid by `Poly` remainders made monic."""
    rng = random.Random(seed)
    f = [F3, f4(), field(3, 2), field(257), field(17, 2), field(2, 9)][seed % 6]
    a = rand_poly(rng, f, 6)
    b = rand_poly(rng, f, 6)
    if seed // 6 % 2:
        c = rand_poly(rng, f, 4)
        a, b = a * c, b * c
    g = poly_gcd(a, b)
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
        return
    assert g.lead == 1  # monic
    assert (a % g).is_zero() and (b % g).is_zero()
    ref_a, ref_b = a, b
    while not ref_b.is_zero():
        ref_a, ref_b = ref_b, ref_a % ref_b
    assert g == ref_a.scale(f.inv(ref_a.lead))


def test_frobenius_and_pth_power():
    f = f9_mod221()
    p = poly(f, "w + w^3*x + x^2")
    assert p.frobenius(2) == p  # sigma^e is the identity on coefficients
    # in characteristic 3, p(x)^3 is sigma(p) evaluated at x^3
    assert p * p * p == _spread(p.frobenius(1), 3)


@pytest.mark.parametrize("f", [field(3, 2), field(2, 4), field(17, 2)], ids=lambda f: f"q{f.q}")
def test_frobenius_maps_each_coefficient(f):
    rng = random.Random(f.q)
    for _ in range(10):
        p = rand_poly(rng, f, 6)
        m = PolyMatrix(f, [[p, rand_poly(rng, f, 4)], [Poly.zero(f), rand_poly(rng, f, 3)]])
        for k in range(-f.e, 2 * f.e + 1):
            if k % f.e == 0:
                assert p.frobenius(k) is p and m.frobenius(k) is m  # sigma^e is the identity
                continue
            assert p.frobenius(k) == Poly(f, [f.frobenius(c, k) for c in p.coeffs])
            want = [[Poly(f, [f.frobenius(c, k) for c in e.coeffs]) for e in row] for row in m.rows]
            assert m.frobenius(k) == PolyMatrix(f, want)


def test_reciprocal_poly():
    f = f4()
    p = poly(f, "w + x + w^2*x^3")
    r = reciprocal_poly(p, 3)
    assert r == poly(f, "w^2 + x^2 + w*x^3")
    # reciprocal twice at matching degree bound returns the original
    assert reciprocal_poly(r, 3) == p
    # m larger than deg shifts the coefficients up
    assert reciprocal_poly(Poly.one(f), 2) == Poly(f, (0, 0, 1))


def test_irreducibility_small_cases():
    assert is_irreducible(poly(F3, "1 + x"))
    assert is_irreducible(poly(F3, "1 + x^2"))
    assert not is_irreducible(poly(F3, "2 + x^2"))  # (x+1)(x+2)
    assert not is_irreducible(Poly.one(F3))
    f = f4()
    assert is_irreducible(poly(f, "w + x"))
    assert not is_irreducible(poly(f, "1 + x^2"))  # (x+1)^2


def test_factor_known_products():
    f = f4()
    fac = factor(Poly.binomial(f, 6, 1))
    # x^6 - 1 = (x+1)^2 (x+w)^2 (x+w^2)^2 over F_4
    assert [(str(p), m) for p, m in fac] == [
        ("1 + x", 2),
        ("w + x", 2),
        ("w^2 + x", 2),
    ]
    assert fac.expand() == Poly.binomial(f, 6, 1)
    assert any(m > 1 for _, m in fac)

    fac3 = factor(Poly.binomial(F3, 9, 1) * Poly.constant(F3, 2))
    assert fac3.unit == 2
    assert fac3.expand() == Poly.binomial(F3, 9, 1) * Poly.constant(F3, 2)


def test_factor_deterministic_and_sorted(monkeypatch, cold_factor_memo):
    import mtcodes.upoly as upoly

    f = f9_mod221()
    target = Poly.binomial(f, 60, 1).scale(f.parse_element("w^2"))
    fac1 = factor(target)
    upoly._monic_factors.cache_clear()
    monkeypatch.setattr(upoly, "FACTOR_SEED", FACTOR_SEED + 1)
    fac2 = factor(target)
    # other coset sums, the same unique factorization
    assert fac2.factors is not fac1.factors
    assert [(p.coeffs, m) for p, m in fac1] == [(p.coeffs, m) for p, m in fac2]
    keys = [(p.degree, p.coeffs) for p, _ in fac1]
    assert keys == sorted(keys)
    for p, _ in fac1:
        assert is_irreducible(p)
    assert fac1.expand() == target


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_factor_random_round_trip(seed):
    rng = random.Random(seed)
    f = [F3, f4()][seed % 2]
    p = Poly.binomial(f, rng.randint(1, 60), 1).scale(rng.randrange(1, f.q))
    fac = factor(p)
    assert fac.unit == p.lead
    assert fac.expand() == p
    for q, m in fac:
        assert m >= 1
        assert q.lead == 1
        assert is_irreducible(q)


# -- fields above the 256-element table limit --------------------------------

LARGE = [field(257), field(17, 2)]


def schoolbook_mul(a, b):
    """Reference product, one Field.add/mul call per coefficient pair."""
    f = a.field
    out = [0] * (len(a.coeffs) + len(b.coeffs))
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] = f.add(out[i + j], f.mul(ai, bj))
    return Poly(f, out)


@pytest.mark.parametrize("f", [F3, f4(), f9_mod221(), field(2, 9)] + LARGE, ids=lambda f: f"q{f.q}")
def test_mul_matches_schoolbook(f):
    rng = random.Random(f.q)
    for _ in range(30):
        a, b = rand_poly(rng, f, 9), rand_poly(rng, f, 6)
        assert a * b == schoolbook_mul(a, b) == b * a
        assert a - b == a + (-b)
        assert (a - b) + b == a


PRODUCT_FIELDS = [field(2), F3, f4(), f9_mod221(), field(257), field(17, 2), field(2, 9), field(2, 17)]


def coefficient_list(rng, f, max_len, density):
    """Up to max_len coefficients, each nonzero with probability density;
    the list may end in zeros."""
    return [rng.randrange(1, f.q) if rng.random() < density else 0 for _ in range(rng.randint(0, max_len))]


@given(st.integers(0, 10**6))
@settings(max_examples=160, deadline=None)
def test_add_product_accumulates_the_schoolbook_product(seed):
    """out += a * b against one Field.add/mul call per coefficient pair, for
    factors that are zero, one, constant, sparse or dense, into an empty out
    and a non-empty one shorter than, as long as and longer than the
    product."""
    rng = random.Random(seed)
    f = PRODUCT_FIELDS[seed % len(PRODUCT_FIELDS)]
    a = [1] if seed % 5 == 0 else coefficient_list(rng, f, rng.choice([1, 9]), rng.choice([0.0, 0.2, 1.0]))
    b = coefficient_list(rng, f, 12, rng.choice([0.2, 0.6, 1.0]))
    if rng.random() < 0.5:
        a, b = b, a
    n = len(a) + len(b) - 1 if a and b else 0
    for extra in (None, -2, 0, 3):
        out = [] if extra is None else [rng.randrange(f.q) for _ in range(max(1, n + extra))]
        want = out + [0] * (n - len(out))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                want[i + j] = f.add(want[i + j], f.mul(x, y))
        _add_product(f, out, a, b)
        assert out == want


# Dense tables, plain integers, log tables and the base-p digit loop.
KERNEL_FIELDS = [F3, field(257), field(17, 2), field(2, 17)]


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_reduce_and_exact_quotient_match_divmod(seed):
    """`_reduce` and `_exact_quotient` against `divmod` of Polys, in one
    field per representation.  Dividends may be zero, shorter than the
    divisor, exact multiples of it, or end in zeros; divisors need not be
    monic."""
    rng = random.Random(seed)
    f = KERNEL_FIELDS[seed % len(KERNEL_FIELDS)]
    d = coefficient_list(rng, f, 5, rng.choice([0.5, 1.0])) + [rng.randrange(1, f.q)]
    div = _divisor_row(f, d)
    if rng.random() < 0.4:
        cs: list[int] = []
        _add_product(f, cs, d, coefficient_list(rng, f, 6, 0.7))
    else:
        cs = coefficient_list(rng, f, rng.choice([0, 3, 12]), rng.choice([0.0, 0.5, 1.0]))
    cs += [0] * rng.choice([0, 0, 2])
    quot, rem = divmod(Poly(f, cs), Poly(f, d))
    work = list(cs)
    assert _exact_quotient(f, work, div) == (None if rem else list(quot.coeffs))
    assert work == cs
    assert _reduce(f, work, div) is work
    assert work == list(rem.coeffs)


@pytest.mark.parametrize("f", LARGE, ids=lambda f: f"q{f.q}")
def test_divmod_invariant_large(f):
    rng = random.Random(f.q + 3)
    for _ in range(60):
        a = rand_poly(rng, f, 12)
        b = rand_poly(rng, f, 5)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
    # sparse divisor: x^N - lam, as reduced by the twisted-code layers
    lam = rng.randrange(1, f.q)
    b = Poly.binomial(f, 7, lam)
    a = rand_poly(rng, f, 20)
    q, r = divmod(a, b)
    assert q * b + r == a and r.degree < 7


@pytest.mark.parametrize("f", LARGE, ids=lambda f: f"q{f.q}")
def test_factor_round_trip_large(f):
    rng = random.Random(f.q + 5)
    for _ in range(4):
        p = Poly.binomial(f, rng.randint(1, 30), 1).scale(rng.randrange(1, f.q))
        fac = factor(p)
        assert fac.expand() == p
        for g, m in fac:
            assert m >= 1 and g.lead == 1
            assert is_irreducible(g)


@pytest.mark.parametrize("f", LARGE, ids=lambda f: f"q{f.q}")
def test_factor_known_products_large(f):
    # x^N - 1 with N | q - 1 splits into N distinct linear factors
    n = 16 if f.q == 257 else 12
    fac = factor(Poly.binomial(f, n, 1))
    assert [(g.degree, m) for g, m in fac] == [(1, 1)] * n
    roots = {f.neg(g.coeffs[0]) for g, _ in fac}
    assert all(f.pow(r, n) == 1 for r in roots) and len(roots) == n
    # 5 * (x^(2p) - 1) = 5 * (x + 1)^p * (x - 1)^p
    target = Poly.binomial(f, 2 * f.p, 1).scale(5)
    fac = factor(target)
    assert fac.unit == 5
    assert [(g.coeffs, m) for g, m in fac] == [((1, 1), f.p), ((f.neg(1), 1), f.p)]
    assert fac.expand() == target


def test_factor_takes_only_binomials():
    for f in (F3, f4(), *LARGE):
        quad = next(g for g in (Poly(f, [c, 1, 1]) for c in range(1, f.q)) if is_irreducible(g))
        lin = Poly(f, [1, 1])
        rejected = [
            Poly.zero(f),
            Poly.constant(f, 2),
            Poly.binomial(f, 3, 2),  # x^3 - 2
            Poly(f, (0, 0, 0, 0, 1)),
            quad * lin * lin * Poly.constant(f, 2),
        ]
        for p in rejected:
            with pytest.raises(ValueError, match=r"x\^N - 1"):
                factor(p)


@pytest.mark.parametrize("f", [F3, f4(), f9_mod221(), field(257)], ids=lambda f: f"q{f.q}")
def test_factor_once_per_period_with_each_unit(f, monkeypatch, cold_factor_memo):
    """x^N - 1 is factored once per (field, N): every c * (x^N - 1)
    shares that factor list and keeps its own unit c."""
    import mtcodes.upoly as upoly

    runs, real = [], upoly._binomial_factors

    def counted(fld, n):
        runs.append(n)
        return real(fld, n)

    monkeypatch.setattr(upoly, "_binomial_factors", counted)
    base = factor(Poly.binomial(f, 24, 1))
    assert base.unit == 1
    for c in range(2, min(f.q, 6)):
        target = Poly.binomial(f, 24, 1).scale(c)
        fac = factor(target)
        assert fac.unit == c and fac.factors is base.factors
        assert fac.expand() == target
    assert runs == [24]
    # other coset sums, factored afresh, give the same list
    upoly._monic_factors.cache_clear()
    monkeypatch.setattr(upoly, "FACTOR_SEED", FACTOR_SEED + 1)
    reseeded = factor(Poly.binomial(f, 24, 1))
    assert runs == [24, 24] and reseeded.factors == base.factors


def test_factor_memo_is_bounded(cold_factor_memo):
    import mtcodes.upoly as upoly

    for n in range(1, upoly._FACTOR_MEMO_SIZE + 9):
        factor(Poly.binomial(F3, n, 1))
    assert upoly._monic_factors.cache_info().currsize == upoly._FACTOR_MEMO_SIZE


# -- x^N - 1 by its cyclotomic structure -------------------------------------


def coset_sizes(q, n):
    """Sizes of the q-cyclotomic cosets {a, aq, aq^2, ...} mod n, sorted."""
    seen, sizes = set(), []
    for a in range(n):
        if a not in seen:
            coset = set()
            b = a
            while b not in coset:
                coset.add(b)
                b = b * q % n
            seen |= coset
            sizes.append(len(coset))
    return sorted(sizes)


def certify_binomial(f, n, fac, rabin=True):
    """fac is the factorization of x^n - 1 into distinct monic factors,
    sorted, each of multiplicity p^s and together of the q-cyclotomic coset
    sizes mod n' as degrees; with `rabin`, each also passes Rabin's test.
    A monic irreducible factorization is unique, so this pins the list."""
    n_prime, mult = n, 1
    while n_prime % f.p == 0:
        n_prime //= f.p
        mult *= f.p
    keys = [(g.degree, g.coeffs) for g, _ in fac]
    assert keys == sorted(set(keys))
    assert sorted(g.degree for g, _ in fac) == coset_sizes(f.q, n_prime)
    assert all(g.lead == 1 and m == mult for g, m in fac)
    if rabin:
        assert all(is_irreducible(g) for g, _ in fac)
    assert fac.unit == 1 and fac.expand() == Poly.binomial(f, n, 1)


ROOT_ORDER_CASES = [
    (field(2), 24), (field(2), 105), (F3, 24), (F3, 104), (f4(), 96), (f4(), 105), (field(5), 100),
    (f9_mod221(), 140), (field(2, 4), 60), (field(257), 514), (field(17, 2), 51),
]


@pytest.mark.parametrize("f, n", ROOT_ORDER_CASES, ids=[f"q{f.q}-N{n}" for f, n in ROOT_ORDER_CASES])
def test_factor_records_each_root_order(f, n):
    """The order d recorded for each factor p of x^n - 1 is that of its
    roots: d divides n', p divides x^d - 1 and no x^(d/l) - 1 for a prime
    l | d.  Phi_d has phi(d) / ord_d(q) factors, each recorded once, and
    the factor list is still the certified one `factor` returns."""
    import mtcodes.upoly as upoly

    fac = factor(Poly.binomial(f, n, 1))
    factors, orders = upoly._monic_factors(f, n)
    assert factors is fac.factors and len(orders) == len(factors)
    n_prime = n
    while n_prime % f.p == 0:
        n_prime //= f.p
    for (p, _), d in zip(factors, orders):
        assert n_prime % d == 0
        assert (Poly.binomial(f, d, 1) % p).is_zero()
        assert not any((Poly.binomial(f, d // l, 1) % p).is_zero() for l in _prime_factors(d))
    for d in range(1, n_prime + 1):
        if n_prime % d == 0:
            phi = sum(math.gcd(k, d) == 1 for k in range(1, d + 1))
            assert orders.count(d) == phi // min(t for t in range(1, d + 1) if f.q**t % d == 1 % d)
    certify_binomial(f, n, fac)


# N = 88 and up have two or more distinct primes other than p, so some of
# their Phi_d are cut by the lifted factors of several Phi_(d/l).
BINOMIAL_CASES = [
    (field(2), (21, 24, 105, 165, 195, 231)),
    (F3, (13, 36, 88, 104, 140)),
    (f4(), (15, 20, 105, 165, 195, 231)),
    (f9_mod221(), (20, 15, 88, 104, 140)),
    (field(2, 4), (17, 30)),
    (field(257), (24, 514)),
    (field(17, 2), (24, 51)),
    (field(2, 9), (63, 146)),
]


@pytest.mark.parametrize("f, ns", BINOMIAL_CASES, ids=[f"q{f.q}" for f, _ in BINOMIAL_CASES])
def test_factor_binomial_follows_cyclotomic_cosets(f, ns):
    for n in ns:
        certify_binomial(f, n, factor(Poly.binomial(f, n, 1)))


GENERAL_ROUTE_CASES = [
    (field(2), (105, 165, 195, 231)),
    (F3, [*range(1, 61), 88, 104, 140]),
    (f4(), [*range(1, 61), 105, 165, 195, 231]),
    (field(5), range(1, 41)),
    (field(7), range(1, 31)),
    (f9_mod221(), [*range(1, 31), 88, 104, 140]),
    (field(2, 4), range(1, 31)),
    (field(13), range(1, 31)),
    (field(257), list(range(1, 25)) + [32, 48, 64]),
]


@pytest.mark.parametrize("f, ns", GENERAL_ROUTE_CASES, ids=[f"q{f.q}" for f, _ in GENERAL_ROUTE_CASES])
def test_factor_binomial_matches_general_pipeline(f, ns):
    """Every N in a range: the certificate pins the unique monic
    irreducible factorization, the list any correct general factoring
    method returns."""
    for n in ns:
        certify_binomial(f, n, factor(Poly.binomial(f, n, 1)))


def test_factor_binomial_splits_by_roots_of_unity(monkeypatch, cold_factor_memo):
    """Over GF(257) every d | 64 divides q - 1, so Phi_d is cut straight
    into the linear x - omega^k and no coset split runs."""
    import mtcodes.upoly as upoly

    def no_random(*_):
        raise AssertionError("a piece of x^64 - 1 reached the coset split")

    monkeypatch.setattr(upoly, "_coset_split", no_random)
    f = field(257)
    target = Poly.binomial(f, 64, 1)
    fac = factor(target)
    assert len(fac.factors) == 64
    assert all(g.degree == 1 and m == 1 for g, m in fac)
    assert fac.expand() == target


def test_factor_binomial_splits_at_random_only_what_lifting_leaves(monkeypatch, cold_factor_memo):
    """Over GF(9), x^140 - 1 (the f9 fixture's period): Phi_4 (4 | q - 1)
    splits into x - omega^k, and every other composite d is cut into
    irreducibles by the factors of its Phi_(d/l).  Only Phi_5 (degree 4,
    factors of degree 2) and Phi_7 (degree 6, factors of degree 3) reach
    the coset split above ord_d(q)."""
    import mtcodes.upoly as upoly

    split, received = upoly._coset_split, []

    def counted(piece, d, deg, rng):
        if piece.degree > deg:
            received.append(piece.degree)
        return split(piece, d, deg, rng)

    monkeypatch.setattr(upoly, "_coset_split", counted)
    target = Poly.binomial(f9_mod221(), 140, 1)
    fac = factor(target)
    assert 0 < sum(received) <= 4 + 6
    assert fac.expand() == target


# Per field: prime powers, N with l^2 | N, squarefree N of two and three
# primes, N divisible by the characteristic, a prime N and twice it, then
# the field's layer-tables periods and 140.
REFINEMENT_CASES = [
    (field(2), (32, 27, 49, 45, 63, 15, 105, 231, 24, 73, 146, 140)),
    (F3, (27, 16, 49, 36, 100, 35, 165, 12, 13, 26, 104, 264, 140)),
    (f4(), (32, 49, 45, 63, 21, 165, 20, 31, 62, 105, 210, 140)),
    (field(3, 2), (25, 49, 72, 35, 231, 30, 73, 146, 80, 150, 140)),
    (field(2, 4), (27, 49, 45, 63, 35, 231, 24, 29, 58, 105, 130, 140)),
    (field(5), (27, 36, 21, 30, 31, 62, 96, 220, 140)),
    (field(257), (16, 27, 125, 72, 35, 105, 514, 101, 202, 64, 140)),
    (field(17, 2), (9, 25, 49, 72, 35, 105, 51, 23, 46, 140)),
    (field(2, 9), (27, 49, 45, 63, 105, 12, 73, 146, 140)),
]


@pytest.mark.parametrize("f, ns", REFINEMENT_CASES, ids=[f"q{f.q}" for f, _ in REFINEMENT_CASES])
def test_cyclotomic_pieces_match_the_all_primes_refinement(f, ns, monkeypatch, cold_factor_memo):
    """The pieces of every Phi_d, as sets, and the sorted factor list equal
    those of the refinement that forms every gcd(P, g(x^l)), with no
    lifted pieces and no early stop; the list passes the certificate."""
    import mtcodes.upoly as upoly

    pieces = upoly._cyclotomic_pieces

    def compared(phi, d, deg, split):
        out = pieces(phi, d, deg, split)
        ref = reference_cyclotomic_pieces(phi, d, split)
        assert len(out) == len(set(out)) and set(out) == set(ref), (f.q, d)
        return out

    def reference(phi, d, deg, split):
        return reference_cyclotomic_pieces(phi, d, split)

    for n in ns:
        monkeypatch.setattr(upoly, "_cyclotomic_pieces", compared)
        fac = factor(Poly.binomial(f, n, 1))
        upoly._monic_factors.cache_clear()
        monkeypatch.setattr(upoly, "_cyclotomic_pieces", reference)
        assert factor(Poly.binomial(f, n, 1)).factors == fac.factors, (f.q, n)
        upoly._monic_factors.cache_clear()
        certify_binomial(f, n, fac, rabin=max(g.degree for g, _ in fac) <= 12)


def test_cyclotomic_pieces_form_no_gcd_with_an_irreducible_piece(monkeypatch, cold_factor_memo):
    """Over GF(9), x^140 - 1: no gcd touches a piece already of degree
    ord_d(q), which is irreducible; the refinement that forms every gcd
    makes 102 there."""
    import mtcodes.upoly as upoly

    pieces, gcd = upoly._cyclotomic_pieces, upoly._gcd
    current, touched = {}, []

    def tracked(phi, d, deg, split):
        current.update(d=d, deg=deg)
        return pieces(phi, d, deg, split)

    def spied(fld, a, b):
        touched.append((current["d"], len(a) - 1, current["deg"]))
        return gcd(fld, a, b)

    monkeypatch.setattr(upoly, "_cyclotomic_pieces", tracked)
    monkeypatch.setattr(upoly, "_gcd", spied)
    target = Poly.binomial(f9_mod221(), 140, 1)
    fac = factor(target)
    assert [t for t in touched if t[1] <= t[2]] == []
    assert 0 < len(touched) < 102
    assert fac.expand() == target


@pytest.mark.parametrize("fault", ["merged", "dropped"])
def test_factor_binomial_certifies_degrees(fault, monkeypatch, cold_factor_memo):
    """A factor of Phi_d above ord_d(q), or factors whose degrees fall
    short of phi(d), fail the degree certificate."""
    import mtcodes.upoly as upoly

    split = upoly._coset_split

    def faulty(piece, d, deg, rng):
        out = split(piece, d, deg, rng)
        if len(out) < 2:
            return out
        return [out[0] * out[1], *out[2:]] if fault == "merged" else out[1:]

    monkeypatch.setattr(upoly, "_coset_split", faulty)
    with pytest.raises(AssertionError, match="Phi_5 over GF"):
        factor(Poly.binomial(f9_mod221(), 140, 1))


@pytest.mark.parametrize("f", [field(5), f4(), field(257), field(17, 2), field(2, 9)], ids=lambda f: f"q{f.q}")
def test_long_divide_by_a_constant_scales_without_a_loop(f, monkeypatch):
    """A degree-0 divisor c leaves no remainder, and the quotient is the
    dividend times c^-1, formed with no `Field.add_scaled` call."""
    rng = random.Random(f.q)
    calls = []
    real = f.add_scaled
    monkeypatch.setattr(f, "add_scaled", lambda *args: calls.append(args) or real(*args))
    for c in (1, rng.randrange(2, f.q)):
        cs = [rng.randrange(f.q) for _ in range(6)] + [rng.randrange(1, f.q)]
        rem = list(cs)
        quot = upoly_mod._long_divide(f, rem, _divisor_row(f, [c]))
        assert rem == [] and calls == []
        assert [f.mul(c, a) for a in quot] == cs


@contextlib.contextmanager
def _time_limit(seconds: int):
    """Turn a block that outlasts ``seconds`` into TimeoutError, so that a
    hang fails the test instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_coset_split_refuses_a_piece_with_a_factor_of_another_phi():
    """Phi_9 * Phi_3 over GF(2) has degree 8, not a multiple of
    ord_9(2) = 6: Phi_3 can never be split down to degree 6, and the split
    raises at once instead of looping."""
    f = field(2)
    piece = Poly.binomial(f, 9, 1).exact_div(Poly.binomial(f, 1, 1))  # Phi_9 * Phi_3
    with _time_limit(10), pytest.raises(AssertionError, match="Phi_9 over GF.2.: a part of degree 8"):
        upoly_mod._coset_split(piece, 9, 6, random.Random(0))


@pytest.mark.parametrize("q, n", [(2, 21), (4, 15), (9, 140), (3, 20), (5, 21)])
def test_factor_with_pieces_holding_another_phi_fails_promptly(q, n, monkeypatch, cold_factor_memo):
    """Pieces cut as g(x^l) for a prime l that does not divide d/l, g a
    factor of Phi_(d/l), also hold roots of Phi_(d/l).  Factoring with such
    pieces raises AssertionError within seconds; it used to loop for ever
    in the coset split."""
    pieces = upoly_mod._cyclotomic_pieces

    def faulty(phi, d, deg, split):
        primes = [l for l in _prime_factors(d) if d // l % l]
        if not primes or (phi.field.q - 1) % d == 0:
            return pieces(phi, d, deg, split)
        return [upoly_mod._spread(g, primes[-1]) for g in split[d // primes[-1]]]

    monkeypatch.setattr(upoly_mod, "_cyclotomic_pieces", faulty)
    with _time_limit(10), pytest.raises(AssertionError, match="Phi_"):
        factor(Poly.binomial(Field.of_order(q), n, 1))


PRIME_PERIODS = [(field(257), 211), (field(2, 4), 227), (field(5), 229), (field(17, 2), 103)]


@pytest.mark.parametrize("f, n", PRIME_PERIODS, ids=[f"q{f.q}-N{n}" for f, n in PRIME_PERIODS])
def test_factor_prime_period_powers_stay_below_q(f, n, monkeypatch, cold_factor_memo):
    """For a prime N no lifting cuts Phi_N, so the coset split takes all of
    it; every power it raises to stays below q, where a random
    equal-degree split raises to (q^k - 1)/2 with k = ord_N(q) >= 51.
    Certified by product and degrees: Rabin's test alone takes seconds on
    these degrees."""
    exponents, pow_mod = [], Poly.pow_mod

    def spy(self, e, mod):
        exponents.append(e)
        return pow_mod(self, e, mod)

    monkeypatch.setattr(Poly, "pow_mod", spy)
    fac = factor(Poly.binomial(f, n, 1))
    # Odd q raises a coset sum to (q - 1)/2 with pow_mod; even q takes its
    # trace to GF(2) by squarings and calls pow_mod not at all.
    assert bool(exponents) == (f.p != 2)
    assert all(e < f.q for e in exponents)
    certify_binomial(f, n, fac, rabin=False)
