"""Univariate polynomial arithmetic, text forms, gcds, and factorization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcodes import Poly, PolyMatrix, factor, field, reciprocal_poly
from mtcodes.upoly import (
    FACTOR_SEED,
    NEG_INF,
    _distinct_degree,
    _equal_degree,
    _squarefree_parts,
    is_irreducible,
    poly_ext_gcd,
    poly_gcd,
)

from helpers import f4, f9_mod221, poly


F3 = field(3)


def rand_poly(rng, f, max_deg):
    return Poly(f, [rng.randrange(f.q) for _ in range(rng.randint(0, max_deg + 1))])


def test_degree_and_zero_sentinel():
    assert Poly.zero(F3).degree == NEG_INF
    assert Poly.one(F3).degree == 0
    assert Poly.x(F3).degree == 1
    assert Poly(F3, [1, 0, 0]).degree == 0  # trailing zeros trimmed
    assert not Poly.zero(F3)
    assert Poly.one(F3).is_one()


def test_text_round_trip_canonical():
    f = f4()
    p = poly(f, "w + w^2*x + x^3")
    assert str(p) == "w + w^2*x + x^3"
    assert Poly.parse(f, str(p)) == p
    assert str(Poly.zero(f)) == "0"
    assert str(Poly.one(f)) == "1"
    assert str(Poly.x(f)) == "x"
    assert Poly.parse(f, "x^2") == Poly.monomial(f, 2)
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
@settings(max_examples=100)
def test_gcd_properties(seed):
    rng = random.Random(seed)
    f = [F3, f4()][seed % 2]
    a = rand_poly(rng, f, 6)
    b = rand_poly(rng, f, 6)
    g = poly_gcd(a, b)
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
        return
    assert g.lead == 1  # monic
    assert (a % g).is_zero() and (b % g).is_zero()
    g2, u, v = poly_ext_gcd(a, b)
    assert g2 == g
    assert u * a + v * b == g


def test_evaluate_and_derivative():
    f = f4()
    p = poly(f, "1 + w*x + x^2")
    assert p.evaluate(0) == 1
    assert p.evaluate(1) == f.add(f.add(1, 2), 1)
    # characteristic 2: (x^2)' = 0
    assert p.derivative() == Poly.constant(f, 2)
    assert Poly.constant(F3, 2).derivative().is_zero()


def test_frobenius_and_pth_root():
    f = f9_mod221()
    p = poly(f, "w + w^3*x + x^2")
    assert p.frobenius(2) == p  # sigma^e is the identity on coefficients
    cubed = p * p * p
    assert cubed.pth_root() == p  # pth_root inverts f -> f^p exactly


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
    assert reciprocal_poly(Poly.one(f), 2) == Poly.monomial(f, 2)


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
    assert not fac.is_squarefree()

    fac3 = factor(Poly.binomial(F3, 9, 1) * Poly.constant(F3, 2))
    assert fac3.unit == 2
    assert fac3.expand() == Poly.binomial(F3, 9, 1) * Poly.constant(F3, 2)


def test_factor_deterministic_and_sorted():
    f = f9_mod221()
    target = Poly.binomial(f, 20, 1) * Poly.binomial(f, 7, f.parse_element("w^2"))
    fac1 = factor(target)
    fac2 = factor(target, seed=FACTOR_SEED)
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
    p = rand_poly(rng, f, 7)
    if p.is_zero():
        return
    fac = factor(p)
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
        assert b._sub_mul(a, b) == b - a * b == b._sub_mul(b, a)
        assert a - b == a + (-b)
        assert (a - b) + b == a


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
        p = rand_poly(rng, f, 6)
        if p.is_zero():
            continue
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
    # an explicit product of irreducibles, one of them squared
    quad = next(g for g in (Poly(f, [c, 0, 1]) for c in range(1, f.q)) if is_irreducible(g))
    lin = Poly(f, [3, 1])
    target = quad * lin * lin * Poly.constant(f, 5)
    fac = factor(target)
    assert fac.unit == 5
    assert sorted((g.coeffs, m) for g, m in fac) == sorted([(quad.coeffs, 1), (lin.coeffs, 2)])
    assert fac.expand() == target


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


def general_factors(p, seed=FACTOR_SEED):
    """The square-free, distinct-degree, equal-degree pipeline on a monic p."""
    rng = random.Random(seed)
    found = []
    for part, mult in _squarefree_parts(p):
        for prod, d in _distinct_degree(part):
            for irr in _equal_degree(prod, d, rng):
                found.append((irr, mult))
    found.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return tuple(found)


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
def test_factor_binomial_follows_cyclotomic_cosets(f, ns, monkeypatch):
    import mtcodes.upoly as upoly

    def general_route(*_):
        raise AssertionError("x^N - 1 took the general route")

    monkeypatch.setattr(upoly, "_squarefree_parts", general_route)
    for n in ns:
        n_prime, mult = n, 1
        while n_prime % f.p == 0:
            n_prime //= f.p
            mult *= f.p
        target = Poly.binomial(f, n, 1)
        fac = factor(target)
        assert sorted(g.degree for g, _ in fac) == coset_sizes(f.q, n_prime)
        assert all(m == mult for _, m in fac)
        assert all(is_irreducible(g) for g, _ in fac)
        assert fac.expand() == target


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
    for n in ns:
        target = Poly.binomial(f, n, 1)
        assert factor(target).factors == general_factors(target)


def test_factor_binomial_splits_by_roots_of_unity(monkeypatch):
    """Over GF(257) every d | 64 divides q - 1, so each piece
    gcd(Phi_d, x^(d/r) - omega^k) is already linear and no random split
    runs."""
    import mtcodes.upoly as upoly

    def no_random(*_):
        raise AssertionError("equal-degree splitting drew a random polynomial")

    monkeypatch.setattr(upoly, "_random_poly", no_random)
    f = field(257)
    target = Poly.binomial(f, 64, 1)
    fac = factor(target)
    assert len(fac.factors) == 64
    assert all(g.degree == 1 and m == 1 for g, m in fac)
    assert fac.expand() == target


def test_factor_binomial_splits_at_random_only_what_lifting_leaves(monkeypatch):
    """Over GF(9), x^140 - 1 (the f9 fixture's period): Phi_4 (4 | q - 1)
    splits into x - omega^k, and every other composite d is cut into
    irreducibles by the factors of its Phi_(d/l).  Only Phi_5 (degree 4,
    factors of degree 2) and Phi_7 (degree 6, factors of degree 3) reach
    equal-degree splitting above ord_d(q)."""
    import mtcodes.upoly as upoly

    split, received = upoly._equal_degree, []

    def counted(f, d, rng):
        if f.degree > d:
            received.append(f.degree)
        return split(f, d, rng)

    monkeypatch.setattr(upoly, "_equal_degree", counted)
    target = Poly.binomial(f9_mod221(), 140, 1)
    fac = factor(target)
    assert sum(received) <= 4 + 6
    assert fac.expand() == target


@pytest.mark.parametrize("fault", ["merged", "dropped"])
def test_factor_binomial_certifies_degrees(fault, monkeypatch):
    """A factor of Phi_d above ord_d(q), or factors whose degrees fall
    short of phi(d), fail the degree certificate."""
    import mtcodes.upoly as upoly

    split = upoly._equal_degree

    def faulty(f, d, rng):
        out = split(f, d, rng)
        if len(out) < 2:
            return out
        return [out[0] * out[1], *out[2:]] if fault == "merged" else out[1:]

    monkeypatch.setattr(upoly, "_equal_degree", faulty)
    with pytest.raises(AssertionError, match="Phi_5 over GF"):
        factor(Poly.binomial(f9_mod221(), 140, 1))
