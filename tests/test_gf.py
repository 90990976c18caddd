"""Field arithmetic: axioms on every small field, plus pinned table facts."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcodes import Poly, field
from mtcodes import gf
from mtcodes.cli import main
from mtcodes.errors import DomainError, ParseError
from mtcodes.gf import Field, default_modulus

from helpers import f9_mod221


FIELDS = [field(2), field(3), field(5), field(2, 2), field(2, 3), field(3, 2)]


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"q{f.q}")
def test_axioms_exhaustive(f):
    els = list(f.elements())
    assert len(els) == f.q
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"q{f.q}")
def test_frobenius_is_automorphism(f):
    els = list(f.elements())
    for k in range(f.e + 1):
        for a in els:
            assert f.frobenius(a, k) == f.pow(a, f.p**k)
            for b in els:
                assert f.frobenius(f.add(a, b), k) == f.add(f.frobenius(a, k), f.frobenius(b, k))
                assert f.frobenius(f.mul(a, b), k) == f.mul(f.frobenius(a, k), f.frobenius(b, k))
    for a in els:
        assert f.frobenius(a, f.e) == a


TABLE_FIELDS = [
    (p, e) for p in (2, 3, 5, 7, 11, 13) for e in range(1, 9) if p**e <= gf._TABLE_LIMIT
] + [(251, 1)]


@pytest.mark.parametrize("p, e", TABLE_FIELDS, ids=[f"q{p**e}" for p, e in TABLE_FIELDS])
def test_frobenius_lists_match_powers(p, e):
    """For every extension field with dense tables (q <= 256), and the
    prime fields up to 13 and 251, sigma^k read from its list equals
    a^(p^k) by square-and-multiply, for every element and every k from 0
    to 2e (k is reduced mod e); the lists are built on first use, not with
    the field."""
    f = Field(p, e)
    assert f._mul_table is not None and f._frobenius_lists == {}
    for k in range(2 * e + 1):
        assert [f.frobenius(a, k) for a in range(f.q)] == [f.pow(a, p**k) for a in range(f.q)]
    assert [f.frobenius(a) for a in range(f.q)] == [f.pow(a, p) for a in range(f.q)]
    assert sorted(f._frobenius_lists) == list(range(1, e))


def test_f4_multiplication_table():
    f = field(2, 2)
    w = 2
    assert f.mul(w, w) == 3  # w^2 = w + 1
    assert f.mul(w, 3) == 1  # w * w^2 = 1
    assert f.add(w, 3) == 1
    assert f.inv(w) == 3


def test_f9_mod221_modulus_powers():
    f = f9_mod221()
    w = f.parse_element("w")
    assert f.pow(w, 2) == f.parse_element("1 + w") == 4
    assert f.pow(w, 4) == 2
    assert f.pow(w, 6) == f.parse_element("2 + 2*w")
    assert f.neg(f.pow(w, 2)) == f.pow(w, 6)
    assert f.mult_order(w) == 8


def test_default_modulus_is_least_irreducible():
    # lexicographically least monic irreducible, low-degree-first coeff order
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(2, 3) == (1, 0, 1, 1)  # x^3 + x^2 + 1 precedes x^3 + x + 1
    assert default_modulus(3, 2) == (1, 0, 1)


def test_pow_handles_negative_exponents():
    f = field(3, 2)
    w = 3  # any nonzero element works; 3 encodes w in the default basis
    assert f.mul(f.pow(w, -1), w) == 1
    assert f.pow(w, -2) == f.inv(f.pow(w, 2))
    assert f.pow(0, 0) == 1
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)


def test_element_text_round_trip():
    for f in FIELDS:
        for a in f.elements():
            assert f.parse_element(f.format_element(a)) == a


def test_parse_element_forms():
    f = field(2, 2)
    assert f.parse_element("w") == 2
    assert f.parse_element("w^2") == 3
    assert f.parse_element("1+w") == 3
    assert f.parse_element("0") == 0
    g = field(7)
    assert g.parse_element("6") == 6
    with pytest.raises(ParseError):
        g.parse_element("7")
    with pytest.raises(ParseError):
        f.parse_element("b")


def test_field_constructor_validation():
    with pytest.raises(ValueError):
        Field(4)  # not prime
    with pytest.raises(ValueError):
        Field(2, 0)
    with pytest.raises(ValueError):
        Field(2, 2, modulus=(1, 0, 1))  # x^2 + 1 reducible over F_2
    with pytest.raises(ValueError):
        Field.of_order(12)


def test_of_order_takes_p_from_the_prime_factors():
    # GF(10000019) is found without testing every p <= q for primality
    f = Field.of_order(10000019)
    assert (f.p, f.e, f.modulus) == (10000019, 1, (0, 1))
    assert (Field.of_order(3**7).p, Field.of_order(3**7).e) == (3, 7)
    for q in (0, 1, 12, 3 * 2**20):
        with pytest.raises(ValueError, match="not a prime power"):
            Field.of_order(q)


def test_field_identity_cache():
    assert field(2, 2) is field(2, 2)
    assert field(3, 2, modulus=(2, 2, 1)) is field(3, 2, modulus=(2, 2, 1))
    assert field(3, 2) is not field(3, 2, modulus=(2, 2, 1))


def test_header_round_trips_modulus():
    f = f9_mod221()
    assert f.header() == "GF(3^2) mod 2 2 1"
    assert field(5).header() == "GF(5)"


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=200)
def test_f9_associativity_property(a, b, c):
    f = f9_mod221()
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.mul(a, f.sub(b, c)) == f.sub(f.mul(a, b), f.mul(a, c))


def test_mult_order_divides_group_order():
    for f in FIELDS:
        for a in f.elements():
            if a == 0:
                continue
            t = f.mult_order(a)
            assert (f.q - 1) % t == 0
            assert f.pow(a, t) == 1


# -- the field representations ----------------------------------------------
#
# q <= 256 uses dense tables, prime q > 256 integer arithmetic, extension
# fields up to 2^16 log/antilog tables, larger ones base-p digit loops.
# Each is checked against the digit-level definitions _raw_add/_raw_mul, and
# the products also against polynomials over GF(p) reduced by the modulus.

TINY_FIELDS = [field(p) for p in (2, 3, 5, 7, 11, 13)] + [
    field(2, 2), field(2, 3), field(2, 4), field(3, 2),
]
# GF(257) and GF(17^2) are the large fields the suite exercises throughout;
# GF(2^9) and GF(3^7) are characteristic-2 and odd log-table cases with more
# than two digits, and GF(3^11) a digit field.
LARGE_FIELDS = [field(257), field(17, 2), field(2, 9), field(3, 7), field(3, 11)]


def raw_neg(f, a):
    return f.from_coeffs((-c) % f.p for c in f.coeffs(a))


@pytest.mark.parametrize("f", TINY_FIELDS, ids=lambda f: f"q{f.q}")
def test_ops_match_raw_definitions_exhaustive(f):
    els = list(f.elements())
    for a in els:
        neg = [b for b in els if f._raw_add(a, b) == 0]
        assert [f.neg(a)] == neg
        if a:
            assert [f.inv(a)] == [b for b in els if f._raw_mul(a, b) == 1]
        for b in els:
            assert f.add(a, b) == f._raw_add(a, b)
            assert f.mul(a, b) == f._raw_mul(a, b)
            assert f._raw_add(f.sub(a, b), b) == a


@pytest.mark.parametrize("f", LARGE_FIELDS, ids=lambda f: f"q{f.q}")
def test_ops_match_raw_definitions_sampled(f):
    rng = random.Random(f.q)
    samples = [0, 1, f.q - 1] + [rng.randrange(f.q) for _ in range(300)]
    for a, b in zip(samples, reversed(samples)):
        assert f.add(a, b) == f._raw_add(a, b)
        assert f.mul(a, b) == f._raw_mul(a, b)
        assert f.neg(a) == raw_neg(f, a)
        assert f.sub(a, b) == f._raw_add(a, raw_neg(f, b))
        if a:
            assert f._raw_mul(a, f.inv(a)) == 1


# x^8 + x^4 + x^3 + x^2 + 1, a modulus of GF(2^8) other than the default.
F256_MODULUS = (1, 0, 1, 1, 1, 0, 0, 0, 1)


def poly_product(f, a, b):
    """a * b as the product of polynomials over GF(p) reduced by the
    modulus: a reference that does not use Field._raw_mul."""
    base = field(f.p)
    prod = Poly(base, f.coeffs(a)) * Poly(base, f.coeffs(b))
    return f.from_coeffs((prod % Poly(base, f.modulus)).coeffs)


@pytest.mark.parametrize(
    "f", [field(2, 2), field(3, 2), field(2, 4), field(2, 8, F256_MODULUS)], ids=lambda f: f"q{f.q}-{f.modulus}"
)
def test_products_match_polynomial_reference_exhaustive(f):
    # the reference is commutative, so each unordered pair is checked both ways
    for a in range(f.q):
        for b in range(a, f.q):
            want = poly_product(f, a, b)
            assert f._raw_mul(a, b) == f._raw_mul(b, a) == want
            assert f.mul(a, b) == f.mul(b, a) == want


@pytest.mark.parametrize(
    "f", [field(2, 8), field(3, 5), field(17, 2), field(2, 20), field(3, 11)], ids=lambda f: f"q{f.q}"
)
def test_products_match_polynomial_reference_sampled(f):
    rng = random.Random(3 * f.q)
    samples = [0, 1, f.q - 1] + [rng.randrange(f.q) for _ in range(200)]
    for a, b in zip(samples, reversed(samples)):
        want = poly_product(f, a, b)
        assert f._raw_mul(a, b) == want
        assert f.mul(a, b) == want


@pytest.mark.parametrize(
    "f", [field(2, 2), field(3, 2), field(2, 4), field(2, 8), field(3, 5), field(2, 8, F256_MODULUS)],
    ids=lambda f: f"q{f.q}-{f.modulus}",
)
def test_dense_mul_table_is_read_from_log_tables(f):
    """The log tables a q <= 256 extension field fills its dense tables
    from are dropped afterwards; built again on a copy, they give every
    product as exp[log a + log b]."""
    assert f._log is f._exp is f._zech is None
    logs = copy.copy(f)
    logs._build_log_tables()
    exp, log = logs._exp, logs._log
    for a in range(1, f.q):
        assert f._mul_table[a] == [0] + [exp[log[a] + log[b]] for b in range(1, f.q)]


@pytest.mark.parametrize("f", TINY_FIELDS[-2:] + LARGE_FIELDS, ids=lambda f: f"q{f.q}")
def test_add_scaled_matches_raw_definitions(f):
    rng = random.Random(7 * f.q)
    for _ in range(20):
        row = [rng.choice([0, rng.randrange(f.q)]) for _ in range(rng.randint(0, 8))]
        out = [rng.randrange(f.q) for _ in range(len(row) + 3)]
        off, c = rng.randint(0, 3), rng.randrange(f.q)
        want = list(out)
        for j, b in enumerate(row):
            want[off + j] = f._raw_add(want[off + j], f._raw_mul(c, b))
        f.add_scaled(out, off, c, enumerate(row))
        assert out == want


@pytest.mark.parametrize("f", [field(257), field(17, 2)], ids=lambda f: f"q{f.q}")
def test_axioms_sampled_large(f):
    rng = random.Random(f.q + 1)
    for _ in range(300):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, 0) == a and f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, b) == f.add(a, f.neg(b))
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f.pow(a, f.q - 1) == 1
        for k in range(f.e + 1):
            assert f.frobenius(f.mul(a, b), k) == f.mul(f.frobenius(a, k), f.frobenius(b, k))


def test_mult_order_is_least_exponent():
    for f in TINY_FIELDS + [field(17, 2)]:
        for a in range(1, f.q):
            t, b = 1, a
            while b != 1:
                b = f.mul(b, a)
                t += 1
            assert f.mult_order(a) == t


def test_mult_order_uses_prime_factors(monkeypatch):
    # q - 1 = 2^31 - 1 is prime, so w is primitive and one power decides it
    f = field(2, 31)
    calls = []
    real_pow = Field.pow
    monkeypatch.setattr(Field, "pow", lambda self, a, n: calls.append(n) or real_pow(self, a, n))
    assert f.mult_order(2) == 2**31 - 1
    assert calls == [1]
    calls.clear()
    # for a = 1 every division by a prime factor of 288 = 2^5 * 3^2 succeeds
    assert field(17, 2).mult_order(1) == 1
    assert calls == [144, 72, 36, 18, 9, 3, 1]


@pytest.mark.parametrize("f", [field(17, 2), field(2, 9), field(3, 7)], ids=lambda f: f"q{f.q}")
def test_antilog_table_is_powers_of_generator(f):
    exp = f._exp
    g = exp[1]
    assert f.mult_order(g) == f.q - 1
    assert exp[0] == 1
    assert all(exp[i] == f._raw_mul(exp[i - 1], g) for i in range(1, 2 * (f.q - 1)))
    assert all(f._log[exp[i]] == i for i in range(f.q - 1))


@pytest.mark.parametrize(
    "f",
    [field(2, 2), field(3, 2), field(2, 4), field(2, 8), field(2, 8, F256_MODULUS), field(3, 5), field(17, 2), field(2, 9)],
    ids=lambda f: f"q{f.q}-{f.modulus}",
)
def test_omega_log_is_the_least_exponent(f):
    """The discrete log agrees with a walk over the powers of w, including
    None off the subgroup w generates when w is not primitive."""
    first, b = {}, 1
    for j in range(f.q - 1):
        first.setdefault(b, j)
        b = f.mul(b, f.omega)
    assert [f._omega_log(a) for a in range(f.q)] == [first.get(a) for a in range(f.q)]


@pytest.mark.parametrize("f", [field(2, 31), field(3, 11), field(2, 20)], ids=lambda f: f"q{f.q}")
def test_omega_log_in_digit_loop_fields(f):
    rng = random.Random(f.q)
    n = f.mult_order(f.omega)
    for j in [0, 1, n - 1] + [rng.randrange(n) for _ in range(3)]:
        assert f._omega_log(f.pow(f.omega, j)) == j
    # 2^31 - 1 is prime, so w^-1 is the one power with exponent 2^31 - 2
    if f.q == 2**31:
        assert f.format_element(f.inv(f.omega)) == "w^2147483646"


def trial_division_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def test_prime_factors_match_trial_division():
    rng = random.Random(5)
    for n in list(range(3000)) + [rng.randrange(3000, 10**5) for _ in range(3000)] + [2**20 - 3, 1031**2, 1031**3]:
        assert gf._prime_factors(n) == trial_division_factors(n), n


def test_prime_factors_of_mersenne_numbers():
    for k in range(2, 33):
        assert gf._prime_factors(2**k - 1) == trial_division_factors(2**k - 1), k
    assert gf._prime_factors(2**61 - 1) == [2**61 - 1]
    assert gf._prime_factors(2**64 - 1) == [3, 5, 17, 257, 641, 65537, 6700417]
    assert gf._prime_factors(2**128 - 1) == [3, 5, 17, 257, 641, 65537, 274177, 6700417, 67280421310721]
    assert gf._prime_factors((2**31 - 1) ** 2 * 1031) == [1031, 2**31 - 1]
    # 2^89 - 1 is prime, but above the bound below which Miller-Rabin is exact
    with pytest.raises(DomainError, match="3.3\\*10\\^24"):
        gf._prime_factors(2**89 - 1)


def test_unit_order_is_factored_once_per_field(monkeypatch):
    calls = []
    real = gf._prime_factors
    monkeypatch.setattr(gf, "_prime_factors", lambda n: calls.append(n) or real(n))
    f = Field(17, 2)
    orders = [f.mult_order(a) for a in range(1, f.q)]
    assert calls.count(f.q - 1) == 1
    assert all((f.q - 1) % t == 0 for t in orders) and max(orders) == f.q - 1


@pytest.mark.parametrize(
    "text",
    [
        "GF(2^61)\ncode A\nmt 1\nblocks 3\nshifts 1\ngpm\n1\n",
        "GF(2305843009213693951)\ncode A\nmatrix 1 2\n1 2\n",
    ],
    ids=["mult-order-of-2^61", "field-of-prime-order-2^61-1"],
)
def test_documents_over_fields_of_a_large_prime_exit_0(tmp_path, capsys, text):
    doc = tmp_path / "doc.txt"
    doc.write_text(text)
    assert main(["info", str(doc)]) == 0
    assert "error" not in capsys.readouterr().err


def test_field_of_an_unprovable_order_exits_1(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text(f"GF({2**89 - 1})\ncode A\nmatrix 1 2\n1 2\n")
    assert main(["info", str(doc)]) == 1
    assert "Pollard rho steps" in capsys.readouterr().err
