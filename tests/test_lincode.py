"""Linear codes against per-word brute force on tiny parameter sets."""

import math
import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtcodes import LinearCode, field, oracle
from mtcodes.errors import BudgetError, ParseError
from mtcodes.lincode import _meet, frobenius_rows, mat_mul, mat_rank, parse_matrix_block, rref

from helpers import f4, random_linear_code, reference_min_distance, words


F2 = field(2)
F3 = field(3)
FIELDS = (F2, F3, f4(), field(3, 2))


def all_words(code):
    """Tiny independent enumeration: every F_q-combination of generator rows."""
    f = code.field
    out = set()
    for coefs in product(range(f.q), repeat=code.k):
        v = [0] * code.n
        for c, row in zip(coefs, code.gen):
            if c:
                v = [f.add(a, f.mul(c, b)) for a, b in zip(v, row)]
        out.add(tuple(v))
    return out


def test_matrix_block_parses_repeated_cells_and_reports_a_bad_one():
    """Each distinct cell is parsed once per block, so a cell repeated
    across rows reads as the field parses it, and a bad cell after
    repeated good ones keeps the field's message and its own line."""
    f = f4()
    text = ["matrix 3 3", "1 w w", "w 1+w w^2", "w 1 2", "1 1 1"]
    lines = list(zip(text, range(4, 9)))
    good, end = parse_matrix_block(f, lines[:3] + lines[4:], 0)
    assert end == 4
    assert good == tuple(tuple(f.parse_element(c) for c in row.split()) for row in text[1:3] + text[4:])
    with pytest.raises(ParseError) as bad:
        parse_matrix_block(f, lines, 0)
    with pytest.raises(ParseError) as direct:
        f.parse_element("2")
    assert bad.value.line == 7 and str(bad.value) == f"line 7: {direct.value}"


def test_rref_canonical():
    rows, pivots = rref(F3, [[2, 1, 0], [1, 2, 0], [0, 0, 2]])
    # canonical: leading ones, zeros above and below pivots, no zero rows kept
    assert len(rows) == len(pivots)
    for i, pc in enumerate(pivots):
        assert rows[i][pc] == 1
        for j in range(len(rows)):
            if j != i:
                assert rows[j][pc] == 0


def test_rref_is_basis_independent():
    rng = random.Random(3)
    for _ in range(30):
        f = [F2, F3, f4()][rng.randrange(3)]
        code = random_linear_code(rng, f, 5)
        # rebuild from a shuffled, rescaled spanning set
        rows = [list(r) for r in code.gen]
        if rows:
            c = rng.choice(range(1, f.q))
            rows[0] = [f.mul(c, e) for e in rows[0]]
            if len(rows) > 1:
                rows[0] = [f.add(a, b) for a, b in zip(rows[0], rows[1])]
            rng.shuffle(rows)
        assert LinearCode(f, 5, rows) == code


def test_parity_checks_generator():
    rng = random.Random(5)
    for _ in range(30):
        f = [F2, F3, f4()][rng.randrange(3)]
        code = random_linear_code(rng, f, 6)
        h = code.parity
        assert len(h) == code.n - code.k
        prod = mat_mul(f, code.gen, tuple(zip(*h))) if code.k and h else ()
        assert all(all(e == 0 for e in row) for row in prod)
        assert mat_rank(f, h) == code.n - code.k


def test_dual_dimension_and_involution():
    rng = random.Random(9)
    for _ in range(20):
        f = [F2, F3][rng.randrange(2)]
        code = random_linear_code(rng, f, 5)
        d = code.dual()
        assert d.k == code.n - code.k
        assert d.dual() == code


def test_galois_dual_euclidean_case_matches_dual():
    rng = random.Random(13)
    code = random_linear_code(rng, F3, 6)
    assert code.galois_dual(0) == code.dual()
    with pytest.raises(ValueError):
        code.galois_dual(1)  # e = 1 admits only kappa = 0


def galois_form(f, u, v, kappa):
    acc = 0
    for a, b in zip(u, v):
        acc = f.add(acc, f.mul(a, f.frobenius(b, kappa)))
    return acc


def test_galois_dual_f4_by_scan():
    f = f4()
    code = LinearCode(f, 4, words(f, "1 0 w 1 / 0 1 w^2 w"))
    for kappa in (0, 1):
        expected = {
            cand
            for cand in product(range(4), repeat=4)
            if all(galois_form(f, row, cand, kappa) == 0 for row in code.gen)
        }
        assert all_words(code.galois_dual(kappa)) == expected


def test_intersect_matches_setwise():
    rng = random.Random(21)
    for _ in range(40):
        f = rng.choice(FIELDS)
        a = random_linear_code(rng, f, 5, max_k=3)
        b = random_linear_code(rng, f, 5, max_k=3)
        inter = a.intersect(b)
        assert all_words(inter) == all_words(a) & all_words(b)
        assert a.trivially_intersects(b) == (inter.k == 0)


def test_galois_intersect_is_dual_cap():
    rng = random.Random(23)
    for _ in range(30):
        f = rng.choice(FIELDS)
        a = random_linear_code(rng, f, 4, max_k=3)
        b = random_linear_code(rng, f, 4, max_k=3)
        for kappa in range(f.e):
            dual = oracle.galois_dual_set(a, kappa)
            assert all_words(a.galois_intersect(b, kappa)) == dual & oracle.enumerate_code(b)
            assert all_words(a.hull(kappa)) == dual & oracle.enumerate_code(a)


def test_meet_from_the_smaller_side_matches_the_parity_route():
    """intersect, galois_intersect and hull against the meet that always
    starts from the second code's generator, on codes with k near n."""

    def near_full(f, n):
        return LinearCode(f, n, [[rng.randrange(f.q) for _ in range(n)] for _ in range(n - rng.randint(0, 2))])

    rng = random.Random(584)
    swapped = galois_swapped = 0
    for f in FIELDS + (field(2, 3), field(17, 2)):
        for _ in range(25):
            n = rng.randint(2, 10)
            a = near_full(f, n)
            b = random_linear_code(rng, f, n) if rng.random() < 0.5 else near_full(f, n)
            for x, y in ((a, b), (b, a)):
                swapped += y.k > x.k
                assert x.intersect(y) == _meet(f, n, x.parity, y.gen)
                for kappa in range(f.e):
                    galois_swapped += y.k > n - x.k
                    checks = frobenius_rows(f, x.gen, f.e - kappa)
                    assert x.galois_intersect(y, kappa) == _meet(f, n, checks, y.gen)
                    assert x.hull(kappa) == _meet(f, n, checks, x.gen)
    assert swapped > 20 and galois_swapped > 50


def test_reversibility_against_brute_force():
    rng = random.Random(31)
    for _ in range(40):
        f = rng.choice(FIELDS)
        code = random_linear_code(rng, f, 5, max_k=3)
        rev, sub = code.is_reversible(), code.reversibility()[1]
        ws = all_words(code)
        assert rev == ({w[::-1] for w in ws} == ws)
        # the subcode is exactly the words whose reversal stays inside
        expected = {w for w in ws if w[::-1] in ws}
        assert all_words(sub) == expected
        if rev:
            assert sub == code
        assert sub.reversed_code() == sub or not rev  # reversible subcode is reversible
        assert all_words(sub.reversed_code()) == {w[::-1] for w in expected}


def test_min_distance():
    code = LinearCode(F2, 6, [(1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1)])
    assert code.min_distance() == 3
    assert LinearCode.zero(F3, 4).min_distance() == math.inf
    assert LinearCode.full(F3, 4).min_distance() == 1
    big = LinearCode.full(F3, 20)
    with pytest.raises(BudgetError):
        big.min_distance(budget=100)


# Every representation of Field: dense tables (q <= 256), log/Zech tables
# (GF(17^2), and GF(2^9) in characteristic 2) and prime-field integer
# arithmetic (GF(257)).
DISTANCE_FIELDS = (F2, F3, f4(), field(3, 2), field(17, 2), field(2, 9), field(257))


def reed_solomon(f, n, k):
    """The [n, k, n - k + 1] code evaluating polynomials of degree < k at
    the field elements 1 .. n, all distinct and nonzero for n < q."""
    return LinearCode(f, n, [[f.pow(a, i) for a in range(1, n + 1)] for i in range(k)])


# Weight 3 is a row only of the generator systematic on columns 2 and 3:
# both RREF rows weigh more, so round 1 meets it on the second set.
SECOND_SET_LIGHTEST = LinearCode(F2, 6, [(1, 0, 1, 0, 1, 1), (0, 1, 1, 1, 1, 1)])
# Columns 2 and 5 are zero, so the four columns off the RREF pivots have
# rank 2 < k and the RREF's is the only information set; d = 3 > 2m needs
# round 2.
ONLY_RREF_SET = LinearCode(f4(), 7, [(1, 0, 0, 0, 2, 0, 3), (0, 1, 0, 0, 1, 0, 1),
                                     (0, 0, 0, 1, 1, 0, 3)])


@st.composite
def small_codes(draw):
    """Codes with q^k <= 4096, some columns forced to zero."""
    f = draw(st.sampled_from(DISTANCE_FIELDS))
    n = draw(st.integers(1, 8))
    k_max = max(k for k in range(1, n + 1) if f.q**k <= 4096)
    k = draw(st.integers(1, k_max))
    zero_cols = draw(st.sets(st.integers(0, n - 1)))
    entry = st.integers(0, f.q - 1)
    rows = [
        [0 if j in zero_cols else draw(entry) for j in range(n)] for _ in range(k)
    ]
    return LinearCode(f, n, rows)


@given(small_codes())
@example(LinearCode(field(257), 1, [(5,)]))  # k = n = 1
@example(LinearCode(field(17, 2), 3, [(0, 7, 200)]))
@example(LinearCode(field(2, 9), 6, [(0, 300, 0, 7, 1, 511)]))  # k = 1: one set per nonzero column
@example(LinearCode.full(f4(), 5))  # k = n
@example(reed_solomon(field(3, 2), 8, 3))  # MDS [8,3,6]: floor(8/3) = 2 sets, stops after round 2
@example(reed_solomon(field(3, 2), 8, 2))  # MDS [8,2,7]: 4 sets
@example(ONLY_RREF_SET)
@example(SECOND_SET_LIGHTEST)
@example(LinearCode(f4(), 4, [(1, 0, 1, 1), (0, 1, 2, 2)]))  # weight 2 needs w^2 * g_1
@example(LinearCode(field(3, 2), 4, [(1, 0, 1, 1), (0, 1, 3, 3)]))  # weight 2 needs -w^-1 * g_1
@example(LinearCode(F3, 4, [(1, 0, 0, 2), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 0)]))
@example(LinearCode(F2, 7, [(1, 0, 0, 0, 1, 1, 0), (0, 1, 0, 0, 1, 0, 1),
                            (0, 0, 1, 0, 0, 1, 1), (0, 0, 0, 1, 1, 1, 1)]))
@settings(max_examples=150, deadline=None)
def test_min_distance_matches_oracle(code):
    assert code.min_distance() == oracle.min_distance_of_words(oracle.enumerate_code(code))


@pytest.mark.parametrize(
    "code, m",
    [(reed_solomon(field(3, 2), 8, 3), 2), (reed_solomon(field(3, 2), 8, 2), 4),
     (reed_solomon(field(17, 2), 12, 3), 4), (ONLY_RREF_SET, 1), (SECOND_SET_LIGHTEST, 2),
     (LinearCode(field(2, 9), 6, [(0, 300, 0, 7, 1, 511)]), 4), (LinearCode.full(F3, 4), 1)],
)
def test_information_sets_are_disjoint_and_systematic(code, m):
    """m generators of the code, each the identity on its own k columns,
    with no column shared between two of them."""
    gens = list(code._systematic_generators())
    assert len(gens) == m
    assert gens[0] == code._terms
    units = [tuple(int(i == t) for t in range(code.k)) for i in range(code.k)]
    seen = set()
    for gen in gens:
        rows = [[0] * code.n for _ in gen]
        for row, terms in zip(rows, gen):
            assert [j for j, _ in terms] == sorted(j for j, _ in terms)
            for j, e in terms:
                row[j] = e
        assert LinearCode(code.field, code.n, rows) == code
        columns = list(zip(*rows))
        info = [next((c for c in range(code.n) if c not in seen and columns[c] == u), None)
                for u in units]
        assert None not in info
        seen.update(info)


@st.composite
def walkable_codes(draw):
    """Codes with q^k <= 2^16, k at least half the largest such, and n from
    2k to 3k + 2, sparse or dense, some columns forced to zero: one to three
    information sets and rounds w >= 3."""
    f = draw(st.sampled_from(DISTANCE_FIELDS))
    k_max = max(k for k in range(1, 17) if f.q**k <= 2**16)
    k = draw(st.integers((k_max + 1) // 2, k_max))
    n = draw(st.integers(2 * k, 3 * k + 2))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n // 4))
    density = draw(st.sampled_from((0.4, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [
        [rng.randrange(f.q) if j not in zero_cols and rng.random() < density else 0
         for j in range(n)]
        for _ in range(k)
    ]
    return LinearCode(f, n, rows)


_rng = random.Random(25)
BINARY_48_16 = LinearCode(F2, 48, [[_rng.randrange(2) for _ in range(48)] for _ in range(16)])


@given(walkable_codes())
@example(BINARY_48_16)  # 3 sets, d = 11: stops after round 3
@settings(max_examples=60, deadline=None)
def test_min_distance_matches_reference_walk(code):
    assert code.min_distance() == reference_min_distance(code)


@pytest.mark.parametrize("f", [F2, F3, field(3, 2), field(257)])
def test_min_distance_budget_is_q_to_the_k(f):
    code = LinearCode(f, 3, [(1, 2 % f.q, 0), (0, 1, 1)])
    assert code.min_distance(budget=f.q**2) == oracle.min_distance_of_words(
        oracle.enumerate_code(code)
    )
    with pytest.raises(BudgetError):
        code.min_distance(budget=f.q**2 - 1)


def test_contains_and_compatibility():
    code = LinearCode(F3, 4, [(1, 0, 1, 2)])
    assert code.contains_word((2, 0, 2, 1))
    assert not code.contains_word((1, 0, 0, 0))
    other = LinearCode(F2, 4, [(1, 0, 0, 0)])
    with pytest.raises(ValueError):
        code.intersect(other)


def test_entries_must_be_field_elements():
    # the same range(q) check as Poly: no IndexError from rref, and no
    # silent reduction of 300 modulo 257
    for f, row in ((F3, (5, 7)), (field(257), (300, 1)), (F3, (1, -1))):
        with pytest.raises(ValueError, match="range"):
            LinearCode(f, 2, [row])
    assert LinearCode(field(257), 2, [(256, 1)]).gen == ((1, 256),)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_dimension_formula_property(seed):
    rng = random.Random(seed)
    f = [F2, F3][seed % 2]
    a = random_linear_code(rng, f, 6, max_k=4)
    b = random_linear_code(rng, f, 6, max_k=4)
    inter = a.intersect(b)
    # dim(A) + dim(B) = dim(A+B) + dim(A cap B)
    joined = LinearCode(f, 6, list(a.gen) + list(b.gen))
    assert a.k + b.k == joined.k + inter.k


# -- rref, mat_mul and membership on every arithmetic route -----------------

def reference_rref(f, rows):
    """Element-by-element Gauss-Jordan over the field's own sub and mul."""
    work = [list(r) for r in rows]
    n_cols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = f.inv(work[r][c])
        work[r] = [f.mul(inv, e) for e in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                g = work[i][c]
                work[i] = [f.sub(a, f.mul(g, b)) for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def reference_mat_mul(f, a, b):
    """Entry by entry: the field's add and mul along a row and a column."""
    out = []
    for row in a:
        orow = []
        for col in zip(*b):
            acc = 0
            for x, y in zip(row, col):
                acc = f.add(acc, f.mul(x, y))
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def reference_contains(f, rows, vec):
    """Reduce vec by each row of the RREF (rows) at that row's pivot."""
    gen, pivots = reference_rref(f, rows)
    v = list(vec)
    for row, pc in zip(gen, pivots):
        if v[pc] != 0:
            g = v[pc]
            v = [f.sub(a, f.mul(g, b)) for a, b in zip(v, row)]
    return not any(v)


# One field per arithmetic route of Field: dense tables (GF(2), GF(9)),
# integers mod p (GF(257)), log tables (GF(17^2), GF(2^9)) and digit loops
# (GF(2^17)).
ROUTE_FIELDS = (F2, field(3, 2), field(257), field(17, 2), field(2, 9), field(2, 17))


@st.composite
def scalar_rows(draw, f, n_rows, n_cols):
    """Rows that are random, zero, or combinations of the rows before them,
    with a drawn set of columns zero in every row."""
    zero_cols = draw(st.sets(st.integers(0, n_cols - 1)))
    entry = st.integers(0, f.q - 1)
    rows = []
    for _ in range(n_rows):
        kind = draw(st.sampled_from(("random", "zero", "combination")))
        row = [0] * n_cols
        if kind == "random":
            row = [0 if j in zero_cols else draw(entry) for j in range(n_cols)]
        elif kind == "combination":
            for r in rows:
                c = draw(entry)
                row = [f.add(a, f.mul(c, b)) for a, b in zip(row, r)]
        rows.append(tuple(row))
    return rows


@pytest.mark.parametrize("f", ROUTE_FIELDS, ids=lambda f: f"q{f.q}")
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_rref_matches_reference(f, data):
    n_rows, n_cols = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 8))
    rows = data.draw(scalar_rows(f, n_rows, n_cols))
    assert rref(f, rows) == reference_rref(f, rows)


@pytest.mark.parametrize("f", ROUTE_FIELDS, ids=lambda f: f"q{f.q}")
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_mat_mul_matches_reference(f, data):
    n_rows, inner, n_cols = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = data.draw(scalar_rows(f, n_rows, inner))
    b = data.draw(scalar_rows(f, inner, n_cols))
    assert mat_mul(f, a, b) == reference_mat_mul(f, a, b)


@pytest.mark.parametrize("f", ROUTE_FIELDS, ids=lambda f: f"q{f.q}")
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_contains_word_matches_reference(f, data):
    n = data.draw(st.integers(1, 8))
    rows = data.draw(scalar_rows(f, data.draw(st.integers(0, 5)), n))
    code = LinearCode(f, n, rows)
    coeffs = [data.draw(st.integers(0, f.q - 1)) for _ in rows]
    word = reference_mat_mul(f, [coeffs], rows)[0] if rows else (0,) * n
    other = data.draw(scalar_rows(f, 1, n))[0]
    assert code.contains_word(word)
    for vec in (word, other):
        assert code.contains_word(vec) == reference_contains(f, rows, vec)
