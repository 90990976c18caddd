"""Randomized agreement between the structured layer and the brute-force oracle.

tests/test_acceptance.py runs the same sweep at volume; this file keeps a
smaller always-on slice plus targeted unit checks of the oracle itself.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcodes import LinearCode, MTCode, MTProfile, field, oracle
from mtcodes.errors import BudgetError

from helpers import (
    check_small_dim_pair,
    check_structured_vs_oracle,
    f4,
    random_linear_code,
    reference_galois_dual_intersection,
    reference_intersection,
    sweep_pair,
    words,
)


F2 = field(2)
F3 = field(3)


@pytest.mark.parametrize("idx", range(24))
def test_structured_matches_oracle(idx):
    rng = random.Random(5000 + idx)
    check_structured_vs_oracle(rng, idx)


@pytest.mark.parametrize("f", [field(257), field(17, 2)], ids=lambda f: f"q{f.q}")
@pytest.mark.parametrize("idx", range(4))
def test_structured_matches_oracle_large_field(f, idx):
    check_small_dim_pair(random.Random(9000 + 10 * idx + f.q), f)


def test_twisted_shift_definition():
    f = f4()
    w = f.parse_element("w")
    vec = words(f, "1 w 0 w^2 1 0")[0]
    # blocks (4, 2), shifts (1, w): each block rotates right, incoming entry
    # scaled by the block's shift constant
    got = oracle.twisted_shift(f, (4, 2), (1, w), vec)
    assert got == (f.mul(1, vec[3]),) + vec[0:3] + (f.mul(w, vec[5]), vec[4])


def test_twisted_shift_order_is_period():
    rng = random.Random(77)
    for _ in range(10):
        code1, _ = sweep_pair(rng, rng.randrange(3))
        prof = code1.profile
        f = prof.field
        vec = tuple(rng.randrange(f.q) for _ in range(prof.n))
        cur = vec
        for _ in range(prof.period):
            cur = oracle.twisted_shift(f, prof.blocks, prof.shifts, cur)
        assert cur == vec


def test_invariance_detects_plain_codes():
    f = F3
    code = LinearCode(f, 6, [(1, 0, 0, 0, 0, 0)])
    assert not oracle.is_invariant(code, (3, 3), (1, 1))
    cyc = LinearCode(f, 3, [(1, 1, 1)])
    assert oracle.is_invariant(cyc, (3,), (1,))


def test_enumerate_code_counts():
    rng = random.Random(13)
    for _ in range(10):
        code = random_linear_code(rng, F2, 8, max_k=5)
        ws = oracle.enumerate_code(code)
        assert len(ws) == 2**code.k
        assert all(code.contains_word(w) for w in ws)


def test_budget_refusal():
    code = LinearCode.full(F3, 14)
    with pytest.raises(BudgetError):
        oracle.enumerate_code(code, budget=1000)
    with pytest.raises(BudgetError):
        oracle.galois_dual_set(code, 0, budget=1000)


def test_galois_dual_set_euclidean_case():
    code = LinearCode(F3, 4, [(1, 0, 1, 2), (0, 1, 2, 2)])
    d = oracle.galois_dual_set(code, 0)
    assert d == oracle.enumerate_code(code.dual())


def test_min_distance_of_words():
    assert oracle.min_distance_of_words({(0, 0)}) == math.inf
    assert oracle.min_distance_of_words({(0, 0), (1, 0), (1, 1)}) == 1



# -- the oracle's own elimination and one-sided intersections -------------

def test_echelon_of_rank_deficient_rows():
    # over GF(3): row 2 is twice row 1, row 4 is row 1 plus row 3
    rows = [(1, 2, 0, 1), (2, 1, 0, 2), (0, 1, 1, 0), (1, 0, 1, 1), (0, 0, 0, 0)]
    basis = oracle.echelon(F3, rows)
    assert [pivot for pivot, _ in basis] == [0, 1]
    for i, (pivot, row) in enumerate(basis):
        assert row[pivot] == 1
        assert all(row[p] == 0 for p, _ in basis[:i])
    assert all(oracle.in_span(F3, basis, r) for r in rows)
    assert oracle.in_span(F3, basis, (2, 0, 2, 2))  # 2 * row 1 + 2 * row 3
    assert not oracle.in_span(F3, basis, (0, 0, 0, 1))
    assert not oracle.in_span(F3, basis, (0, 0, 1, 0))
    assert oracle.echelon(F3, []) == [] and oracle.echelon(F3, [(0, 0)]) == []
    assert oracle.in_span(F3, [], (0, 0)) and not oracle.in_span(F3, [], (0, 1))


def test_echelon_membership_over_gf4():
    f = f4()
    rows = words(f, "1 w 0 / w w^2 0 / 0 1 w^2")  # row 2 is w times row 1
    basis = oracle.echelon(f, rows)
    assert len(basis) == 2
    span = oracle.enumerate_code(LinearCode(f, 3, rows))
    every = {(a, b, c) for a in range(4) for b in range(4) for c in range(4)}
    assert {w for w in every if oracle.in_span(f, basis, w)} == span


PROPERTY_FIELDS = [field(2), field(3), field(2, 2), field(3, 2), field(17, 2)]
# the references scan all q^n vectors, so n stays small
PROPERTY_MAX_N = {2: 8, 3: 5, 4: 4, 9: 3, 289: 2}


def _code(draw, f, n):
    kind = draw(st.sampled_from(["rows", "zero", "full"]))
    if kind == "zero":
        return LinearCode(f, n)
    if kind == "full":
        return LinearCode.full(f, n)
    entries = st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n)
    return LinearCode(f, n, draw(st.lists(entries, max_size=min(n, 3))))


@st.composite
def code_pairs(draw):
    f = draw(st.sampled_from(PROPERTY_FIELDS))
    n = draw(st.integers(1, PROPERTY_MAX_N[f.q]))
    a = _code(draw, f, n)
    return a, (a if draw(st.booleans()) else _code(draw, f, n))


def _assert_one_sided_matches(a, b):
    assert oracle.intersect_codes(a, b) == reference_intersection(a, b)
    for kappa in range(a.field.e):
        got = oracle.intersect_galois_dual(a, b, kappa)
        assert got == reference_galois_dual_intersection(a, b, kappa)


@settings(max_examples=40, deadline=None)
@given(code_pairs())
def test_one_sided_intersections_match_two_sided(pair):
    _assert_one_sided_matches(*pair)


@pytest.mark.parametrize("f", PROPERTY_FIELDS, ids=lambda f: f"q{f.q}")
def test_one_sided_intersections_on_zero_full_and_equal_codes(f):
    n = 3 if f.q < 100 else 1  # GF(17^2) gets n = 2 from the property above
    rng = random.Random(f.q)
    some = random_linear_code(rng, f, n, max_k=2)
    codes = [LinearCode(f, n), LinearCode.full(f, n), some]
    for a in codes:
        for b in codes:
            _assert_one_sided_matches(a, b)


def test_one_sided_intersections_keep_the_budget():
    # q^k1 = 3^6 and q^n = 3^8 exceed a budget of 500; q^k2 = 3^2 does not
    big = LinearCode(F3, 8, [tuple(int(i == j) for j in range(8)) for i in range(6)])
    small = LinearCode(F3, 8, [(1, 1, 0, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0, 0)])
    for a, b in ((big, small), (small, big)):
        with pytest.raises(BudgetError):
            oracle.intersect_codes(a, b, budget=500)
    for a, b in ((big, small), (small, small)):
        with pytest.raises(BudgetError):
            oracle.intersect_galois_dual(a, b, 0, budget=500)
    assert oracle.intersect_codes(big, small, budget=3**6) == reference_intersection(big, small)
    got = oracle.intersect_galois_dual(small, small, 0, budget=3**8)
    assert got == reference_galois_dual_intersection(small, small, 0)
