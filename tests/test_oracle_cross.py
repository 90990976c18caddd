"""Randomized agreement between the structured layer and the brute-force oracle.

tests/test_acceptance.py runs the same sweep at volume; this file keeps a
smaller always-on slice plus targeted unit checks of the oracle itself.
"""

import math
import random

import pytest

from mtcodes import LinearCode, MTCode, MTProfile, field, oracle
from mtcodes.errors import BudgetError

from helpers import (
    check_small_dim_pair,
    check_structured_vs_oracle,
    f4,
    random_linear_code,
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

