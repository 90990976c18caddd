"""Acceptance gate: twelve pinned criteria, one per test.

Each test records a PASS/FAIL line that the terminal-summary hook in
conftest.py prints at the end of the run.  All comparisons are exact; matrix
expectations are canonical (RREF for scalar generators, HNF for GPMs).
"""

import functools
import json
import random
import subprocess
import sys
from pathlib import Path

from mtcodes import LinearCode, MTCode, MTProfile, deg_det, field, hnf
from mtcodes.lincode import mat_mul, mat_rank, reverse_columns
from mtcodes.mtcode import advise_intersection_structure

from helpers import check_structured_vs_oracle, f4, f9_mod221, pmat, words
from test_mtcode import c1, c2, c3, c4, c5, c6

F3 = field(3)
FIXTURES = Path(__file__).parent.parent / "fixtures"

RESULTS = {}


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                RESULTS[num] = (label, "FAIL")
                raise
            RESULTS[num] = (label, "PASS")
        return wrapper
    return deco


@criterion(1, "linear intersection of the first code pair is the pinned [8,2,6] code")
def test_criterion_01_linear_intersection():
    f = f4()
    inter = c1().to_linear().intersect(c2().to_linear())
    assert (inter.n, inter.k) == (8, 2)
    assert inter.min_distance() == 6
    assert inter.gen == words(f, "1 0 w 1 0 w 1 w / 0 1 w^2 0 1 w^2 1 w")


@criterion(2, "reduced GPMs and companions of both codes, with dimension degrees 6 and 3")
def test_criterion_02_reduced_gpms():
    f = f4()
    a, b = c1(), c2()
    assert a.gpm == pmat(f, [["w + x", "w"], ["0", "w^2 + x"]])
    assert a.companion == pmat(f, [
        ["w^2 + w*x + x^2 + w^2*x^3 + w*x^4 + x^5", "w + w*x + w*x^3 + w*x^4"],
        ["0", "w^2 + x"],
    ])
    assert b.gpm == pmat(f, [["w^2 + w^2*x + x^2 + x^3", "w*x"], ["0", "w + x^2"]])
    assert b.companion == pmat(f, [["w + w*x + x^2 + x^3", "w*x + w*x^2"], ["0", "1"]])
    assert deg_det(a.companion) == 6
    assert deg_det(b.companion) == 3


@criterion(3, "dual GPM pair and the 1-Galois dual with shift constants (1, w)")
def test_criterion_03_duals():
    f = f4()
    dual = c1().dual()
    assert dual.gpm == pmat(f, [["1 + x + x^3 + x^4", "w + x"], ["0", "w^2 + x^2"]])
    assert dual.companion == pmat(f, [["1 + x + x^2", "w^2 + x"], ["0", "1"]])
    gd = c1().galois_dual(1)
    assert gd.profile.shifts == (1, f.parse_element("w"))
    assert gd.gpm == pmat(f, [["1 + x + x^3 + x^4", "w^2 + x"], ["0", "w + x^2"]])
    assert gd.companion == pmat(f, [["1 + x + x^2", "w + x"], ["0", "1"]])


@criterion(4, "GPM-route intersection equals its pinned matrix and the linear route")
def test_criterion_04_gpm_intersection():
    f = f4()
    a, b = c1(), c2()
    inter = a.intersect(b)
    assert inter.gpm == pmat(f, [
        ["w + x + w*x^3 + x^4", "w^2 + x"],
        ["0", "w + x^2"],
    ])
    lin = a.to_linear().intersect(b.to_linear())
    assert MTCode.from_linear(a.profile, lin).gpm == inter.gpm


@criterion(5, "trivial Galois intersection certified by all three routes")
def test_criterion_05_trivial_galois_intersection():
    a, b = c1(), c2()
    # route 1: linear Galois intersection
    assert a.to_linear().galois_intersect(b.to_linear(), 1).k == 0
    # route 2: GPM route, P unimodularly equal to the second companion transposed
    details = a.galois_intersection_details(b, kappa=1)
    assert details.code.dim == 0
    assert hnf(details.qc_companion.transpose()).h == hnf(b.companion).h
    # route 3: chain-type sum reaches dim C2
    table = a.galois_dual(1).trivial_intersection_evidence(b)
    assert [(l.type_vector, l.weighted) for l in table.layers] == [
        ((0, 1), 1),
        ((0, 0), 0),
        ((1, 0), 2),
    ]
    assert table.total == 3 == b.dim
    assert table.verdict


@criterion(6, "reversed code has swapped profile and the pinned reduced GPM")
def test_criterion_06_reversed():
    f = f4()
    rev = c1().reversed_code()
    assert rev.profile.blocks == (2, 6)
    assert rev.profile.shifts == (f.parse_element("w^2"), 1)
    assert rev.gpm == pmat(f, [["1", "w^2 + x"], ["0", "1 + x + x^2"]])


@criterion(7, "reversibility on the ternary family and its pinned subcode/intersection")
def test_criterion_07_ternary_reversibility():
    lin3, lin4, lin5 = (c.to_linear() for c in (c3(), c4(), c5()))
    # C4 reversible: H J G^T vanishes
    prod4 = mat_mul(F3, lin4.parity, tuple(zip(*reverse_columns(lin4.gen))))
    assert all(all(e == 0 for e in row) for row in prod4)
    assert lin4.is_reversible()
    # C3 blocked at full rank: only the zero subcode is reversible
    prod3 = mat_mul(F3, lin3.parity, tuple(zip(*reverse_columns(lin3.gen))))
    assert mat_rank(F3, prod3) == 3
    rev3, sub3 = lin3.reversibility()
    assert rev3 is False and sub3.k == 0
    # C5's largest reversible subcode
    _, sub5 = lin5.reversibility()
    assert sub5.gen == words(F3, """
        1 0 0 1 2 0 0 2 0 /
        0 1 0 0 1 2 0 0 2 /
        0 0 1 1 0 1 1 0 0""")
    # pinned one-dimensional intersection
    i34 = lin3.intersect(lin4)
    assert i34.gen == words(F3, "1 1 0 0 2 0 1 2 1")


@criterion(8, "advisor outcomes for both ternary pairs, exhaustive over 8 shift vectors")
def test_criterion_08_advisor():
    a34 = advise_intersection_structure(c3(), c4())
    assert a34.exhaustive is True
    assert len(a34.candidates) == 8
    assert a34.admitted == ()
    a35 = advise_intersection_structure(c3(), c5())
    inter = a35.intersection
    assert (inter.n, inter.k) == (9, 1)
    assert inter.min_distance() == 9
    assert inter.gen == words(F3, "1 1 1 1 1 1 2 2 2")
    assert (1, 1, 1) in a35.admitted


@criterion(9, "property checks on the ternary family, including the pinned residue row")
def test_criterion_09_property_checks():
    so3 = c3().property_check("self_orthogonal", kappa=0)
    assert so3.holds is True
    rev3 = c3().property_check("reversible")
    assert rev3.holds is False
    assert [str(e) for e in rev3.residue.rows[0]] == [
        "0", "2 + 2*x + x^2", "2 + 2*x + 2*x^2",
    ]
    dc4 = c4().property_check("dual_containing", kappa=0)
    assert dc4.holds is True
    rev4 = c4().property_check("reversible")
    assert rev4.holds is True


@criterion(10, "the [16,5,5] code over GF(9): GPM, period 140, and 1-Galois LCD layers")
def test_criterion_10_gf9_code():
    code = c6()
    f = code.field
    assert (code.n, code.dim) == (16, 5)
    assert code.min_distance() == 5  # 2 information sets, rounds w <= 2: mw + j reaches 5
    assert code.profile.shifts == (1, f.parse_element("w^2"), 2)
    assert code.profile.period == 140
    assert code.gpm == pmat(f, [
        ["w^6 + w*x + x^2", "w^6 + 2*x + w^2*x^2 + x^3 + w^6*x^4", "w^5 + w^2*x + 2*x^2 + w^5*x^3"],
        ["0", "w^6 + x^5", "0"],
        ["0", "0", "1 + w^3*x + 2*x^2 + w*x^3 + x^4"],
    ])
    chk = code.property_check("lcd", kappa=1)
    assert chk.holds is True
    nonzero = [(str(l.factor), l.type_vector, l.weighted) for l in chk.table.layers if l.weighted]
    assert nonzero == [
        ("1 + x", (1,), 1),
        ("w^6 + x", (1,), 1),
        ("1 + w^7*x + w^5*x^2 + x^3", (1,), 3),
    ]
    assert chk.table.total == 5 == code.dim


@criterion(11, "200 random code pairs agree with the enumeration oracle on every operation")
def test_criterion_11_random_oracle_sweep():
    for idx in range(200):
        rng = random.Random(910_000 + idx)
        check_structured_vs_oracle(rng, idx)


@criterion(12, "JSON reports are byte-identical across repeated runs of every fixture")
def test_criterion_12_json_determinism():
    cases = [
        ("info", str(FIXTURES / "f4_codes.txt")),
        ("info", str(FIXTURES / "f3_codes.txt")),
        ("info", str(FIXTURES / "f9_codes.txt")),
        ("intersect", str(FIXTURES / "f4_codes.txt"), "C1", "C2", "--galois", "1"),
        ("check", str(FIXTURES / "f3_codes.txt"), "C3", "--so", "0"),
        ("check", str(FIXTURES / "f9_codes.txt"), "C6", "--lcd", "1"),
    ]
    for case in cases:
        cmd = [sys.executable, "-m", "mtcodes", *case, "--json"]
        first = subprocess.run(cmd, capture_output=True, check=True).stdout
        second = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert first == second
        json.loads(first)  # and it is well-formed JSON
