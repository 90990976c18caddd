"""Multi-twisted codes: pinned end-to-end values for six reference codes.

Expected matrices below were derived independently (worked by hand and
cross-checked against the enumeration oracle in tests/test_oracle_cross.py);
they are frozen here so any drift in the reduction pipeline is caught exactly.
"""

import functools
import math
import random
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mtcodes.pmat as pmat_mod
from mtcodes import Field, LinearCode, MTCode, MTProfile, Poly, PolyMatrix, chain_type, deg_det, field, hnf, oracle
from mtcodes.errors import BudgetError, DomainError
from mtcodes.mtcode import (
    FactorLayer,
    _cofactor_product,
    _content,
    _single_block_type,
    _spans,
    _twist,
    advise_intersection_structure,
    reciprocal_columns,
)
from mtcodes.upoly import _divisor_row, is_irreducible

from helpers import (
    SWEEP_FIELDS,
    check_systematic_routes,
    cofactor_diag,
    check_trivial_intersection_routes,
    cofactor_product_reference,
    f4,
    f9_mod221,
    layer_types,
    modulus_diag,
    paper_intersection_details,
    plan_activity,
    pmat,
    poly,
    random_linear_code,
    random_mt_code,
    random_profile,
    reference_factor_valuations,
    reference_layer_types,
    sweep_pair,
    words,
)


F3 = field(3)


# -- reference codes -------------------------------------------------------

def c1():
    f = f4()
    prof = MTProfile(f, (6, 2), (1, f.parse_element("w")))
    gen = words(f, """
        1 0 0 0 0 w 0 1 /
        0 1 0 0 0 w^2 0 1 /
        0 0 1 0 0 1 0 0 /
        0 0 0 1 0 w 0 1 /
        0 0 0 0 1 w^2 0 1 /
        0 0 0 0 0 0 1 w""")
    return MTCode.from_linear(prof, LinearCode(f, 8, gen))


def c2():
    f = f4()
    prof = MTProfile(f, (6, 2), (1, f.parse_element("w")))
    gen = words(f, """
        1 0 0 w^2 w^2 1 1 0 /
        0 1 0 w^2 0 w 1 1 /
        0 0 1 1 w w 0 1""")
    return MTCode.from_linear(prof, LinearCode(f, 8, gen))


def _f3_code(shifts, gen_text, rows):
    prof = MTProfile(F3, (3, 3, 3), shifts)
    gen = words(F3, gen_text)
    assert len(gen) == rows
    return MTCode.from_linear(prof, LinearCode(F3, 9, gen))


def c3():
    return _f3_code((1, 1, 1), """
        1 0 0 1 1 2 1 1 0 /
        0 1 0 2 1 1 0 1 1 /
        0 0 1 1 2 1 1 0 1""", 3)


def c4():
    return _f3_code((2, 1, 2), """
        1 0 2 0 0 0 0 0 0 /
        0 1 1 0 0 0 0 0 0 /
        0 0 0 1 0 0 0 0 0 /
        0 0 0 0 1 0 0 0 0 /
        0 0 0 0 0 1 0 0 0 /
        0 0 0 0 0 0 1 0 2 /
        0 0 0 0 0 0 0 1 1""", 7)


def c5():
    return _f3_code((2, 2, 2), """
        1 0 0 0 0 0 1 0 2 /
        0 1 0 0 0 0 1 1 0 /
        0 0 1 0 0 0 0 1 1 /
        0 0 0 1 0 0 1 0 1 /
        0 0 0 0 1 0 2 1 0 /
        0 0 0 0 0 1 0 2 1""", 6)


def c6():
    f = f9_mod221()
    prof = MTProfile(f, (4, 5, 7), (1, f.parse_element("w^2"), 2))
    gen = words(f, """
        1 0 w^6 w w^2 1 w^6 2 w^2 0 0 0 w w^6 1 w /
        0 1 w^3 w^2 w^2 1 w^6 2 w^2 0 0 0 w^7 2 w^6 w^7 /
        0 0 0 0 0 0 0 0 0 1 0 0 2 w^7 1 w^5 /
        0 0 0 0 0 0 0 0 0 0 1 0 w 1 2 w^7 /
        0 0 0 0 0 0 0 0 0 0 0 1 w^3 2 w 1""")
    return MTCode.from_linear(prof, LinearCode(f, 16, gen))


# -- GPM reduction -----------------------------------------------------------

def test_c1_reduced_gpm_and_companion():
    code = c1()
    f = code.field
    assert code.gpm == pmat(f, [["w + x", "w"], ["0", "w^2 + x"]])
    assert code.companion == pmat(f, [
        ["w^2 + w*x + x^2 + w^2*x^3 + w*x^4 + x^5", "w + w*x + w*x^3 + w*x^4"],
        ["0", "w^2 + x"],
    ])
    assert code.dim == 6
    assert code.n == 8
    assert code.min_distance() == 2


def test_c2_reduced_gpm_and_companion():
    code = c2()
    f = code.field
    assert code.gpm == pmat(f, [["w^2 + w^2*x + x^2 + x^3", "w*x"], ["0", "w + x^2"]])
    assert code.companion == pmat(f, [
        ["w + w*x + x^2 + x^3", "w*x + w*x^2"],
        ["0", "1"],
    ])
    assert code.dim == 3


def test_identical_equation_holds():
    for code in (c1(), c2(), c3(), c4(), c5(), c6()):
        assert code.companion @ code.gpm == modulus_diag(code.profile)


def test_from_linear_rejects_non_invariant_code():
    f = f4()
    prof = MTProfile(f, (6, 2), (1, f.parse_element("w")))
    plain = LinearCode(f, 8, [(1, 0, 0, 0, 0, 0, 0, 0)])
    with pytest.raises(DomainError):
        MTCode.from_linear(prof, plain)


def test_round_trip_through_linear():
    # c1()..c6() adopt the paper's generator as their scalar form, so expand
    # the GPM afresh: the expansion must be the paper's code, and adopting
    # the expansion must give the GPM back
    for code in (c1(), c2(), c3(), c4(), c5(), c6()):
        lin = MTCode(code.profile, code.gpm).to_linear()
        assert lin is not code.to_linear()
        assert lin == code.to_linear()
        assert lin.k == code.dim
        again = MTCode.from_linear(code.profile, lin)
        assert again == code


def test_from_linear_adopts_the_code_without_solving(monkeypatch):
    # the twisted-shift recurrence on the given RREF decides: no membership
    # solve, no second RREF and no HNF, and the given code becomes the
    # scalar form
    import mtcodes.lincode as lincode
    import mtcodes.mtcode as mtcode_mod

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lincode, "rref", counted("rref", lincode.rref))
    monkeypatch.setattr(LinearCode, "contains_word", counted("contains_word", LinearCode.contains_word))
    monkeypatch.setattr(mtcode_mod, "hnf", counted("hnf", mtcode_mod.hnf))
    for code in (c1(), c2(), c3(), c4(), c5(), c6()):
        source = MTCode(code.profile, code.gpm)
        lin = LinearCode(code.field, code.n, source.to_linear().gen)
        assert "rref" in calls  # the counter sees the rref inside LinearCode
        del calls[:]
        adopted = MTCode.from_linear(code.profile, lin)
        assert calls == []
        assert adopted.to_linear() is lin
        assert adopted == source
        assert MTCode(code.profile, adopted.gpm).to_linear() == lin


def test_from_linear_accepts_exactly_the_invariant_codes():
    rng = random.Random(1601)
    for idx in range(90):
        f, max_n = SWEEP_FIELDS[idx % len(SWEEP_FIELDS)]
        prof = random_profile(rng, f)
        while prof.n > max_n:
            prof = random_profile(rng, f)
        source = None
        if idx % 2:
            lin = random_linear_code(rng, f, prof.n, max_k=3)
        else:
            source = random_mt_code(rng, prof)
            lin = source.to_linear()
            assert lin.k == source.dim  # the expansion rows are independent
        invariant = oracle.is_invariant(lin, prof.blocks, prof.shifts)
        try:
            mt = MTCode.from_linear(prof, lin)
        except DomainError:
            assert not invariant
        else:
            assert invariant
            assert mt.dim == lin.k
            assert source is None or mt == source
            # expand the adopted GPM afresh: it must generate the given code
            assert MTCode(prof, mt.gpm).to_linear() == lin


# GF(2), GF(3), GF(4), GF(9), GF(257), GF(17^2) and GF(2^9): table fields,
# integer arithmetic mod p, and log-table extension fields above 256.
SYSTEMATIC_FIELDS = (field(2), field(3), field(2, 2), field(3, 2), field(257), field(17, 2), field(2, 9))

# (field index, blocks, shifts, rows of coefficient lists) for the cases the
# twisted-shift recurrence must get right; see test_systematic_edge_cases.
SYSTEMATIC_EDGE_CASES = (
    # t_1 = 0: no row reaches block 1, so G_11 = x^4 - 2 and no pivots
    (1, (3, 4), (1, 2), (((1, 1), ()),)),
    # t_0 = m_0: G_00 = 1, so the last pivot of block 0 is its last position
    (2, (2, 3), (1, 2), (((1,), (1, 2)),)),
    # G_00 = x - 1 over GF(257): block 0 is shifted back 7 >= 3 m_1 places,
    # three wraps through lam_1 = 3, of order 256
    (4, (9, 2), (1, 3), (((256, 1), (5, 7)),)),
    # over GF(2) the shift back of 6 wraps block 1 three times, then G_11
    # = 1 + x reduces what lands there
    (0, (8, 2), (1, 1), (((1, 1), (1,)), ((), (1, 1)))),
    # shifts w and w^2 of order 3 in GF(4), and of order 3 in GF(9)
    (2, (3, 3, 2), (2, 3, 2), (((1, 1), (0, 1), (1,)), ((), (1, 0, 1), (3,)))),
    (3, (4, 4), (3, 3), (((2, 1), (1, 2, 0, 1)),)),
)


def systematic_code(spec) -> MTCode:
    fi, blocks, shifts, rows = spec
    f = SYSTEMATIC_FIELDS[fi]
    prof = MTProfile(f, blocks, shifts)
    return MTCode(prof, [[Poly(f, cs) for cs in row] for row in rows])


@st.composite
def systematic_specs(draw):
    """Random profiles and rows whose cells are 0, 1, short random
    polynomials, or x^(m/d) - mu for d > 1 dividing m and mu^d = lam, a
    proper divisor of the block modulus, so 0 < t_i < m_i comes up too."""
    fi = draw(st.integers(0, len(SYSTEMATIC_FIELDS) - 1))
    f = SYSTEMATIC_FIELDS[fi]
    ell = draw(st.integers(1, 3))
    blocks = tuple(draw(st.integers(1, 9)) for _ in range(ell))
    shifts = tuple(draw(st.integers(1, f.q - 1)) for _ in range(ell))
    columns = []
    for m, lam in zip(blocks, shifts):
        divisors = [
            (f.neg(mu),) + (0,) * (m // d - 1) + (1,)
            for d in range(2, m + 1) if m % d == 0
            for mu in range(1, f.q) if f.pow(mu, d) == lam
        ]
        columns.append(st.one_of(
            st.just(()), st.just((1,)), st.lists(st.integers(0, f.q - 1), min_size=1, max_size=4).map(tuple),
            *([st.sampled_from(divisors)] if divisors else []),
        ))
    rows = draw(st.lists(st.tuples(*columns), max_size=3))
    return fi, blocks, shifts, tuple(rows)


def test_systematic_edge_cases():
    """The edge cases above hold what their comments say."""
    seen = set()
    for spec in SYSTEMATIC_EDGE_CASES:
        code = systematic_code(spec)
        prof = code.profile
        t = [m - row[i].degree for i, (row, m) in enumerate(zip(code.gpm.rows, prof.blocks))]
        for i, (ti, m) in enumerate(zip(t, prof.blocks)):
            seen.add("t = 0" if ti == 0 else "t = m" if ti == m else "0 < t < m")
            if any(ti - 1 >= 2 * mj and code.gpm.rows[i][j] for j, mj in enumerate(prof.blocks[i + 1 :], i + 1)):
                seen.add("wraps")
        if any(o > 2 for o in prof.orders):
            seen.add("order > 2")
    assert seen == {"t = 0", "t = m", "0 < t < m", "wraps", "order > 2"}


def with_edge_cases(test):
    for spec in SYSTEMATIC_EDGE_CASES:
        test = example(spec)(test)
    return test


@with_edge_cases
@given(systematic_specs())
@settings(max_examples=300, deadline=None)
def test_systematic_rows_are_the_rref_of_the_expansion(spec):
    """`to_linear` builds the rref of the expansion rows x^j g_i with no
    elimination, and `from_linear` reads the GPM and companion back off
    it (`check_systematic_routes`)."""
    check_systematic_routes(systematic_code(spec))


@given(systematic_specs(), st.integers(0, 3), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_from_linear_rejects_exactly_the_non_invariant_codes(spec, how, rng):
    """An MT code's systematic rows, kept (how 0), less one row (1), with
    one entry changed (2), or random rows (3), are adopted exactly when
    every twisted shift of a generator row lies in the code."""
    code = systematic_code(spec)
    prof, f = code.profile, code.field
    gen = [list(r) for r in code.to_linear().gen]
    if how == 1 and gen:
        del gen[rng.randrange(len(gen))]
    elif how == 2 and gen:
        gen[rng.randrange(len(gen))][rng.randrange(prof.n)] = rng.randrange(f.q)
    elif how == 3:
        gen = [[rng.randrange(f.q) for _ in range(prof.n)] for _ in range(rng.randint(1, 3))]
    lin = LinearCode(f, prof.n, gen)
    invariant = all(lin.contains_word(oracle.twisted_shift(f, prof.blocks, prof.shifts, r)) for r in lin.gen)
    try:
        mt = MTCode.from_linear(prof, lin)
    except DomainError as exc:
        assert not invariant
        assert str(exc) == "code is not invariant under the profile's twisted shift"
    else:
        assert invariant
        assert mt.to_linear() is lin
        check_systematic_routes(mt)


# Fields with shift constants of order above 2 (3 in GF(4), up to 288 in
# GF(17^2)), so a wrap scales by more than +-1.
TWIST_FIELDS = (f4(), field(3, 2), field(257), field(17, 2))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_twist_is_a_power_of_the_oracle_shift(data):
    """`_twist(r, s)` is s applications of the oracle's own twisted shift
    for 0 <= s <= 3 max m, times c when scaled, and `_twist(_, -s)` undoes
    it; zero blocks and the shift 1 come up too."""
    f = data.draw(st.sampled_from(TWIST_FIELDS), label="field")
    high = [a for a in range(2, f.q) if f.mult_order(a) > 2]
    blocks = tuple(data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3), label="blocks"))
    shifts = (data.draw(st.sampled_from(high), label="first shift"),) + tuple(
        data.draw(st.integers(1, f.q - 1), label="shift") for _ in blocks[1:]
    )
    row = []
    for m in blocks:
        row += data.draw(st.one_of(st.just([0] * m), st.lists(st.integers(0, f.q - 1), min_size=m, max_size=m)))
    c = data.draw(st.integers(1, f.q - 1), label="c")
    spans = _spans(blocks, shifts)
    want = tuple(row)
    for s in range(3 * max(blocks) + 1):
        got = _twist(f, row, spans, s)
        assert tuple(got) == want
        assert _twist(f, got, spans, -s) == row
        assert _twist(f, row, spans, s, c) == [f.mul(c, x) for x in want]
        want = oracle.twisted_shift(f, blocks, shifts, want)


def test_to_linear_forms_no_polynomial_product(monkeypatch):
    """Each block's systematic rows are shifts of its last row, so
    `to_linear` forms no product even where the GPM has nonzero entries
    off the diagonal, and still gives the rref of the expansion rows."""
    import mtcodes.mtcode as mtcode_mod

    f = f4()
    prof = MTProfile(f, (4, 4, 2), (1, 1, 1))
    rows = [["1 + x", "1", "w"], ["0", "1 + x", "1"], ["0", "0", "1 + x"]]
    code = MTCode(prof, [[poly(f, e) for e in row] for row in rows])
    gpm = code.gpm.rows
    assert all(gpm[i][i].degree < m for i, m in enumerate(prof.blocks))
    assert all(gpm[i][j] for i, j in ((0, 1), (0, 2), (1, 2)))
    products = _count_calls(monkeypatch, mtcode_mod, "_add_product")
    code.to_linear()
    assert products == []
    check_systematic_routes(code)


# -- duals -------------------------------------------------------------------

def test_c1_dual_gpm():
    code = c1()
    f = code.field
    dual = code.dual()
    assert dual.profile.shifts == (1, f.parse_element("w^2"))
    assert dual.gpm == pmat(f, [
        ["1 + x + x^3 + x^4", "w + x"],
        ["0", "w^2 + x^2"],
    ])
    assert dual.companion == pmat(f, [
        ["1 + x + x^2", "w^2 + x"],
        ["0", "1"],
    ])
    assert dual.dim == 8 - 6
    # words agree with the linear dual
    assert dual.to_linear() == code.to_linear().dual()


def test_c1_galois_dual_gpm():
    code = c1()
    f = code.field
    gd = code.galois_dual(1)
    assert gd.profile.shifts == (1, f.parse_element("w"))
    assert gd.gpm == pmat(f, [
        ["1 + x + x^3 + x^4", "w^2 + x"],
        ["0", "w + x^2"],
    ])
    assert gd.companion == pmat(f, [
        ["1 + x + x^2", "w + x"],
        ["0", "1"],
    ])
    assert gd.to_linear() == code.to_linear().galois_dual(1)


def test_dual_of_dual():
    for code in (c1(), c2(), c4()):
        assert code.dual().dual() == code
        e = code.field.e
        for kappa in range(e):
            gd = code.galois_dual(kappa)
            back = gd.galois_dual((2 * e - kappa) % e if kappa else 0)
            assert back == code


def test_galois_dual_zero_is_the_dual():
    for code in (c1(), c2(), c4()):
        dual = code.dual()
        assert code.galois_dual(0) == dual
        # the same code a fresh elimination of sigma^e(dual GPM) gives
        e = code.field.e
        assert MTCode(code.profile.galois_dual_profile(0), dual.gpm.frobenius(e)) == dual
        assert dual.to_linear() == code.to_linear().galois_dual(0)


def test_galois_dual_equals_the_eliminated_sigma_of_the_dual():
    rng = random.Random(1919)
    for f in (f4(), field(3, 2), field(2, 3), field(17, 2), field(2, 9)):
        for _ in range(12):
            code = random_mt_code(rng, random_profile(rng, f))
            dual = code.dual()
            for kappa in range(1, f.e):
                gd = code.galois_dual(kappa)
                fresh = MTCode(code.profile.galois_dual_profile(kappa), dual.gpm.frobenius(f.e - kappa))
                assert gd.profile == fresh.profile
                assert gd.gpm == fresh.gpm and gd.companion == fresh.companion


def test_galois_dual_runs_no_elimination_once_the_dual_is_known(monkeypatch):
    calls = []
    real = pmat_mod._echelon
    monkeypatch.setattr(pmat_mod, "_echelon", lambda *args: calls.append(args) or real(*args))
    rng = random.Random(23)
    codes = [c1(), random_mt_code(rng, MTProfile(field(2, 3), (3, 2), (2, 5)))]
    assert calls
    for code in codes:
        code.dual()
        calls.clear()
        for kappa in range(1, code.field.e):
            code.galois_dual(kappa)
        assert calls == []


# -- reversal ----------------------------------------------------------------

def test_c1_reversed_gpm():
    code = c1()
    f = code.field
    rev = code.reversed_code()
    w2 = f.parse_element("w^2")
    assert rev.profile.blocks == (2, 6)
    assert rev.profile.shifts == (w2, 1)
    assert rev.gpm == pmat(f, [["1", "w^2 + x"], ["0", "1 + x + x^2"]])
    # wordwise agreement
    assert rev.to_linear() == code.to_linear().reversed_code()


# -- intersections -----------------------------------------------------------

def test_c1_c2_intersection_linear_words():
    inter = c1().to_linear().intersect(c2().to_linear())
    f = f4()
    assert inter.k == 2
    assert inter.min_distance() == 6
    assert inter == LinearCode(f, 8, words(f, "1 0 w 1 0 w 1 w / 0 1 w^2 0 1 w^2 1 w"))


def test_c1_c2_intersection_gpm_route():
    a, b = c1(), c2()
    f = a.field
    details = a.intersection_details(b)
    assert details.qc_gpm == pmat(f, [
        ["w + w^2*x + x^2 + w*x^3 + w^2*x^4 + x^5", "0"],
        ["0", "1 + x^6"],
    ])
    assert details.qc_companion == pmat(f, [["w^2 + x", "0"], ["0", "1"]])
    inter = details.code
    assert inter.gpm == pmat(f, [
        ["w + x + w*x^3 + x^4", "w^2 + x"],
        ["0", "w + x^2"],
    ])
    assert inter.dim == 2
    # both routes agree wordwise
    assert inter.to_linear() == a.to_linear().intersect(b.to_linear())
    assert a.intersect(b) == inter


def test_c1_c2_galois_intersection_trivial():
    a, b = c1(), c2()
    f = a.field
    details = a.galois_intersection_details(b, kappa=1)
    assert details.qc_gpm == pmat(f, [
        ["w^2 + w^2*x + x^2 + x^3", "0"],
        ["0", "1 + x^6"],
    ])
    assert details.qc_companion == pmat(f, [
        ["w + w*x + x^2 + x^3", "0"],
        ["0", "1"],
    ])
    assert details.code.dim == 0
    # triviality certificate: P is unimodularly the transpose of B's companion
    assert hnf(details.qc_companion.transpose()).h == hnf(b.companion).h
    # and the linear route agrees
    lin = a.to_linear().galois_intersect(b.to_linear(), 1)
    assert lin.k == 0


def test_c1_c2_galois_trivial_layer_table():
    a, b = c1(), c2()
    gd = a.galois_dual(1)
    table = gd.trivial_intersection_evidence(b)
    got = [(str(l.factor), l.power, l.type_vector, l.weighted) for l in table.layers]
    assert got == [
        ("1 + x", 2, (0, 1), 1),
        ("w + x", 2, (0, 0), 0),
        ("w^2 + x", 2, (1, 0), 2),
    ]
    assert table.total == 3 == b.dim
    assert table.verdict


def test_intersection_requires_same_profile():
    with pytest.raises(DomainError):
        c1().intersect(c3())
    with pytest.raises(DomainError):
        c4().intersect(c5())  # same blocks, different shifts


def test_galois_intersection_precondition():
    # kappa = 0 fails for C1: the Euclidean dual carries shifts (1, w^2)
    with pytest.raises(DomainError):
        c1().galois_intersection_details(c2(), kappa=0)


# -- F_3 reference codes -------------------------------------------------

def test_f3_reduced_gpms():
    g3, g4, g5 = c3(), c4(), c5()
    assert g3.gpm == pmat(F3, [
        ["1", "1 + x + 2*x^2", "1 + x"],
        ["0", "2 + x^3", "0"],
        ["0", "0", "2 + x^3"],
    ])
    assert g3.companion == pmat(F3, [
        ["2 + x^3", "2 + 2*x + x^2", "2 + 2*x"],
        ["0", "1", "0"],
        ["0", "0", "1"],
    ])
    assert g4.gpm == pmat(F3, [
        ["1 + x", "0", "0"],
        ["0", "1", "0"],
        ["0", "0", "1 + x"],
    ])
    assert g5.gpm == pmat(F3, [
        ["1", "0", "1 + 2*x^2"],
        ["0", "1", "1 + x^2"],
        ["0", "0", "1 + x^3"],
    ])
    assert g5.companion == pmat(F3, [
        ["1 + x^3", "0", "2 + x^2"],
        ["0", "1 + x^3", "2 + 2*x^2"],
        ["0", "0", "1"],
    ])
    assert (g3.dim, g4.dim, g5.dim) == (3, 7, 6)


def test_f3_reversibility():
    rev4 = c4().to_linear().reversibility()
    assert rev4[0] is True

    lin3 = c3().to_linear()
    rev3, sub3 = lin3.reversibility()
    assert rev3 is False
    assert sub3.k == 0  # full-rank obstruction leaves only the zero subcode

    rev5, sub5 = c5().to_linear().reversibility()
    assert rev5 is False
    assert sub5 == LinearCode(F3, 9, words(F3, """
        1 0 0 1 2 0 0 2 0 /
        0 1 0 0 1 2 0 0 2 /
        0 0 1 1 0 1 1 0 0"""))


def test_f3_intersections():
    i34 = c3().to_linear().intersect(c4().to_linear())
    assert i34 == LinearCode(F3, 9, words(F3, "1 1 0 0 2 0 1 2 1"))
    i35 = c3().to_linear().intersect(c5().to_linear())
    assert i35 == LinearCode(F3, 9, words(F3, "1 1 1 1 1 1 2 2 2"))
    assert i35.min_distance() == 9


def test_f3_property_checks():
    chk = c3().property_check("self_orthogonal", kappa=0)
    assert chk.holds is True
    assert chk.residue.is_zero()

    rev3 = c3().property_check("reversible")
    assert rev3.holds is False
    assert rev3.residue is not None
    res = rev3.residue
    assert [str(e) for e in res.rows[0]] == ["0", "2 + 2*x + x^2", "2 + 2*x + 2*x^2"]
    assert all(e.is_zero() for e in res.rows[1])
    assert all(e.is_zero() for e in res.rows[2])

    chk4 = c4().property_check("dual_containing", kappa=0)
    assert chk4.holds is True
    rev4 = c4().property_check("reversible")
    assert rev4.holds is True

    rev5 = c5().property_check("reversible")
    assert rev5.holds is False


def test_property_precondition_unmet():
    # C2 has shifts (1, w); its Euclidean dual carries (1, w^2)
    chk = c2().property_check("self_orthogonal", kappa=0)
    assert chk.holds is None
    assert "precondition" in chk.note
    # but kappa = 1 satisfies the shift condition and gives a definite answer
    chk1 = c2().property_check("self_orthogonal", kappa=1)
    assert chk1.holds in (True, False)


def test_reversible_precondition_unmet():
    chk = c2().property_check("reversible")
    assert chk.holds is None
    assert "palindromic" in chk.note


# -- advisor -----------------------------------------------------------------

def test_advisor_c3_c4_no_gamma():
    advice = advise_intersection_structure(c3(), c4())
    assert advice.exhaustive is True
    assert len(advice.candidates) == 8  # (3-1)^3
    assert advice.admitted == ()
    assert advice.intersection.k == 1
    assert advice.d1 == 6 and advice.d2 == 1
    # d(C3) = 6 exceeds ell = 3, so only the first code's shifts could work
    assert any("first code's shifts" in note for note in advice.notes)
    assert any("no tested shift vector" in note for note in advice.notes)


def test_advisor_c3_c5_finds_gamma():
    advice = advise_intersection_structure(c3(), c5())
    assert (1, 1, 1) in advice.admitted
    assert advice.intersection.k == 1
    assert advice.exhaustive is True


def test_advisor_same_shifts_always_admits():
    advice = advise_intersection_structure(c1(), c2())
    assert c1().profile.shifts in advice.admitted
    assert any("unconditional" in note for note in advice.notes)


def test_advisor_rejects_mismatched_blocks():
    with pytest.raises(DomainError):
        advise_intersection_structure(c1(), c6())


# -- F_9 reference code ----------------------------------------------------

def test_c6_parameters_and_gpm():
    code = c6()
    f = code.field
    assert (code.n, code.dim) == (16, 5)
    assert code.min_distance() == 5
    assert code.profile.period == 140
    assert code.gpm == pmat(f, [
        ["w^6 + w*x + x^2", "w^6 + 2*x + w^2*x^2 + x^3 + w^6*x^4", "w^5 + w^2*x + 2*x^2 + w^5*x^3"],
        ["0", "w^6 + x^5", "0"],
        ["0", "0", "1 + w^3*x + 2*x^2 + w*x^3 + x^4"],
    ])


def test_c6_lcd_layer_table():
    code = c6()
    chk = code.property_check("lcd", kappa=1)
    assert chk.holds is True
    table = chk.table
    nonzero = [
        (str(l.factor), l.type_vector, l.weighted)
        for l in table.layers
        if l.weighted
    ]
    assert nonzero == [
        ("1 + x", (1,), 1),
        ("w^6 + x", (1,), 1),
        ("1 + w^7*x + w^5*x^2 + x^3", (1,), 3),
    ]
    assert table.total == 5 == code.dim
    assert len(table.layers) == 36  # x^140 - 1 has 36 irreducible factors here


def test_zero_and_full_codes():
    prof = MTProfile(F3, (3, 3), (1, 2))
    z = MTCode.zero(prof)
    assert z.dim == 0
    assert z.gpm == modulus_diag(prof)
    assert z.min_distance() == math.inf
    full = MTCode.full(prof)
    assert full.dim == 6
    assert full.min_distance() == 1
    assert z.is_subcode_of(full)
    assert full.intersect(z) == z


# -- work done once ----------------------------------------------------------


def _multiplicity(a: Poly, p: Poly) -> int:
    """v_p(a) for a nonzero a, by repeated exact division."""
    v = 0
    while (a % p).is_zero():
        a = a.exact_div(p)
        v += 1
    return v


def _power(p: Poly, k: int) -> Poly:
    out = Poly.one(p.field)
    for _ in range(k):
        out = out * p
    return out


def _count_calls(monkeypatch, owner, name):
    """Record the positional arguments of every call to owner.name."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


# N = 24 over GF(3), x^24 - 1 = (x^8 - 1)^3.  x - 1 divides x^3 - 1 and
# x^6 - 1 (two active blocks), x + 1 only x^6 - 1, x^2 + x + 2 and
# x^2 + 2x + 2 only x^4 + 1, and x^2 + 1 no block modulus.
MIXED_F3 = MTProfile(F3, (3, 4, 6), (1, 2, 1))
# N = 24 over GF(3) again, but no factor divides both x^3 - 1 and x^4 + 1.
SINGLE_F3 = MTProfile(F3, (3, 4), (1, 2))


def _layer_table_workout(prof: MTProfile, seed: int) -> None:
    """LCD tables of three codes and the trivial-intersection tables of
    their pairs."""
    rng = random.Random(seed)
    codes = [random_mt_code(rng, prof) for _ in range(3)]
    for code in codes:
        assert code.property_check("lcd", 0).table is not None
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert codes[i].trivial_intersection_evidence(codes[j]).target == codes[j].dim


def test_profile_factors_x_n_minus_1_once(monkeypatch):
    import mtcodes.mtcode as mtcode_mod

    calls = _count_calls(monkeypatch, mtcode_mod, "factor")
    prof = MTProfile(F3, MIXED_F3.blocks, MIXED_F3.shifts)  # fresh caches
    _layer_table_workout(prof, 7)
    assert len(calls) == 1
    assert prof.factorization.expand() == prof.annihilator()
    for p, _, active, _ in prof.factor_plan:
        assert [i for i, _ in active] == [i for i, m in enumerate(prof.moduli) if (m % p).is_zero()]
        assert all(v == _multiplicity(prof.moduli[i], p) for i, v in active)


@pytest.mark.parametrize(
    "prof, multi", [(MIXED_F3, 1), (MTProfile(F3, (4, 8), (1, 1)), 3)], ids=["mixed", "nested"]
)
def test_layer_tables_never_form_the_cofactor_product(monkeypatch, prof, multi):
    """A factor with two or more active blocks (MIXED_F3 has one, blocks
    4 8 have three) eliminates residues weighted by c_i mod p^f, so no
    table forms the degree-N product, and every entry `_chain_type` gets
    is a coefficient list already shorter than p^f."""
    import mtcodes.mtcode as mtcode_mod

    assert sum(len(active) > 1 for active in plan_activity(prof)) == multi
    products = _count_calls(monkeypatch, mtcode_mod, "_cofactor_product")
    eliminations = _count_calls(monkeypatch, mtcode_mod, "_chain_type")
    rng = random.Random(11)
    first, second = random_mt_code(rng, prof), random_mt_code(rng, prof)
    first.trivial_intersection_evidence(second)
    first.property_check("lcd", 0)
    assert products == []
    assert len(eliminations) == 2 * multi
    for m, p, mult in eliminations:
        assert all(len(e) <= mult * p.degree for row in m for e in row)


@pytest.mark.parametrize(
    "prof", [MIXED_F3, MTProfile(F3, (12, 25), (2, 2))], ids=["mixed", "long-period"]
)
def test_meet_and_subcode_never_form_the_cofactor_product(monkeypatch, prof):
    """`intersect` eliminates [[G2, 0], [G1, G1]] once, modulo the block
    moduli and seeded by G2, and `is_subcode_of` runs no elimination at
    all: neither forms the degree-N product (N = 600 for blocks 12 25).
    Every entry handed to the elimination has degree at most its column's
    modulus, and every entry it returns but a pivot less."""
    import mtcodes.mtcode as mtcode_mod

    rng = random.Random(17)
    first, second = random_mt_code(rng, prof), random_mt_code(rng, prof)
    products = _count_calls(monkeypatch, mtcode_mod, "_cofactor_product")
    stacks, real = [], pmat_mod._echelon

    def spy(field_, rows, n_cols, moduli=None, seeded=0):
        handed = [[e.degree for e in row] for row in rows]
        pivots = real(field_, rows, n_cols, moduli, seeded)
        stacks.append((handed, rows, moduli, pivots))
        return pivots

    monkeypatch.setattr(pmat_mod, "_echelon", spy)
    meet = first.intersect(second)
    assert len(stacks) == 1 and len(stacks[0][2]) == 2 * prof.ell
    first.is_subcode_of(second)
    assert meet.is_subcode_of(first) and meet.is_subcode_of(second)
    assert len(stacks) == 1
    assert products == []
    for handed, rows, moduli, pivots in stacks:
        degrees = [d.degree for d in moduli]
        assert all(e <= d for row in handed for e, d in zip(row, degrees))
        # a pivot may be the modulus itself, where the column holds nothing else
        assert all(
            rows[r][c].degree < d or (r, c) in pivots for r, row in enumerate(rows) for c, d in enumerate(degrees)
        )


# GF(3), shifts of order 1 and 2: N = lcm(7, 16, 9, 10, 11, 26) = 720720.
LONG_PERIOD = MTProfile(F3, (7, 8, 9, 5, 11, 13), (1, 2, 1, 2, 1, 2))


def test_long_period_meet_and_subcode_within_deadline():
    """Degrees stay below the block lengths whatever N is, so a meet and a
    subcode test on a period of 720720 take milliseconds; forming entries
    of degree N took seconds.  Both agree with the linear layer."""
    assert LONG_PERIOD.period == 720720 and LONG_PERIOD.n == 53
    rng = random.Random(23)
    first, second = random_mt_code(rng, LONG_PERIOD), random_mt_code(rng, LONG_PERIOD)
    start = time.perf_counter()
    meet = first.intersect(second)
    subcodes = [first.is_subcode_of(second), meet.is_subcode_of(first), meet.is_subcode_of(second)]
    assert time.perf_counter() - start < 0.25
    lin1, lin2 = first.to_linear(), second.to_linear()
    assert meet.to_linear() == lin1.intersect(lin2)
    assert subcodes == [all(lin2.contains_word(w) for w in lin1.gen), True, True]


def _support_codes(prof: MTProfile) -> dict:
    """Codes of one generator row, 1 + x on the named blocks and 0 on the
    rest, with the full code and the sum of the first two: "first" (blocks
    0 and 1) and "third" (block 2) have disjoint supports, and "lone"
    (block 0) lies in neither."""
    f = prof.field
    one_plus_x, zero = Poly(f, [1, 1]), Poly.zero(f)

    def on(*blocks):
        return MTCode(prof, [[one_plus_x if i in blocks else zero for i in range(prof.ell)]])

    codes = {"first": on(0, 1), "third": on(2), "lone": on(0), "full": MTCode.full(prof)}
    codes["sum"] = MTCode(prof, codes["first"].gpm.rows + codes["third"].gpm.rows)
    return codes


@pytest.mark.parametrize("base", [MIXED_F3, LONG_PERIOD], ids=["mixed", "long-period"])
def test_trivially_intersects_never_factors(monkeypatch, base):
    """The verdict is dim(C1 + C2) = dim C1 + dim C2: no factor of
    x^N - 1 and no chain-ring type, on N = 24 and on N = 720720, where
    factoring takes minutes.  One elimination when dim C1 + dim C2 <= n,
    none past that bound."""
    import mtcodes.mtcode as mtcode_mod

    prof = MTProfile(base.field, base.blocks, base.shifts)  # fresh caches
    codes = _support_codes(prof)
    factors = _count_calls(monkeypatch, mtcode_mod, "factor")
    chains = _count_calls(monkeypatch, mtcode_mod, "_chain_type")
    eliminations = _count_calls(monkeypatch, mtcode_mod, "hnf")
    pairs = [("first", "third"), ("lone", "first"), ("lone", "sum"), ("first", "full"), ("full", "sum")]
    verdicts, eliminated = [], []
    for x, y in pairs:
        a, b = codes[x], codes[y]
        before = len(eliminations)
        verdicts.append(a.trivially_intersects(b))
        eliminated.append(len(eliminations) - before)
        assert eliminated[-1] == (a.dim + b.dim <= prof.n)
    assert factors == [] and chains == []
    assert "factorization" not in prof.__dict__
    assert verdicts == [True, False, False, False, False]
    assert set(eliminated) == {0, 1}
    for (x, y), verdict in zip(pairs, verdicts):
        assert verdict == (codes[x].to_linear().intersect(codes[y].to_linear()).k == 0)


def test_trivial_intersection_at_and_below_the_dimension_bound():
    """Zero and full codes, an LCD code and a non-LCD code each with its
    Euclidean dual (k1 + k2 = n), a code meeting itself with 2k <= n, and
    criterion 5's trivial Galois pair: the sum's verdict, the paper's
    table and the meet agree in both orders."""
    prof = MIXED_F3
    assert prof.dual_profile() == prof
    zero, full = MTCode.zero(prof), MTCode.full(prof)
    cases = [(zero, zero, True), (zero, full, True), (full, full, False)]
    rng, duals = random.Random(29), {}
    while len(duals) < 2:
        code = random_mt_code(rng, prof)
        if 0 < code.dim < prof.n:
            duals.setdefault(code.property_check("lcd", 0).holds, code)
    assert set(duals) == {True, False}
    for lcd, code in duals.items():
        assert code.dim + code.dual().dim == prof.n
        cases.append((code, code.dual(), lcd))
    small = _support_codes(prof)["lone"]
    assert 0 < 2 * small.dim <= prof.n
    cases += [(small, small, False), (small, zero, True), (small, full, False)]
    cases.append((c1().galois_dual(1), c2(), True))
    for a, b, trivial in cases:
        check_trivial_intersection_routes(a, b, trivial)


SUM_FIELDS = (field(2), F3, f4(), field(3, 2), field(257), field(17, 2), field(2, 9))


@functools.cache
def _shifts_of_small_order(f: Field) -> tuple[int, ...]:
    """The nonzero elements whose order divides 84, so N stays below 1008."""
    return tuple(r for r in range(1, f.q) if f.pow(r, 84) == 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sum_verdict_agrees_with_the_table_and_the_meet(data):
    """Over table, prime and digit-loop fields: each code has 1-2 random
    polynomial rows, each entry a multiple of a random divisor of its
    block modulus, so dimensions range from 0 to n.  The sum's verdict
    in both orders, the paper's layer table and dim(C1 cap C2) = 0 agree,
    dim(C1 cap C2) = k1 + k2 - dim(C1 + C2), and the sum's rows are the
    reduced GPM of the stacked generators."""
    f = data.draw(st.sampled_from(SUM_FIELDS), label="field")
    ell = data.draw(st.integers(1, 3), label="ell")
    blocks = tuple(data.draw(st.integers(1, 4), label="block") for _ in range(ell))
    shifts = tuple(data.draw(st.sampled_from(_shifts_of_small_order(f)), label="shift") for _ in range(ell))
    prof = MTProfile(f, blocks, shifts)
    primes = [[] for _ in blocks]
    for p, _, active, _ in prof.factor_plan:
        for i, v in active:
            primes[i] += [p] * v
    coeff = st.integers(0, f.q - 1)

    def entry(label, m, ps):
        e = Poly(f, data.draw(st.lists(coeff, max_size=m), label=label))
        for p, keep in zip(ps, data.draw(st.lists(st.booleans(), min_size=len(ps), max_size=len(ps)))):
            if keep:
                e = e * p
        return e

    def rows(label):
        count = data.draw(st.integers(1, 2), label=f"{label} rows")
        return [[entry(label, m, ps) for m, ps in zip(blocks, primes)] for _ in range(count)]

    rows1, rows2 = rows("C1"), rows("C2")
    a, b = MTCode(prof, rows1), MTCode(prof, rows2)
    check_trivial_intersection_routes(a, b, a.intersect(b).dim == 0)
    assert a._sum_gpm_rows(b) == MTCode(prof, rows1 + rows2).gpm.rows


def test_derived_profiles_share_one_factoring(monkeypatch, cold_factor_memo):
    """A profile, its dual, Galois dual and reversal have one period N, and
    x^N - 1 is factored once for all of them."""
    import mtcodes.upoly as upoly

    runs = _count_calls(monkeypatch, upoly, "_binomial_factors")
    f4_ = f4()
    prof = MTProfile(f4_, (3, 6, 2), (1, f4_.parse_element("w"), 1))
    derived = [prof.dual_profile(), prof.galois_dual_profile(1), prof.reversed_profile()]
    assert {p.period for p in derived} == {prof.period}
    for other in derived:
        assert other.factorization.factors is prof.factorization.factors
    assert len(runs) == 1


def test_factor_valuations_match_divmod():
    for first, _ in _layer_table_cases():
        prof = first.profile
        assert plan_activity(prof) == reference_factor_valuations(prof)


ACTIVITY_FIELDS = (field(2), F3, f4(), field(3, 2), field(2, 4), field(17, 2))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_factor_valuations_from_root_orders_match_divmod(data):
    """Activity read off each factor's root order, against divmod: shifts
    of every order in table and table-free fields (order 3 in GF(4), 4 and
    8 in GF(9), 5 and 15 in GF(16), up to 288 in GF(17^2), each decided by
    a remainder), and block lengths divisible by the characteristic, so
    that x^N - 1 has repeated factors."""
    f = data.draw(st.sampled_from(ACTIVITY_FIELDS), label="field")
    c = f.p
    ell = data.draw(st.integers(1, 3), label="ell")
    lengths = sorted({1, 2, 3, 4, 5, 6, c, 2 * c, c * c})
    blocks = tuple(data.draw(st.sampled_from(lengths), label="block") for _ in range(ell))
    shifts = tuple(data.draw(st.integers(1, f.q - 1), label="shift") for _ in range(ell))
    prof = MTProfile(f, blocks, shifts)
    assume(prof.period <= 1200)
    assert plan_activity(prof) == reference_factor_valuations(prof)


@pytest.mark.parametrize(
    "base", [MIXED_F3, MTProfile(field(5), (8, 12), (1, 4))], ids=["mixed", "gf5"]
)
def test_factor_valuations_divide_nothing_for_shifts_of_order_at_most_2(monkeypatch, base):
    """With every shift of order 1 or 2, a factor's root order alone
    decides which block moduli it divides: building the plan takes no
    activity remainder and divides nothing.  A factor with no active
    block gets its shared (0, ..., 0) layer and no divisor row; one with
    an active block gets one row, p's for one active block and p^f's, by
    which each weight is reduced once, for two or more."""
    import mtcodes.mtcode as mtcode_mod

    prof = MTProfile(base.field, base.blocks, base.shifts)  # fresh caches
    assert max(prof.orders) <= 2
    activity, weights = _count_remainders(monkeypatch, mtcode_mod)
    quotients = _count_calls(monkeypatch, mtcode_mod, "_exact_quotient")
    rows = _count_calls(monkeypatch, mtcode_mod, "_divisor_row")
    plan = prof.factor_plan
    built = len(rows)
    assert activity == {} and quotients == []
    active = plan_activity(prof)
    assert active == reference_factor_valuations(prof)
    assert {len(a) for a in active} == {0, 1, 2}
    assert built == sum(1 for a in active if a)
    assert sum(weights.values()) == sum(len(a) for a in active if len(a) > 1)
    for p, f, a, how in plan:
        if not a:
            assert how == FactorLayer(p, f, (0,) * f)
        elif len(a) == 1:
            assert how == _divisor_row(p.field, p.coeffs)
        else:
            assert how[0] == _divisor_row(p.field, _power(p, f).coeffs)


def test_each_factor_row_is_built_once_per_profile(monkeypatch):
    """GF(7), blocks 2 3, shifts 2 1 (N = 6): 2 has order 3, so each factor
    with roots of order 3 or 6 takes a remainder by x^2 - 2.  x - 3 then
    has one active block and x - 4 two, with f = 1, so the row that
    decided activity is also the layer tables' divisor and the weights'
    p^f: no factor's `_divisor_row` is built twice.  Activity takes at
    most one remainder per factor and distinct block length."""
    import mtcodes.mtcode as mtcode_mod

    prof = MTProfile(field(7), (2, 3), (2, 1))
    rows = _count_calls(monkeypatch, mtcode_mod, "_divisor_row")
    activity, weights = _count_remainders(monkeypatch, mtcode_mod)
    plan = prof.factor_plan
    assert activity and all(n == 1 for n in activity.values())
    assert weights and set(weights) <= set(activity)
    active = plan_activity(prof)
    assert active == reference_factor_valuations(prof)
    by_factor = {p.coeffs: a for p, _, a, _ in plan}
    assert by_factor[(4, 1)] == ((0, 1),) and by_factor[(3, 1)] == ((0, 1), (1, 1))
    built = [tuple(cs) for _, cs in rows]
    assert len(built) == len(set(built)) and {(4, 1), (3, 1)} <= set(built)
    for p, f, a, how in plan:
        if not a:
            assert how == FactorLayer(p, f, (0,) * f)
        elif len(a) == 1:
            assert how == _divisor_row(p.field, p.coeffs)
        else:
            assert f == 1 and how[0] == _divisor_row(p.field, p.coeffs)


def _count_remainders(monkeypatch, owner):
    """Count the calls to owner._reduce per divisor, keyed by the divisor's
    degree and nonzero terms below its leading one, in two dicts.  The
    first holds activity's remainders: each reduces a monomial x^k with
    k >= 1, as a remainder is taken only when the root order d does not
    divide the block length.  The second holds every other call, such as
    the weights', whose constant term is kappa_i != 0."""
    activity, other = {}, {}
    real = owner._reduce

    def counting(f, cs, div):
        key = (div[0], tuple(div[2]))
        counts = activity if len(cs) > 1 and cs[-1] == 1 and not any(cs[:-1]) else other
        counts[key] = counts.get(key, 0) + 1
        return real(f, cs, div)

    monkeypatch.setattr(owner, "_reduce", counting)
    return activity, other


def test_activity_takes_one_remainder_per_factor_and_block_length(monkeypatch):
    """GF(7), blocks 2 2 3, shifts 2 4 1 (N = 6): 2 and 4 have order 3, so
    each factor with roots of order 3 or 6 decides both length-2 blocks
    from the one remainder x^2 mod p, compared with 2 and with 4."""
    import mtcodes.mtcode as mtcode_mod

    prof = MTProfile(field(7), (2, 2, 3), (2, 4, 1))
    assert prof.orders[:2] == (3, 3)
    activity, _ = _count_remainders(monkeypatch, mtcode_mod)
    active = plan_activity(prof)
    assert active == reference_factor_valuations(prof)
    assert len(activity) == 4 and all(n == 1 for n in activity.values())
    assert sum(len(a) for a in active) == 7


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_content_valuation_matches_repeated_divmod(data):
    """The valuation a = min(cap, v_p(e) over the entries) read off their
    content gcd(M, entries), M = w * p^cap with v_p(w) = 0: with the
    content 1 on the other side and f = cap + 1, `_single_block_type` is
    e_(1 + a).  Against repeated divmod, for any divisor p of degree 1-3:
    zero entries, multiples of p^k up to past the cap, every cap 0-4."""
    f = data.draw(st.sampled_from([field(2), F3, f4(), field(3, 2), field(257), field(17, 2)]), label="field")
    coeff = st.integers(0, f.q - 1)
    lead = st.integers(1, f.q - 1)
    p = Poly(f, data.draw(st.lists(coeff, min_size=1, max_size=3), label="p") + [data.draw(lead)])
    cap = data.draw(st.integers(0, 4), label="cap")

    def entry(label):
        base = Poly(f, data.draw(st.lists(coeff, max_size=4), label=label))
        return base * _power(p, data.draw(st.integers(0, cap + 1), label=f"{label} p-power"))

    entries = [entry(f"e{i}") for i in range(data.draw(st.integers(1, 3)))]

    def reference(e):
        v = 0
        while v < cap:
            e, r = divmod(e, p)
            if r:
                break
            v += 1
        return v

    unit = Poly(f, data.draw(st.lists(coeff, max_size=3), label="w") + [data.draw(lead)])
    assume(not (unit % p).is_zero())
    modulus = unit * _power(p, cap)
    g = _content(f, modulus.coeffs, entries)
    want = min([cap] + [reference(e) for e in entries])
    mult = cap + 1  # one layer above the cap, so h = 1 + a is always below f
    got = _single_block_type(f, (g, [1]), cap, _divisor_row(p.field, p.coeffs), mult)
    assert got == tuple(int(k == 1 + want) for k in range(mult))


# -- cofactors modulo p^f in closed form ---------------------------------------

WEIGHT_FIELDS = (
    field(2), F3, field(2, 2), field(5), field(3, 2), field(2, 4),
    field(257), field(17, 2), field(2, 9), field(3, 7), field(2, 17),
)


def _low_order_shifts(f: Field) -> list[int]:
    """1 and some elements of order dividing 2-6: a^((q-1)/o) for small a."""
    out = {1}
    for o in range(2, 7):
        if (f.q - 1) % o == 0:
            out.update(f.pow(a, (f.q - 1) // o) for a in range(2, min(f.q, 8)))
    return sorted(out)


def _weight_profiles():
    """Seeded profiles with char | N over every WEIGHT_FIELDS field, block
    lengths carrying different powers of the characteristic, N <= 600."""
    rng = random.Random(1818)
    for f in WEIGHT_FIELDS:
        c = f.p
        shifts = _low_order_shifts(f)
        lengths = [m for m in (1, 2, 3, 4, 6, c, 2 * c, 3 * c, c * c, 2 * c * c) if m <= 300]
        found = 0
        while found < 10:
            ell = rng.randint(2, 3)
            prof = MTProfile(f, tuple(rng.choice(lengths) for _ in range(ell)), tuple(rng.choice(shifts) for _ in range(ell)))
            if prof.period % c == 0 and prof.period <= 600 and any(len(a) > 1 for a in plan_activity(prof)):
                found += 1
                yield prof


def test_factor_weights_are_the_cofactors_modulo_p_f():
    """The weights of `MTProfile.factor_plan` (c_i mod p^f in closed form)
    against `cofactor_diag`'s degree-N cofactors reduced modulo p^f, p^f
    built by f - 1 products."""
    triples, sparse, fields = 0, 0, set()
    for prof in _weight_profiles():
        cofactors = cofactor_diag(prof)
        for p, mult, active, how in prof.factor_plan:
            if len(active) < 2:
                continue
            power = _power(p, mult)
            div, pairs = how
            assert div == _divisor_row(power.field, power.coeffs)
            assert [i for i, _ in pairs] == [i for i, _ in active]
            for (i, v), (_, w) in zip(active, pairs):
                assert Poly(prof.field, w) == cofactors[i, i] % power, (prof, p, i)
                triples += 1
                sparse += v < mult
                fields.add(prof.field.q)
    assert fields == {f.q for f in WEIGHT_FIELDS}
    assert triples >= 250 and sparse >= 100, (triples, sparse)


# -- layer tables against the full auxiliary product ---------------------------


def _layer_table_cases():
    rng = random.Random(29)
    for idx in range(24):
        yield sweep_pair(rng, idx)
    f4_ = f4()
    w = f4_.parse_element("w")
    big = field(17, 2)
    quartic = next(a for a in range(2, big.q) if big.mult_order(a) == 4)
    f9_, f16 = field(3, 2), field(2, 4)
    f9_quartic = next(a for a in range(2, f9_.q) if f9_.mult_order(a) == 4)
    f16_cubic = next(a for a in range(2, f16.q) if f16.mult_order(a) == 3)
    profiles = [
        MTProfile(F3, (3, 2, 6, 1), (1, 2, 1, 2)),  # p | N, ell = 4
        MTProfile(F3, (3, 3, 2, 2), (2, 1, 1, 2)),
        MTProfile(f4_, (2, 4, 3, 2), (1, w, f4_.inv(w), 1)),
        MTProfile(field(2), (4, 6, 2, 3), (1, 1, 1, 1)),
        MTProfile(field(257), (4, 2, 3), (256, 16, 1)),
        MTProfile(big, (2, 3), (quartic, big.inv(quartic))),
        MTProfile(field(5), (5, 2, 10), (1, 4, 1)),  # N = 20, f = 5
        MTProfile(f9_, (3, 6, 2), (1, f9_quartic, 2)),  # N = 24, f = 3
        MTProfile(f16, (2, 4, 3), (1, f16_cubic, 1)),  # N = 12, f = 4
    ]
    for prof in profiles:
        for _ in range(2):
            yield random_mt_code(rng, prof), random_mt_code(rng, prof)


def test_layer_tables_match_the_full_product():
    seen_chains = 0
    for first, second in _layer_table_cases():
        prof = first.profile
        seen_chains += any(m > 1 for _, m in prof.factorization)
        for a, b in ((first, second), (second, first)):
            table = a.trivial_intersection_evidence(b)
            want = reference_layer_types(a.companion.transpose(), b.gpm.transpose(), prof)
            assert layer_types(table) == want
        for code in (first, second):
            for kappa in range(prof.field.e):
                table = code.property_check("lcd", kappa).table
                if table is None:
                    continue
                left = reciprocal_columns(code.gpm, prof).frobenius(prof.field.e - kappa)
                want = reference_layer_types(left, code.gpm.transpose(), prof)
                assert layer_types(table) == want
    assert seen_chains >= 20


def test_layer_table_eliminates_once_per_active_factor(monkeypatch):
    import mtcodes.mtcode as mtcode_mod

    calls = _count_calls(monkeypatch, mtcode_mod, "_chain_type")
    prof = MIXED_F3
    fac = prof.factorization
    active = [sum((m % p).is_zero() for m in prof.moduli) for p, _ in fac]
    multi = [p for (p, _), n in zip(fac, active) if n >= 2]
    assert 0 < len(multi) < sum(n > 0 for n in active)
    rng = random.Random(3)
    first, second = random_mt_code(rng, prof), random_mt_code(rng, prof)
    first.trivial_intersection_evidence(second)
    assert [p for _, p, _ in calls] == multi
    calls.clear()
    first.property_check("lcd", 0)
    assert [p for _, p, _ in calls] == multi


def test_single_block_factors_need_no_cofactor_or_elimination(monkeypatch):
    import mtcodes.mtcode as mtcode_mod

    fac = SINGLE_F3.factorization
    active = [sum((m % p).is_zero() for m in SINGLE_F3.moduli) for p, _ in fac]
    assert max(active) == 1 and sum(active) >= 3
    eliminations = _count_calls(monkeypatch, mtcode_mod, "_chain_type")
    products = _count_calls(monkeypatch, mtcode_mod, "_cofactor_product")
    _layer_table_workout(MTProfile(F3, SINGLE_F3.blocks, SINGLE_F3.shifts), 7)
    assert eliminations == [] and products == []


def _check_outer_product(f: Field, p: Poly, mult: int, u, v, c: Poly) -> None:
    """`_single_block_type` of the contents of u and v with a modulus M of
    valuation mult - h, h = min(v_p(c), mult), against chain_type of the
    explicit product u_a * c * v_b modulo p^mult."""
    power = _power(p, mult)
    full = PolyMatrix(f, [[(a * c * b) % power for b in v] for a in u])
    h = min(_multiplicity(c, p), mult) if c else mult
    unit = next(w for w in (Poly(f, [a, 1]) for a in range(f.q)) if not (w % p).is_zero())
    modulus = (unit * _power(p, mult - h)).coeffs
    contents = (_content(f, modulus, u), _content(f, modulus, v))
    got = _single_block_type(f, contents, mult - h, _divisor_row(p.field, p.coeffs), mult)
    assert got == chain_type(full, p, mult).type_vector


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_single_block_type_is_the_outer_product_type(data):
    f = data.draw(st.sampled_from([field(2), F3, f4(), field(5)]), label="field")
    coeff = st.integers(0, f.q - 1)
    p = Poly(f, data.draw(st.lists(coeff, min_size=1, max_size=3), label="p") + [1])
    assume(is_irreducible(p))
    mult = data.draw(st.integers(1, 4), label="f")

    def entry(label):
        base = Poly(f, data.draw(st.lists(coeff, max_size=4), label=label))
        return base * _power(p, data.draw(st.integers(0, mult + 1), label=f"{label} p-power"))

    u = [entry("u") for _ in range(data.draw(st.integers(1, 3)))]
    v = [entry("v") for _ in range(data.draw(st.integers(1, 3)))]
    unit = Poly(f, data.draw(st.lists(coeff, max_size=3), label="c") + [data.draw(st.integers(1, f.q - 1))])
    c = unit * _power(p, data.draw(st.integers(0, mult), label="c p-power"))
    _check_outer_product(f, p, mult, u, v, c)


def test_outer_product_type_edge_cases():
    p = poly(F3, "1 + x^2")  # irreducible over GF(3)
    zero, one = Poly.zero(F3), Poly.one(F3)
    p2 = p * p
    cases = [
        ([zero, zero], [one, poly(F3, "x")], one),  # u = 0
        ([one], [zero, zero, zero], one),  # v = 0
        ([p, p2], [poly(F3, "x"), p], one),  # u divisible by p: type e_1
        ([one], [p2, p * poly(F3, "2 + x")], p),  # c and v divisible by p
        ([p], [p], p),  # p^3 with f = 3: zero
        ([one, p], [one], p2 * p),  # c = p^f: zero
    ]
    for u, v, c in cases:
        for mult in (1, 2, 3, 4):
            _check_outer_product(F3, p, mult, u, v, c)


def test_construction_runs_one_elimination(monkeypatch):
    import mtcodes.pmat as pmat_mod

    calls = 0
    real_echelon = pmat_mod._echelon

    def counting_echelon(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_echelon(*args, **kwargs)

    monkeypatch.setattr(pmat_mod, "_echelon", counting_echelon)
    prof = MTProfile(F3, (3, 4, 2), (1, 2, 2))
    rng = random.Random(5)
    first = random_mt_code(rng, prof)
    assert calls == 1
    second = random_mt_code(rng, prof)
    calls = 0
    first.intersect(second)
    assert calls == 1
    calls = 0
    first.intersection_details(second)
    assert calls == 2


def test_dim_reads_the_gpm_diagonal():
    rng = random.Random(11)
    for idx in range(60):
        for code in sweep_pair(rng, idx):
            assert code.dim == deg_det(code.companion)
            assert code.dual().dim == deg_det(code.dual().companion)


def test_to_linear_expands_dim_rows(monkeypatch):
    import mtcodes.lincode as lincode_mod

    f = field(257)
    prof = MTProfile(f, (7, 8, 9), (3, 3, 3))
    assert prof.period == 129024
    rows = [
        [Poly.parse(f, "5 + x"), Poly.zero(f), Poly.parse(f, "226 + 45*x + x^2")],
        [Poly.zero(f), Poly.zero(f), Poly.parse(f, "212 + x")],
    ]
    code = MTCode(prof, rows)
    fed = []
    real = lincode_mod.rref

    def spy(field_, rows_):
        fed.append(len(rows_))
        return real(field_, rows_)

    monkeypatch.setattr(lincode_mod, "rref", spy)
    lin = code.to_linear()
    assert (code.n, code.dim) == (24, 15)
    # the systematic rows are built in RREF: no rref, and exactly dim rows
    assert fed == [] and len(lin.gen) == lin.k == code.dim
    assert lin._pivots == tuple(range(6)) + tuple(range(15, 24))


def test_c6_distance_enumerates_rounds_up_to_the_stopping_bound(monkeypatch):
    """Each further information set costs one rref of the k x n generator,
    at most k^2 row updates; a failed attempt costs as much.  Round w costs
    one add_scaled per word and prefix on each of the m sets, at most
    sum_{j <= w} C(k, j) (q - 1)^(j - 1), and no round after W = d // m
    starts, as m (W + 1) > d.  For C6, m = 2, W = 2: 220 calls, against
    (9^5 - 1)/8 = 7381 for one word per projective point."""
    lin = c6().to_linear()
    k, q, d = lin.k, lin.field.q, 5
    m = len(list(lin._systematic_generators()))
    stop = d // m
    rounds = sum(math.comb(k, j) * (q - 1) ** (j - 1)
                 for w in range(2, stop + 1) for j in range(1, w + 1))
    bound = m * k * k + m * rounds
    assert (m, stop, bound) == (2, 2, 220)
    calls = 0
    real = Field.add_scaled

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return real(self, *args)

    monkeypatch.setattr(Field, "add_scaled", counting)
    assert lin.min_distance() == d
    assert 0 < calls <= bound


def test_min_distance_checks_budget_before_expanding(monkeypatch):
    code = c6()

    def unexpected(self):
        raise AssertionError("to_linear called for a walk over budget")

    monkeypatch.setattr(MTCode, "to_linear", unexpected)
    with pytest.raises(BudgetError):
        code.min_distance(budget=9**5 - 1)


# -- the blockwise cofactor product --------------------------------------------

PRODUCT_FIELDS = (field(2), F3, field(2, 2), field(3, 2), field(17, 2), field(257))


def _shifts_by_order(f: Field, max_order: int = 8) -> dict[int, list[int]]:
    """The nonzero elements of f of order at most max_order, by order."""
    out: dict[int, list[int]] = {}
    for a in range(1, f.q):
        o = f.mult_order(a)
        if o <= max_order:
            out.setdefault(o, []).append(a)
    return out


SHIFTS_BY_ORDER = {f.q: _shifts_by_order(f) for f in PRODUCT_FIELDS}


@st.composite
def cofactor_cases(draw):
    """A profile with small period, and matrices whose left entries reach
    past the block lengths (unreduced companions)."""
    f = draw(st.sampled_from(PRODUCT_FIELDS))
    by_order = SHIFTS_BY_ORDER[f.q]
    ell = draw(st.integers(1, 3))
    blocks = tuple(draw(st.integers(1, 5)) for _ in range(ell))
    shifts = tuple(draw(st.sampled_from(by_order[draw(st.sampled_from(sorted(by_order)))])) for _ in range(ell))
    prof = MTProfile(f, blocks, shifts)
    assume(prof.period <= 240)

    def entry(max_deg):
        return Poly(f, draw(st.lists(st.integers(0, f.q - 1), max_size=max_deg + 1)))

    n_rows, n_cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    left = PolyMatrix(f, [[entry(2 * m + 1) for m in blocks] for _ in range(n_rows)])
    right = PolyMatrix(f, [[entry(m + 2) for _ in range(n_cols)] for m in blocks])
    return prof, left, right


@given(cofactor_cases())
@settings(max_examples=150, deadline=None)
def test_cofactor_product_matches_the_degree_n_product(case):
    prof, left, right = case
    got = _cofactor_product(left, right, prof)
    assert got == cofactor_product_reference(left, right, prof)
    assert all(e.degree < prof.period for row in got.rows for e in row)


@pytest.mark.parametrize("f", PRODUCT_FIELDS, ids=lambda f: f"q{f.q}")
def test_cofactor_product_on_twisted_blocks(f):
    """A shift of the largest order up to 8 (order > 1 beyond GF(2)) and
    left entries past the block lengths."""
    by_order = SHIFTS_BY_ORDER[f.q]
    lam = by_order[max(by_order)][0]
    prof = MTProfile(f, (3, 2, 3), (lam, f.inv(lam), lam))
    rng = random.Random(f.q)

    def entry(deg):
        return Poly(f, [rng.randrange(f.q) for _ in range(deg + 1)])

    left = PolyMatrix(f, [[entry(2 * m + 1) for m in prof.blocks] for _ in range(2)])
    right = PolyMatrix(f, [[entry(m) for _ in range(3)] for m in prof.blocks])
    assert any(e.degree >= m for row in left.rows for e, m in zip(row, prof.blocks))
    assert _cofactor_product(left, right, prof) == cofactor_product_reference(left, right, prof)


def test_congruences_divide_by_no_degree_n_polynomial(monkeypatch):
    """The subcode and Galois self-orthogonality tests reduce only modulo the
    block moduli, never modulo x^N - 1.  `upoly` and `pmat` are the modules
    that bind `_long_divide`, and every division in the package goes
    through one of them."""
    import mtcodes.upoly as upoly

    prof = MTProfile(F3, (12, 25), (2, 2))  # N = lcm(24, 50) = 600
    assert prof.period >= 300
    rng = random.Random(11)
    first, second = random_mt_code(rng, prof, max_rows=3), random_mt_code(rng, prof, max_rows=3)
    divisors = []
    real = upoly._long_divide

    def recording(f, rem, div):
        divisors.append(div[0])
        return real(f, rem, div)

    for owner in (upoly, pmat_mod):
        monkeypatch.setattr(owner, "_long_divide", recording)
    first.is_subcode_of(second)
    first.property_check("self_orthogonal", 0)
    assert divisors
    assert prof.period not in divisors


# -- LCD and trivial intersection by two routes, beyond the oracle ------------

CROSS_FIELDS = (field(2, 4), field(5, 2), field(257), field(17, 2), field(2, 9))


def _cross_route_codes(rng: random.Random, f: Field):
    """(code, kappa) pairs over f: random codes with 0 < k < n whose shifts
    meet the kappa-Galois precondition, and codes <(x - a, 0)> with a of
    order at least 3 in a block x^m - 1, a^m = 1, which are not LCD for
    kappa = 0 (their hull is the code of x^m - 1 over x - a^-1)."""
    out = []
    while len(out) < 12:
        kappa = rng.randrange(f.e)
        shifts = [s for s in range(1, f.q) if f.frobenius(f.inv(s), f.e - kappa) == s]
        ell = rng.randint(1, 3)
        prof = MTProfile(f, [rng.randint(1, 12) for _ in range(ell)], [rng.choice(shifts) for _ in range(ell)])
        if prof.period > 400:
            continue
        code = random_mt_code(rng, prof, max_rows=ell)
        if 0 < code.dim < code.n:
            out.append((code, kappa))
    a = next(a for a in range(2, f.q) if 3 <= f.mult_order(a) <= 9)
    m = f.mult_order(a)
    prof = MTProfile(f, (m, rng.randint(1, 4)), (1, 1))
    out.append((MTCode(prof, [[Poly(f, [f.neg(a), 1]), Poly.zero(f)]]), 0))
    return out


def test_lcd_and_trivial_intersection_routes_agree_beyond_the_oracle():
    """Over GF(16), GF(25), GF(257), GF(17^2) and GF(2^9), too large to
    enumerate: the layer table's kappa-LCD verdict equals
    C.trivially_intersects(C.galois_dual(kappa)), and the verdict of
    `trivial_intersection_evidence` equals `trivially_intersects`, for
    the pair (C, its Galois dual) and for C with another code of its
    profile, one sharing C's first row half the time."""
    rng = random.Random(17)
    lcd, pairs = [], []
    for f in CROSS_FIELDS:
        for code, kappa in _cross_route_codes(rng, f):
            prof = code.profile
            dual = code.galois_dual(kappa)
            holds = code.property_check("lcd", kappa).holds
            assert holds == code.trivially_intersects(dual), (f.q, prof, kappa)
            assert code.trivial_intersection_evidence(dual).verdict == holds
            other = random_mt_code(rng, prof, max_rows=1)
            if rng.random() < 0.5:
                other = MTCode(prof, [code.gpm.rows[0], *other.gpm.rows[:1]])
            trivial = code.trivially_intersects(other)
            assert code.trivial_intersection_evidence(other).verdict == trivial, (f.q, prof)
            lcd.append(holds)
            pairs.append(trivial)
    assert lcd.count(False) >= 10 and lcd.count(True) >= 30
    assert pairs.count(False) >= 10 and pairs.count(True) >= 10


def _identity_code(rng: random.Random, f: Field, kappa: int) -> MTCode:
    """A code over f with 0 < k < n, N <= 400 and shifts meeting the
    kappa-Galois precondition; its profile is palindromic half the time,
    and the code is a random one, its meet with its Galois dual, or its sum
    with that dual, a third of the time each."""
    shifts = [s for s in range(1, f.q) if f.frobenius(f.inv(s), f.e - kappa) == s]
    while True:
        ell = rng.randint(1, 3)
        blocks = [rng.randint(1, 12) for _ in range(ell)]
        lams = [rng.choice(shifts) for _ in range(ell)]
        if rng.random() < 0.5:
            for i in range(ell // 2):
                blocks[ell - 1 - i], lams[ell - 1 - i] = blocks[i], f.inv(lams[i])
            if ell % 2:
                lams[ell // 2] = rng.choice((1, f.neg(1)))
        prof = MTProfile(f, blocks, lams)
        if prof.period > 400:
            continue
        code = random_mt_code(rng, prof, max_rows=ell)
        variant = rng.randrange(3)
        if variant == 1:
            code = code.intersect(code.galois_dual(kappa))
        elif variant == 2:
            code = MTCode(prof, code.gpm.rows + code.galois_dual(kappa).gpm.rows)
        if 0 < code.dim < code.n:
            return code


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_paper_equivalences_hold_beyond_the_oracle(seed):
    """Over GF(16), GF(25), GF(257), GF(17^2) and GF(2^9), too large to
    enumerate, each verdict the paper states as an equivalence equals its
    other route: the congruence for kappa-self-orthogonality equals
    C <= C^(perp kappa), the one for dual-containment C^(perp kappa) <= C,
    and on a palindromic profile the reversibility congruence
    C.reversed_code() == C, where the meet of reduced GPMs C cap rev C is
    the linear meet `reversibility()[1]`; reversal and the Euclidean dual
    are involutions, and from_linear(to_linear(C)) == C."""
    rng = random.Random(seed)
    f = CROSS_FIELDS[seed % len(CROSS_FIELDS)]
    kappa = rng.randrange(f.e)
    code = _identity_code(rng, f, kappa)
    dual = code.galois_dual(kappa)
    assert code.property_check("self_orthogonal", kappa).holds == code.is_subcode_of(dual)
    assert code.property_check("dual_containing", kappa).holds == dual.is_subcode_of(code)
    rev = code.reversed_code()
    if code.profile.reversed_profile() == code.profile:
        assert code.property_check("reversible").holds == (rev == code)
        assert code.intersect(rev).to_linear() == code.to_linear().reversibility()[1]
    assert rev.reversed_code() == code and code.dual().dual() == code
    assert MTCode.from_linear(code.profile, code.to_linear()) == code


# -- the reported (Q, P) pair against the paper's route -----------------------

# Dense tables, a large prime field, log tables and base-p digit loops; every
# element of GF(2^17) but 1 has order 2^17 - 1, so its shifts are all 1.
PAPER_ROUTE_FIELDS = (
    field(2), F3, field(2, 2), field(3, 2), field(2, 4), field(257), field(17, 2), field(2, 9), field(2, 17),
)


def _paper_route_code(rng: random.Random, prof: MTProfile) -> MTCode:
    """The zero code, the full code, or a random code of prof."""
    kind = rng.randrange(6)
    if kind == 0:
        return MTCode.zero(prof)
    if kind == 1:
        return MTCode.full(prof)
    return random_mt_code(rng, prof)


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_reported_pair_is_the_paper_routes(seed):
    """`intersection_details`, `galois_intersection_details` for every
    kappa and `galois_hull_details` give the code, Q and P of the paper's
    route (`paper_intersection_details`: the cofactor product, its GPM
    pair modulo x^N - 1, and the code of P^T @ G2), and
    dim Q = ell N - sum deg Q_ii = dim C2 - dim(C1 cap C2).  Shifts have
    order dividing gcd(q - 1, 840) and are +-1 half the time, so hulls
    occur, and N stays at most 600."""
    rng = random.Random(seed)
    f = PAPER_ROUTE_FIELDS[seed % len(PAPER_ROUTE_FIELDS)]
    h = math.gcd(f.q - 1, 840)
    while True:
        ell = rng.randint(1, 3)
        if rng.random() < 0.5:
            shifts = [rng.choice((1, f.neg(1))) for _ in range(ell)]
        else:
            shifts = [f.pow(rng.randrange(1, f.q), (f.q - 1) // h) for _ in range(ell)]
        prof = MTProfile(f, [rng.randint(1, 6) for _ in range(ell)], shifts)
        if prof.period <= 600:
            break
    first, second = _paper_route_code(rng, prof), _paper_route_code(rng, prof)
    cases = [(first.intersection_details(second), first, second, None)]
    for kappa in range(f.e):
        other = _paper_route_code(rng, prof.galois_dual_profile(kappa))
        cases.append((first.galois_intersection_details(other, kappa), first, other, kappa))
        if prof.galois_dual_profile(kappa) == prof:
            cases.append((first.galois_hull_details(kappa), first, first, kappa))
        else:
            with pytest.raises(DomainError):
                first.galois_hull_details(kappa)
    for details, a, b, kappa in cases:
        assert details == paper_intersection_details(a, b, kappa)
        qc_dim = prof.ell * prof.period - sum(row[i].degree for i, row in enumerate(details.qc_gpm.rows))
        assert qc_dim == b.dim - details.code.dim
