"""Polynomial matrices: HNF invariants, determinants, GPM reduction, chain types."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtcodes.mtcode as mtcode_mod
from mtcodes import Poly, PolyMatrix, chain_type, deg_det, field, hnf, rank_mod
from mtcodes.mtcode import _cofactor_product
from mtcodes.pmat import _chain_type
from mtcodes.upoly import NEG_INF, is_irreducible

from helpers import (
    _gpm_pair,
    backward_identity,
    det,
    express_in_row_module,
    f4,
    pmat,
    poly,
    reduce_to_gpm,
    reference_chain_type,
    small_dim_pair,
    solve_identical,
    sweep_pair,
)


F3 = field(3)


def rand_matrix(rng, f, r, c, max_deg=3):
    rows = [
        [Poly(f, [rng.randrange(f.q) for _ in range(rng.randint(0, max_deg + 1))]) for _ in range(c)]
        for _ in range(r)
    ]
    return PolyMatrix(f, rows)


def assert_is_hnf(h, pivots):
    seen_cols = []
    for r, c in pivots:
        piv = h.rows[r][c]
        assert piv.lead == 1
        # echelon: everything left of the pivot in this row is zero
        for j in range(c):
            assert h.rows[r][j].is_zero()
        # entries above have strictly smaller degree
        for i in range(r):
            e = h.rows[i][c]
            assert e.is_zero() or e.degree < piv.degree
        # entries below are zero
        for i in range(r + 1, h.shape[0]):
            assert h.rows[i][c].is_zero()
        seen_cols.append(c)
    assert seen_cols == sorted(seen_cols)
    # rows past the last pivot vanish
    for i in range(len(pivots), h.shape[0]):
        assert all(e.is_zero() for e in h.rows[i])


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_hnf_invariants(seed):
    rng = random.Random(seed)
    f = [F3, f4()][seed % 2]
    m = rand_matrix(rng, f, rng.randint(1, 4), rng.randint(1, 4))
    res = hnf(m)
    assert res.transform @ m == res.h
    assert_is_hnf(res.h, res.pivots)
    # transform is unimodular: constant nonzero determinant
    assert deg_det(res.transform) == 0
    # idempotence: HNF of the HNF is itself
    assert hnf(res.h).h == res.h


def test_hnf_uniqueness_under_row_ops():
    f = f4()
    m = pmat(f, [["1 + x", "w"], ["x^2", "w^2 + x"]])
    # same row module, shuffled and mixed rows
    r0, r1 = m.rows
    mixed = PolyMatrix(f, [
        [a + b for a, b in zip(r0, r1)],
        list(r1),
    ])
    assert hnf(m).h == hnf(mixed).h


def test_deg_det_and_det_agree():
    rng = random.Random(7)
    for _ in range(40):
        f = [F3, f4()][rng.randrange(2)]
        m = rand_matrix(rng, f, 3, 3, max_deg=2)
        d = det(m)
        if d.is_zero():
            assert deg_det(m) == NEG_INF
        else:
            assert deg_det(m) == d.degree


def test_det_multiplicative():
    rng = random.Random(11)
    f = f4()
    for _ in range(20):
        a = rand_matrix(rng, f, 3, 3, max_deg=2)
        b = rand_matrix(rng, f, 3, 3, max_deg=2)
        assert det(a @ b) == det(a) * det(b)


def test_express_in_row_module():
    f = F3
    m = pmat(f, [["1 + x", "x"], ["0", "2 + x^2"]])
    res = hnf(m)
    target = [poly(f, "1 + x"), poly(f, "x")]
    cs = express_in_row_module(res, target)
    assert cs[0] == Poly.one(f) and cs[1].is_zero()
    # 2 * row0 + x * row1
    combo = [poly(f, "2 + 2*x"), poly(f, "x + x^3")]
    cs = express_in_row_module(res, combo)
    acc = [Poly.zero(f), Poly.zero(f)]
    for c, row in zip(cs, m.rows):
        acc = [a + c * e for a, e in zip(acc, row)]
    assert acc == combo
    with pytest.raises(ValueError):
        express_in_row_module(res, [Poly.one(f), Poly.zero(f)])


def test_every_export_resolves():
    """`from mtcodes import *` binds every name in `mtcodes.__all__`, so an
    export of a moved or deleted name fails here."""
    import mtcodes

    namespace: dict = {}
    exec("from mtcodes import *", namespace)
    assert set(mtcodes.__all__) <= set(namespace)


def test_reduce_to_gpm_requires_diagonal_membership():
    f = F3
    moduli = [Poly.binomial(f, 3, 1), Poly.binomial(f, 3, 1)]
    stack = PolyMatrix.stack(
        pmat(f, [["1 + x", "2"]]),
        PolyMatrix.diagonal(moduli),
    )
    g = reduce_to_gpm(stack, moduli)
    assert g.shape == (2, 2)
    a = solve_identical(g, moduli)
    assert a @ g == PolyMatrix.diagonal(moduli)
    # a bare row without the diagonal is not a valid generating stack
    with pytest.raises(ValueError):
        reduce_to_gpm(pmat(f, [["1 + x", "2"]]), moduli)


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_gpm_companion_round_trip(seed):
    rng = random.Random(seed)
    f = [F3, f4()][seed % 2]
    ell = rng.randint(1, 3)
    moduli = [Poly.binomial(f, rng.randint(1, 3), rng.choice(range(1, f.q))) for _ in range(ell)]
    extra = rand_matrix(rng, f, rng.randint(0, 2), ell, max_deg=2)
    stack = PolyMatrix.stack(extra, PolyMatrix.diagonal(moduli))
    g = reduce_to_gpm(stack, moduli)
    a = solve_identical(g, moduli)
    assert a @ g == PolyMatrix.diagonal(moduli)
    # dimension identity: deg det A + deg det G = sum of block degrees
    assert deg_det(a) + deg_det(g) == sum(m.degree for m in moduli)


def reference_gpm_pair(stack, moduli):
    """Reference GPM pair: G from the transform-tracking `hnf` of the whole
    stack, without modular reduction, and A from one membership solve per
    diagonal row."""
    ell = len(moduli)
    g = PolyMatrix(stack.field, hnf(stack).h.rows[:ell])
    res = hnf(g)
    zero = Poly.zero(stack.field)
    rows = []
    for i, d in enumerate(moduli):
        v = [zero] * ell
        v[i] = d
        rows.append(express_in_row_module(res, v))
    return g, PolyMatrix(stack.field, rows)


def recorded_gpm_stacks(monkeypatch, build):
    """Every (stack, moduli, G, A) the code layer reduces while build()
    runs: the (Q, P) pair of every `intersection_details` result, with the
    paper's quasi-cyclic stack [A1^T @ diag(c_i) @ G2^T; diag(x^N - 1)] it
    stands for, and the stack of every `MTCode` construction
    (constructions, duals, the codes read off P^T G2), with the code's GPM
    and its companion, which is back-substituted when first read, here
    after build()."""
    seen, built = [], []
    real_details, real_init = mtcode_mod.MTCode.intersection_details, mtcode_mod.MTCode.__init__

    def details_spy(self, other):
        out = real_details(self, other)
        prof = self.profile
        top = _cofactor_product(self.companion.transpose(), other.gpm.transpose(), prof)
        moduli = [prof.annihilator()] * prof.ell
        seen.append((PolyMatrix.stack(top, PolyMatrix.diagonal(moduli)), moduli, out.qc_gpm, out.qc_companion))
        return out

    def init_spy(self, profile, rows=()):
        real_init(self, profile, rows)
        top = rows.rows if isinstance(rows, PolyMatrix) else rows
        built.append((PolyMatrix(profile.field, [list(r) for r in top]), self))

    monkeypatch.setattr(mtcode_mod.MTCode, "intersection_details", details_spy)
    monkeypatch.setattr(mtcode_mod.MTCode, "__init__", init_spy)
    build()
    monkeypatch.undo()
    for top, code in built:
        moduli = list(code.profile.moduli)
        seen.append((PolyMatrix.stack(top, PolyMatrix.diagonal(moduli)), moduli, code.gpm, code.companion))
    return seen


def sweep_and_large_field_codes():
    rng = random.Random(404)
    for idx in range(24):
        c1, c2 = sweep_pair(rng, idx)
        c1.intersect(c2)
        c1.intersection_details(c2)
        c1.galois_dual(rng.randrange(c1.field.e))
        c1.reversed_code()
    for f in (field(257), field(17, 2)):
        for _ in range(3):
            c1, c2 = small_dim_pair(rng, f)
            c1.intersect(c2)
            c1.intersection_details(c2)
            c1.dual()


def test_gpm_pair_matches_transform_hnf_reference(monkeypatch):
    seen = recorded_gpm_stacks(monkeypatch, sweep_and_large_field_codes)
    # Blocks have length at most 4, so a modulus of higher degree is the
    # x^N - 1 of an intersection's quasi-cyclic stack.
    qc_stacks = [s for s in seen if s[1][0].degree > 4]
    assert len(seen) >= 150 and len(qc_stacks) > 10
    for stack, moduli, g, a in seen:
        ref_g, ref_a = reference_gpm_pair(stack, moduli)
        assert reduce_to_gpm(stack, moduli) == g == ref_g
        assert solve_identical(g, moduli) == a == ref_a


def test_reversed_pair_is_the_gpm_pair_of_the_reversed_stack(monkeypatch):
    """A reversed code's GPM and companion, read off the dual pair, are what
    `reduce_to_gpm` and `solve_identical` give for the stack
    [B^T @ J; diag(reversed moduli)], B the dual's companion, for every code
    that sweep_and_large_field_codes constructs."""
    codes = []
    real = mtcode_mod.MTCode.__init__

    def spy(self, profile, rows=()):
        real(self, profile, rows)
        codes.append(self)

    monkeypatch.setattr(mtcode_mod.MTCode, "__init__", spy)
    sweep_and_large_field_codes()
    monkeypatch.undo()
    assert len(codes) > 100
    for code in codes:
        prof = code.profile.reversed_profile()
        j = backward_identity(code.field, prof.ell)
        stack = PolyMatrix.stack(code.dual().companion.transpose() @ j, PolyMatrix.diagonal(prof.moduli))
        g = reduce_to_gpm(stack, prof.moduli)
        rev = code.reversed_code()
        assert rev.profile == prof
        assert rev.gpm == g
        assert rev.companion == solve_identical(g, prof.moduli)


def test_gpm_reduction_ignores_degree_beyond_the_block():
    f = F3
    moduli = [Poly.binomial(f, 3, 2), Poly.binomial(f, 4, 1)]
    big = Poly(f, [1] + [0] * 499 + [1])  # 1 + x^500
    top = [[big, big * poly(f, "2 + x")], [poly(f, "x^7"), big.shift(3)]]
    reduced = [[e % d for e, d in zip(row, moduli)] for row in top]
    diag = PolyMatrix.diagonal(moduli)
    g = reduce_to_gpm(PolyMatrix.stack(PolyMatrix(f, top), diag), moduli)
    assert g == reduce_to_gpm(PolyMatrix.stack(PolyMatrix(f, reduced), diag), moduli)
    assert max(e.degree for row in g.rows for e in row) <= 4
    assert solve_identical(g, moduli) @ g == diag


def test_solve_identical_on_a_non_triangular_gpm():
    f = F3
    moduli = [Poly.binomial(f, 3, 1), Poly.binomial(f, 2, 2)]
    stack = PolyMatrix.stack(pmat(f, [["1 + x", "2 + x"]]), PolyMatrix.diagonal(moduli))
    g = reduce_to_gpm(stack, moduli)
    lower = pmat(f, [["1", "0"], ["x", "1"]])
    mixed = lower @ g
    assert not mixed.rows[1][0].is_zero()
    ref_g, ref_a = reference_gpm_pair(PolyMatrix.stack(mixed, PolyMatrix.diagonal(moduli)), moduli)
    a = solve_identical(mixed, moduli)
    assert a @ mixed == PolyMatrix.diagonal(moduli)
    # a @ lower solves the identical equation for g itself
    assert ref_g == g and a @ lower == ref_a


def test_hnf_over_moduli_is_the_hnf_of_the_stack():
    f = F3
    moduli = [Poly.binomial(f, 3, 1), Poly.binomial(f, 2, 2)]
    top = pmat(f, [["1 + x^5", "2 + x"], ["x^4", "x^3"]])
    res = hnf(top, moduli, transform=False)
    full = hnf(PolyMatrix.stack(top, PolyMatrix.diagonal(moduli)))
    assert res.h == full.h and res.pivots == full.pivots
    assert res.transform is None
    with pytest.raises(ValueError):
        hnf(top, moduli)


# Dense tables (GF(2), GF(3), GF(4), GF(9)), a large prime field, log tables
# (GF(17^2), GF(2^9)) and base-p digit loops (GF(2^17)).
REPRESENTATION_FIELDS = (field(2), F3, field(2, 2), field(3, 2), field(257), field(17, 2), field(2, 9), field(2, 17))


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_hnf_over_moduli_is_the_hnf_of_the_stack_in_every_representation(seed):
    rng = random.Random(seed)
    f = REPRESENTATION_FIELDS[seed % len(REPRESENTATION_FIELDS)]
    ell = rng.randint(1, 3)
    # Moduli of any shape, not only x^m - lam, and not monic.
    moduli = [
        Poly(f, [rng.randrange(f.q) for _ in range(rng.randint(0, 4))] + [rng.randrange(1, f.q)]) for _ in range(ell)
    ]
    top = rand_matrix(rng, f, rng.randint(0, 3), ell, max_deg=6)
    stack = PolyMatrix.stack(top, PolyMatrix.diagonal(moduli))
    res = hnf(top, moduli, transform=False)
    full = hnf(stack)
    assert full.transform @ stack == full.h
    assert_is_hnf(res.h, res.pivots)
    assert res.h == full.h and res.pivots == full.pivots
    g, a = _gpm_pair(top, moduli)
    assert g == PolyMatrix(f, full.h.rows[:ell])
    assert a @ g == PolyMatrix.diagonal(moduli)


def test_full_rank_stack_without_the_diagonal_is_rejected():
    f = F3
    moduli = [poly(f, "1 + x^2")] * 2
    stack = pmat(f, [["x", "0"], ["0", "x"]])
    with pytest.raises(ValueError, match="diagonal submodule"):
        reduce_to_gpm(stack, moduli)
    with pytest.raises(ValueError, match="diagonal submodule"):
        solve_identical(stack, moduli)


def test_rank_mod_examples():
    f = F3
    p = poly(f, "1 + x")
    m = pmat(f, [["1 + x", "2 + x"], ["2 + 2*x", "1 + 2*x"]])
    # mod x+1: first column vanishes, second column has entries 1 and 2
    assert rank_mod(m, p) == 1
    assert rank_mod(PolyMatrix.zeros(f, 2, 2), p) == 0
    assert rank_mod(PolyMatrix.identity(f, 2), p) == 2
    with pytest.raises(ValueError):
        rank_mod(m, poly(f, "2 + x^2"))  # reducible modulus


def test_chain_type_examples():
    f = F3
    p = poly(f, "1 + x")
    # row span of diag(p, 1) over F_3[x]/<p^2>: one unit row, one p-layer row
    m = pmat(f, [["1 + x", "0"], ["0", "1"]])
    t = chain_type(m, p, 2)
    assert t.type_vector == (1, 1)
    assert t.size_log_q == 3  # deg(p) * (2*r0 + 1*r1)
    full = chain_type(PolyMatrix.identity(f, 2), p, 2)
    assert full.type_vector == (2, 0)
    assert full.size_log_q == 4
    empty = chain_type(PolyMatrix.zeros(f, 1, 2), p, 2)
    assert empty.type_vector == (0, 0)
    assert empty.size_log_q == 0
    # (1, 0) and (p, 0) span one free row.  The pivot (1, 0) must clear
    # the entry p, though it is no unit: left in place, (p, 0) would be
    # divided into the next layer and counted there, as (1, 1).
    for mult in (2, 3):
        assert chain_type(pmat(f, [["1", "0"], ["1 + x", "0"]]), p, mult).type_vector == (1,) + (0,) * (mult - 1)


CHAIN_MODULI = (
    (field(2), ("1 + x", "1 + x + x^2", "1 + x + x^3")),
    (F3, ("2 + x", "1 + x^2", "1 + 2*x + x^3")),
    (f4(), ("w + x", "w + x + x^2")),
    (field(5), ("3 + x", "2 + x^2")),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_chain_type_matches_the_peeled_sweep(data):
    """`_chain_type` against the sweep that divides every row by p after
    each update (`reference_chain_type`), over GF(2), GF(3), GF(4) and
    GF(5) with f <= 4.  Entries are u * p^k with k up to past f, so some
    columns are nonzero and p-divisible with no unit in them."""
    fld, texts = data.draw(st.sampled_from(CHAIN_MODULI), label="field")
    p = poly(fld, data.draw(st.sampled_from(texts), label="p"))
    mult = data.draw(st.integers(1, 4), label="f")
    n_cols = data.draw(st.integers(1, 4), label="columns")
    coeff = st.integers(0, fld.q - 1)
    # A column's floor: every entry in it carries at least that power of p.
    floors = [data.draw(st.integers(0, mult), label="floor") for _ in range(n_cols)]

    def entry(c):
        base = Poly(fld, data.draw(st.lists(coeff, max_size=3), label="u"))
        power = Poly.one(fld)
        for _ in range(data.draw(st.integers(floors[c], mult + 1), label="k")):
            power = power * p
        return (base * power).coeffs

    rows = [[entry(c) for c in range(n_cols)] for _ in range(data.draw(st.integers(1, 4), label="rows"))]
    assert _chain_type(rows, p, mult).type_vector == reference_chain_type(rows, p, mult)


def row_span_size(m, modulus):
    """Size of the row span of m over GF(q)[x]/<modulus>, by enumeration:
    the span is the GF(q)-span of x^k * row for k < deg(modulus)."""
    f, d = m.field, modulus.degree
    gens = []
    for row in m.rows:
        for k in range(d):
            entries = [(e.shift(k) % modulus).coeffs for e in row]
            gens.append(tuple(cs[i] if i < len(cs) else 0 for cs in entries for i in range(d)))
    span = {(0,) * (d * m.shape[1])}
    for g in gens:
        span = {tuple(f.add(a, f.mul(s, b)) for a, b in zip(w, g)) for w in span for s in range(f.q)}
    return len(span)


def test_chain_type_counts_row_span():
    # A seeded sweep: the span over the chain ring GF(q)[x]/<p^f> has
    # q^size_log_q elements.  Entries carry random powers of p so that
    # every layer of the type vector is exercised; some carry a multiple of
    # p^f, so they reach past its degree, and a random nonzero scalar, so
    # unit pivots are not monic and are not inverted by the sweep.
    rng = random.Random(20250)
    moduli = {
        field(2): ["1 + x", "1 + x + x^2"],
        F3: ["2 + x", "1 + x^2"],
        f4(): ["w + x", "w + x + x^2"],
        field(3, 2): ["w + x"],
        field(5): ["3 + x", "2 + x^2"],
    }
    cases = [(fld, poly(fld, text)) for fld, texts in moduli.items() for text in texts]
    assert all(is_irreducible(p) for _, p in cases)
    layered = long_entries = non_monic_units = 0
    for _ in range(160):
        fld, p = rng.choice(cases)
        power = rng.randint(1, 3)
        n_cols = rng.randint(1, 3)
        while n_cols > 1 and fld.q ** (p.degree * power * n_cols) > 4096:
            n_cols -= 1
        modulus = Poly.one(fld)
        for _ in range(power):
            modulus = modulus * p
        rows = []
        for _ in range(rng.randint(1, 3)):
            row = []
            for _ in range(n_cols):
                e = rand_matrix(rng, fld, 1, 1, max_deg=2).rows[0][0]
                for _ in range(rng.randint(0, power)):
                    e = e * p
                if rng.random() < 0.3:
                    e = e + rand_matrix(rng, fld, 1, 1, max_deg=1).rows[0][0] * modulus
                e = e.scale(rng.randrange(1, fld.q))
                long_entries += e.degree >= modulus.degree
                non_monic_units += bool(e) and e.lead != 1 and bool(e % p)
                row.append(e)
            rows.append(row)
        m = PolyMatrix(fld, rows)
        t = chain_type(m, p, power)
        assert row_span_size(m, modulus) == fld.q**t.size_log_q, (fld, p, power, m)
        if power == 1:
            assert rank_mod(m, p) == t.type_vector[0]
        layered += power > 1 and sum(t.type_vector[1:]) > 0
    assert layered > 10
    assert long_entries > 20 and non_monic_units > 50, (long_entries, non_monic_units)


def test_parse_and_str_round_trip():
    f = f4()
    m = pmat(f, [["w + x", "w"], ["0", "w^2 + x"]])
    again = PolyMatrix.parse(f, str(m))
    assert again == m


# -- matrices built by the library skip the constructor's checks ---------------


def test_constructor_rejects_ragged_rows_and_foreign_entries():
    a = poly(F3, "1 + x")
    with pytest.raises(ValueError, match="ragged"):
        PolyMatrix(F3, [[a, a], [a]])
    with pytest.raises(ValueError, match="entries"):
        PolyMatrix(F3, [[a, Poly.parse(field(5), "x")]])
    with pytest.raises(ValueError, match="entries"):
        PolyMatrix(F3, [[a, 1]])


def test_trusted_matrices_equal_their_validated_rebuild():
    rng = random.Random(17)
    m = rand_matrix(rng, F3, 3, 3)
    trusted = [
        PolyMatrix._trusted(F3, m.rows),
        PolyMatrix._trusted(F3, (iter(row) for row in m.rows)),
        m @ PolyMatrix.identity(F3, 3),
        m.transpose(),
        m.scale(Poly.one(F3)),
        hnf(m).h,
        hnf(m).transform,
    ]
    for t in trusted:
        checked = PolyMatrix(F3, t.rows)
        assert t == checked and hash(t) == hash(checked)
        assert isinstance(t.rows, tuple) and all(isinstance(row, tuple) for row in t.rows)
    assert trusted[0] == m and hash(trusted[0]) == hash(m)
