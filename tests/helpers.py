"""Shared builders for the test suite.

Everything here is seeded: a test passes the same Random instance (or seed)
and gets the same codes back, so failures reproduce exactly.
"""

import argparse
import math
import random

from mtcodes import Field, LinearCode, MTCode, MTProfile, Poly, PolyMatrix, chain_type, field, hnf
from mtcodes import cli, oracle
from mtcodes.errors import DomainError
from mtcodes.gf import _prime_factors
from mtcodes.lincode import rref
from mtcodes.mtcode import GpmIntersection, _cofactor_product, _dim_of, reciprocal_columns
from mtcodes.pmat import HnfResult, _back_substitute, _diagonal_rows, _echelon
from mtcodes.upoly import _add_product, _divisor_row, _exact_quotient, _power, _reduce


SMALL_FIELDS = ((2, 1), (3, 1), (4, 2), (5, 1), (9, 2))

_NOT_DIAGONAL = "row module does not contain the diagonal submodule"


def small_field(q: int) -> Field:
    for qq, e in SMALL_FIELDS:
        if qq == q:
            return field(qq if e == 1 else {4: 2, 9: 3}[qq], e)
    raise ValueError(f"no small field of order {q}")


def f4() -> Field:
    return field(2, 2)


def f9_mod221() -> Field:
    # modulus x^2 + 2x + 2, the one whose root w satisfies w^4 = 2
    return field(3, 2, modulus=(2, 2, 1))


def poly(f: Field, text: str) -> Poly:
    return Poly.parse(f, text)


def pmat(f: Field, rows: list[list[str]]) -> PolyMatrix:
    return PolyMatrix(f, [[Poly.parse(f, e) for e in row] for row in rows])


# -- independent references for polynomial matrices --------------------------

def det(m: PolyMatrix) -> Poly:
    """Fraction-free Bareiss determinant, independent of the HNF."""
    n_r, n_c = m.shape
    if n_r != n_c:
        raise ValueError("determinant of a non-square matrix")
    field = m.field
    if n_r == 0:
        return Poly.one(field)
    a = [list(r) for r in m.rows]
    sign = 1
    prev = Poly.one(field)
    for k in range(n_r - 1):
        if a[k][k].is_zero():
            pivot = next((i for i in range(k + 1, n_r) if not a[i][k].is_zero()), None)
            if pivot is None:
                return Poly.zero(field)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n_r):
            for j in range(k + 1, n_r):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num.exact_div(prev)
            a[i][k] = Poly.zero(field)
        prev = a[k][k]
    d = a[n_r - 1][n_r - 1]
    return d if sign > 0 else -d


def backward_identity(f: Field, n: int) -> PolyMatrix:
    """J_n: ones on the antidiagonal."""
    one, zero = Poly.one(f), Poly.zero(f)
    return PolyMatrix(f, [[one if i + j == n - 1 else zero for j in range(n)] for i in range(n)])


def hnf_with_transform(m: PolyMatrix) -> tuple[HnfResult, PolyMatrix]:
    """Reference row HNF with its unimodular left transform U, U @ m = H:
    `_echelon` on [m | I], the identity's columns riding along in every
    row operation."""
    f, n_cols = m.field, m.shape[1]
    rows = [list(row) + list(e) for row, e in zip(m.rows, PolyMatrix.identity(f, len(m.rows)).rows)]
    pivots = _echelon(f, rows, n_cols)
    h = PolyMatrix(f, [row[:n_cols] for row in rows])
    return HnfResult(h, tuple(pivots)), PolyMatrix(f, [row[n_cols:] for row in rows])


def gpm_with_companion(res, diag_polys) -> tuple[PolyMatrix, PolyMatrix]:
    """The GPM G, the first rows of a generating stack's HNF result res,
    and its companion A with A @ G = diag(diag_polys), by
    back-substitution; ValueError when the HNF has fewer than ell pivots
    or its module does not hold diag(diag_polys)."""
    ell = len(diag_polys)
    if res.rank < ell:
        raise ValueError(_NOT_DIAGONAL)
    field = res.h.field
    gpm = res.h.rows[:ell]
    companion = _back_substitute(field, gpm, _diagonal_rows(diag_polys))
    if companion is None:
        raise ValueError(_NOT_DIAGONAL)
    return PolyMatrix(field, gpm), PolyMatrix(field, companion)


def _gpm_pair(top: PolyMatrix, diag_polys) -> tuple[PolyMatrix, PolyMatrix]:
    """The reduced GPM G of the stack [top; diag(diag_polys)], the first
    rows of one elimination reduced modulo diag_polys with no transform,
    and its companion A with A @ G = diag(diag_polys), by
    back-substitution."""
    diag_polys = list(diag_polys)
    return gpm_with_companion(hnf(top, diag_polys), diag_polys)


def paper_intersection_details(code1: MTCode, code2: MTCode, kappa: int | None = None) -> GpmIntersection:
    """The paper's route to C1 cap C2 (to the kappa-Galois dual of C1 met
    with C2 when kappa is given) and its auxiliary quasi-cyclic pair:
    Q the reduced GPM of [A1^T diag(c_i) G2^T; (x^N - 1) I] (for the Galois
    dual, sigma^(e - kappa)(G1(1/x) diag(x^m_i)) in place of A1^T), P its
    companion, and the code of the rows P^T @ G2."""
    prof = code2.profile
    if kappa is None:
        left = code1.companion.transpose()
    else:
        left = reciprocal_columns(code1.gpm, code1.profile).frobenius(code1.field.e - kappa)
    q, p = _gpm_pair(_cofactor_product(left, code2.gpm.transpose(), prof), [prof.annihilator()] * prof.ell)
    return GpmIntersection(MTCode(prof, p.transpose() @ code2.gpm), q, p)


def reduce_to_gpm(stack: PolyMatrix, diag_polys) -> PolyMatrix:
    """Reference GPM of a generating stack, by the library's HNF and
    back-substitution.

    diag_polys are the block moduli x^m_i - lam_i; the stack's row module
    must contain each of them on its own axis, which the back-substitution
    for the companion certifies.  A stack that ends in diag(diag_polys) is
    eliminated as its other rows over those moduli (see `hnf`); any other
    stack is eliminated as it is.
    """
    diag_polys = list(diag_polys)
    ell = len(diag_polys)
    if stack.shape[1] != ell:
        raise ValueError(f"stack has {stack.shape[1]} columns but {ell} block moduli")
    top, moduli = stack, None
    if ell and all(diag_polys) and stack.rows[-ell:] == PolyMatrix.diagonal(diag_polys).rows:
        top, moduli = PolyMatrix(stack.field, stack.rows[:-ell]), diag_polys
    return gpm_with_companion(hnf(top, moduli), diag_polys)[0]


def solve_identical(gpm: PolyMatrix, diag_polys) -> PolyMatrix:
    """Reference companion: the unique A with A @ gpm = diag(diag_polys).

    With H = U @ gpm the HNF of gpm, back-substitution on the triangular H
    solves A' @ H = diag(diag_polys), and A = A' @ U; an inexact division
    there raises ValueError.  Verified by multiplying back.
    """
    diag_polys = list(diag_polys)
    ell = len(diag_polys)
    r, c = gpm.shape
    if r != ell or c != ell:
        raise ValueError("generator polynomial matrix must be square")
    res, transform = hnf_with_transform(gpm)
    a = gpm_with_companion(res, diag_polys)[1] @ transform
    if (a @ gpm) != PolyMatrix.diagonal(diag_polys):
        raise AssertionError("companion solve failed the multiply-back check")
    return a


def modulus_diag(prof: MTProfile) -> PolyMatrix:
    """diag(x^m_i - lam_i)."""
    return PolyMatrix.diagonal(prof.moduli)


def cofactor_diag(prof: MTProfile) -> PolyMatrix:
    """diag((x^N - 1) / (x^m_i - lam_i)), the degree-N cofactors."""
    ann = prof.annihilator()
    return PolyMatrix.diagonal([ann.exact_div(m) for m in prof.moduli])


def cofactor_product_reference(left: PolyMatrix, right: PolyMatrix, prof: MTProfile) -> PolyMatrix:
    """left @ cofactor_diag @ right through degree-N products, each entry
    then reduced modulo x^N - 1."""
    ann = prof.annihilator()
    return (left @ cofactor_diag(prof) @ right).map_entries(lambda e: e % ann)


def reference_layer_types(left: PolyMatrix, right: PolyMatrix, prof: MTProfile) -> list[tuple[int, ...]]:
    """chain_type of left @ cofactor_diag @ right, the degree-N product,
    for every factor of x^N - 1: what `_layer_table` must report."""
    full = left @ cofactor_diag(prof) @ right
    return [chain_type(full, p, f).type_vector for p, f in prof.factorization]


def reference_chain_type(rows, p: Poly, f: int) -> tuple[int, ...]:
    """The type vector of the row span of ``rows`` (coefficient lists) over
    GF(q)[x]/<p^f> by the peeled sweep: every row is divided by p up front
    in each layer, and again in full after each update, and a column's
    pivot is the first row whose quotient is missing (a unit entry)."""
    fld = p.field
    div_p = _divisor_row(fld, p.coeffs)
    n_cols = len(rows[0]) if rows else 0
    div = _divisor_row(fld, _power(p, f).coeffs)
    rows = [[_reduce(fld, list(e), div) for e in row] for row in rows]
    type_vector = []
    for h in range(f):
        rows = [row for row in rows if any(row)]
        if not rows:
            break
        peeled = [[_exact_quotient(fld, e, div_p) for e in row] for row in rows]
        r_h = 0
        for c in range(n_cols):
            at = next((i for i, row in enumerate(peeled) if row[c] is None), None)
            if at is None:
                continue
            if h and not r_h:
                div = _divisor_row(fld, _power(p, f - h).coeffs)
            pivot_row = rows.pop(at)
            del peeled[at]
            u = pivot_row[c]
            for i, row in enumerate(rows):
                a = row[c]
                if a:
                    na, new = [fld.neg(x) for x in a], []
                    for x, y in zip(row, pivot_row):
                        e: list[int] = []
                        _add_product(fld, e, u, x)
                        _add_product(fld, e, na, y)
                        new.append(_reduce(fld, e, div))
                    rows[i], peeled[i] = new, [_exact_quotient(fld, e, div_p) for e in new]
            r_h += 1
        type_vector.append(r_h)
        rows = peeled
    return tuple(type_vector + [0] * (f - len(type_vector)))


def reference_cyclotomic_pieces(phi: Poly, d: int, split: dict) -> list[Poly]:
    """Phi_d cut into its coprime pieces with every gcd formed: the linear
    x - a for the a in GF(q) of order d when d | q - 1, else Phi_d refined
    against g(x^l) for every prime l | d and every factor g of Phi_(d/l)
    in `split`, each gcd by Euclid on `Poly` remainders."""
    fld = phi.field
    if (fld.q - 1) % d == 0:
        return [Poly(fld, [fld.neg(a), 1]) for a in range(1, fld.q) if fld.mult_order(a) == d]

    def gcd(a: Poly, b: Poly) -> Poly:
        while not b.is_zero():
            a, b = b, a % b
        return a.scale(fld.inv(a.lead))

    pieces = [phi]
    for l in _prime_factors(d):
        spread = [Poly(fld, [0 if i % l else g.coeff(i // l) for i in range(l * g.degree + 1)]) for g in split[d // l]]
        pieces = [h for piece in pieces for h in (gcd(piece, g) for g in spread) if h.degree > 0]
    return pieces


def plan_activity(prof: MTProfile) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The active pairs (i, v) of each entry of `MTProfile.factor_plan`."""
    return tuple(active for _, _, active, _ in prof.factor_plan)


def reference_factor_valuations(prof: MTProfile) -> tuple[tuple[tuple[int, int], ...], ...]:
    """`plan_activity` by divmod: per factor p of x^N - 1,
    (i, v_p(x^m_i - lam_i)) for each block modulus that p divides."""
    out = []
    for p, _ in prof.factorization:
        active = []
        for i, d in enumerate(prof.moduli):
            v = 0
            while (d % p).is_zero():
                d = d.exact_div(p)
                v += 1
            if v:
                active.append((i, v))
        out.append(tuple(active))
    return tuple(out)


def layer_types(table) -> list[tuple[int, ...]]:
    return [layer.type_vector for layer in table.layers]


def express_in_row_module(res, transform, vector) -> list[Poly]:
    """Coefficients c over the original rows with c @ origin = vector, for
    an `hnf_with_transform` pair; ValueError outside the row module."""
    field = res.h.field
    v = list(vector)
    n_rows, n_cols = res.h.shape
    if len(v) != n_cols:
        raise ValueError("vector length does not match matrix width")
    coeff = [Poly.zero(field)] * n_rows
    for r, c in res.pivots:
        if v[c].is_zero():
            continue
        q, rem = divmod(v[c], res.h.rows[r][c])
        if not rem.is_zero():
            raise ValueError("vector is not in the row module")
        coeff[r] = q
        v = [a - q * b for a, b in zip(v, res.h.rows[r])]
    if any(not e.is_zero() for e in v):
        raise ValueError("vector is not in the row module")
    # c over H rows -> c @ transform gives coefficients over the input rows.
    out = []
    for j in range(n_rows):
        acc = Poly.zero(field)
        for i in range(n_rows):
            if coeff[i] and transform.rows[i][j]:
                acc = acc + coeff[i] * transform.rows[i][j]
        out.append(acc)
    return out


def words(f: Field, rows: str) -> tuple[tuple[int, ...], ...]:
    """Parse a whitespace matrix like '1 0 w / 0 1 w^2' into scalar rows."""
    out = []
    for chunk in rows.split("/"):
        out.append(tuple(f.parse_element(t) for t in chunk.split()))
    return tuple(out)


def random_profile(rng: random.Random, f: Field, max_ell: int = 3, max_block: int = 4) -> MTProfile:
    ell = rng.randint(1, max_ell)
    blocks = tuple(rng.randint(1, max_block) for _ in range(ell))
    shifts = tuple(rng.choice(range(1, f.q)) for _ in range(ell))
    return MTProfile(f, blocks, shifts)


def random_mt_code(rng: random.Random, profile: MTProfile, max_rows: int = 2) -> MTCode:
    """Any stack of polynomial rows is a valid generating set: the module it
    spans together with the block moduli is automatically shift invariant."""
    f = profile.field
    rows = []
    for _ in range(rng.randint(0, max_rows)):
        row = []
        for m in profile.blocks:
            coeffs = [rng.randrange(f.q) for _ in range(m)]
            row.append(Poly(f, coeffs))
        rows.append(row)
    return MTCode(profile, [tuple(r) for r in rows])


def reference_min_distance(code: LinearCode) -> float:
    """Minimum weight over one codeword per projective point.

    Scaling keeps the weight, so for each row g_i of the RREF generator only
    g_i plus the combinations of the rows below it are walked, in reflected
    q-ary Gray order: (q^k - 1)/(q - 1) words, one Field.add_scaled each.
    math.inf for the zero code.
    """
    field, q, n = code.field, code.field.q, code.n
    terms = [[(j, e) for j, e in enumerate(row) if e] for row in code.gen]
    best = math.inf
    for i, row in enumerate(code.gen):
        word, below = list(row), terms[i + 1 :]
        digit, step = [0] * len(below), [1] * len(below)
        for t in range(1, q ** len(below) + 1):
            best = min(best, n - word.count(0))
            # The digit that changes next is the number of trailing zeros
            # of t in base q; it is len(below) once every word is seen.
            j = 0
            while t % q == 0:
                t //= q
                j += 1
            if j == len(below):
                break
            old = digit[j]
            new = digit[j] = old + step[j]
            if new in (0, q - 1):
                step[j] = -step[j]
            field.add_scaled(word, 0, field.sub(new, old), below[j])
    return best


def reference_intersection(a: LinearCode, b: LinearCode, budget: int | None = None) -> set:
    """C_a meet C_b as the set intersection of both enumerated codes: the walk
    `oracle.intersect_codes` made before it enumerated only one side."""
    return oracle.enumerate_code(a, budget) & oracle.enumerate_code(b, budget)


def reference_galois_dual_intersection(a: LinearCode, b: LinearCode, kappa: int, budget: int | None = None) -> set:
    """The kappa-Galois dual of a met with b, from the scan of all q^n
    vectors that `oracle.intersect_galois_dual` replaced."""
    return oracle.galois_dual_set(a, kappa, budget) & oracle.enumerate_code(b, budget)


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the command line was first built on: the
    reference ``cli.parse_args`` must agree with, argv for argv."""
    parser = argparse.ArgumentParser(
        prog="mtcodes",
        description="exact operations on linear and multi-twisted codes",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("file", help="code document")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--oracle", action="store_true",
                       help="cross-check against brute-force enumeration")

    p = sub.add_parser("info", help="describe codes in a document")
    common(p)
    p.add_argument("name", nargs="?", help="code name (default: all)")
    p.set_defaults(run=cli.cmd_info)

    p = sub.add_parser("intersect", help="intersection of two codes")
    common(p)
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--galois", type=int, metavar="K",
                   help="intersect the K-Galois dual of the first code with the second")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--mt", action="store_true", help="require the GPM route")
    mode.add_argument("--linear", action="store_true", help="force the linear route")
    p.set_defaults(run=cli.cmd_intersect)

    p = sub.add_parser("check", help="test a property of a code")
    common(p)
    p.add_argument("name")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--so", type=int, metavar="K", help="K-Galois self-orthogonal")
    which.add_argument("--dc", type=int, metavar="K", help="K-Galois dual-containing")
    which.add_argument("--lcd", type=int, metavar="K", help="K-Galois complementary dual")
    which.add_argument("--reversible", action="store_true",
                       help="reversibility; reports the largest reversible subcode if not")
    which.add_argument("--hull", type=int, metavar="K", help="K-Galois hull")
    which.add_argument("--reverse", action="store_true", help="the reversed code")
    which.add_argument("--advisor", metavar="OTHER",
                       help="shift constants under which the intersection with OTHER is MT")
    p.set_defaults(run=cli.cmd_check)

    p = sub.add_parser("dual", help="dual or Galois dual of a code")
    common(p)
    p.add_argument("name")
    p.add_argument("--galois", type=int, metavar="K", help="K-Galois dual")
    p.set_defaults(run=cli.cmd_dual)

    p = sub.add_parser("reverse", help="reversed code")
    common(p)
    p.add_argument("name")
    p.set_defaults(run=cli.cmd_reverse)
    return parser


def random_linear_code(rng: random.Random, f: Field, n: int, max_k: int | None = None) -> LinearCode:
    if max_k is None:
        max_k = n
    k = rng.randint(0, max_k)
    rows = [tuple(rng.randrange(f.q) for _ in range(n)) for _ in range(k)]
    return LinearCode(f, n, rows)


# -- structured-vs-oracle sweep ---------------------------------------------

# ambient sizes are capped so the oracle's q^n dual scan stays cheap
SWEEP_FIELDS = (
    (field(2), 12),
    (field(3), 7),
    (field(2, 2), 6),
)


def sweep_pair(rng: random.Random, idx: int) -> tuple[MTCode, MTCode]:
    """A seeded same-profile pair of MT codes, cycling through the fields."""
    f, max_n = SWEEP_FIELDS[idx % len(SWEEP_FIELDS)]
    while True:
        ell = rng.randint(1, 3)
        blocks = tuple(rng.randint(1, 4) for _ in range(ell))
        if sum(blocks) <= max_n:
            break
    if rng.random() < 0.5:
        # palindromic profile so the reversibility congruence has its
        # precondition met about half the time; a middle block, if any,
        # needs a self-inverse shift
        self_inverse = [c for c in range(1, f.q) if f.mul(c, c) == 1]
        half = [rng.choice(range(1, f.q)) for _ in range((ell + 1) // 2)]
        shifts = []
        for i in range(ell):
            j = min(i, ell - 1 - i)
            if i == ell - 1 - i:
                shifts.append(rng.choice(self_inverse))
            elif i < ell - 1 - i:
                shifts.append(half[j])
            else:
                shifts.append(f.inv(half[j]))
        blocks = tuple(blocks[min(i, ell - 1 - i)] for i in range(ell))
        profile = MTProfile(f, blocks, tuple(shifts))
    else:
        profile = MTProfile(f, blocks, tuple(rng.choice(range(1, f.q)) for _ in range(ell)))
    return random_mt_code(rng, profile), random_mt_code(rng, profile)


def check_equation_identities(code: MTCode) -> None:
    """The three GPM identities for (G, A) and the dual pair (H, B)."""
    prof = code.profile
    ann = prof.annihilator()
    ell = prof.ell
    eye = PolyMatrix.identity(prof.field, ell)
    scaled = eye.scale(ann)
    # A @ G = diag(x^m_i - lam_i)
    assert code.companion @ code.gpm == modulus_diag(prof)
    # A^T @ diag((x^N-1)/(x^m_i - lam_i)) @ G^T = (x^N - 1) I
    lhs = code.companion.transpose() @ cofactor_diag(prof) @ code.gpm.transpose()
    assert lhs == scaled
    dual = code.dual()
    dprof = dual.profile
    # B @ H = diag(x^m_i - lam_i^-1)
    assert dual.companion @ dual.gpm == modulus_diag(dprof)
    assert dprof.shifts == tuple(prof.field.inv(s) for s in prof.shifts)


def expansion_rows(code: MTCode) -> list[tuple[int, ...]]:
    """Reference scalar basis of an MT code: the words x^j g_i for
    j < m_i - deg G_ii, each GPM row reduced modulo the block moduli and
    shifted by the oracle's own `twisted_shift`."""
    prof = code.profile
    rows = []
    for i, prow in enumerate(code.gpm.rows):
        vec = tuple(
            (e % d).coeff(j) for e, m, d in zip(prow, prof.blocks, prof.moduli) for j in range(m)
        )
        for _ in range(prof.blocks[i] - prow[i].degree):
            rows.append(vec)
            vec = oracle.twisted_shift(prof.field, prof.blocks, prof.shifts, vec)
    return rows


def check_systematic_routes(code: MTCode) -> None:
    """Both directions of the twisted-shift recurrence: `to_linear` gives
    the rref of the expansion rows, pivots included, and `from_linear` of
    that generator, solved afresh by `LinearCode`, gives the code's GPM and
    companion back, the companion also checked by `solve_identical`."""
    lin = code.to_linear()
    assert (lin.gen, lin._pivots) == rref(code.field, expansion_rows(code))
    again = MTCode.from_linear(code.profile, LinearCode(code.field, code.n, lin.gen))
    assert again.gpm == code.gpm
    assert again.companion == code.companion == solve_identical(code.gpm, code.profile.moduli)


def check_meet_routes(code1: MTCode, code2: MTCode) -> None:
    """In both orders: `intersect` (one elimination modulo the block
    moduli) gives the GPM and companion of `intersection_details`, whose
    code, Q and P are those of the paper's quasi-cyclic route
    (`paper_intersection_details`), and `is_subcode_of` (one triangular
    solve on G2) the paper's congruence G1 @ diag(c_i) @ A2 = 0 modulo
    x^N - 1."""
    for a, b in ((code1, code2), (code2, code1)):
        details = a.intersection_details(b)
        assert details == paper_intersection_details(a, b)
        meet = a.intersect(b)
        assert meet == details.code and meet.companion == details.code.companion
        assert a.is_subcode_of(b) == _cofactor_product(a.gpm, b.companion, a.profile).is_zero()


def check_trivial_intersection_routes(code1: MTCode, code2: MTCode, trivial: bool) -> None:
    """In both orders: `trivially_intersects` (the dimension of C1 + C2)
    equals the paper's layer-table verdict and the given codeword-set
    verdict, and dim(C1 cap C2) = k1 + k2 - dim(C1 + C2) holds for
    `intersect`."""
    for a, b in ((code1, code2), (code2, code1)):
        assert a.trivially_intersects(b) == a.trivial_intersection_evidence(b).verdict == trivial
        assert a.intersect(b).dim == a.dim + b.dim - _dim_of(a._sum_gpm_rows(b), a.n)


def check_structured_vs_oracle(rng: random.Random, idx: int) -> None:
    """One sweep case: every structured operation against brute force."""
    code1, code2 = sweep_pair(rng, idx)
    f = code1.field
    prof = code1.profile

    check_equation_identities(code1)
    check_equation_identities(code2)
    assert plan_activity(prof) == reference_factor_valuations(prof)
    check_systematic_routes(code1)
    check_systematic_routes(code2)

    lin1, lin2 = code1.to_linear(), code2.to_linear()
    w1 = oracle.enumerate_code(lin1)
    w2 = oracle.enumerate_code(lin2)
    assert oracle.is_invariant(lin1, prof.blocks, prof.shifts)
    assert len(w1) == f.q**code1.dim

    # intersection: linear route and GPM route against the set intersection
    both = w1 & w2
    assert oracle.intersect_codes(lin1, lin2) == both
    assert oracle.same_code(lin1.intersect(lin2), both)
    inter = code1.intersect(code2)
    assert oracle.same_code(inter.to_linear(), both)
    check_meet_routes(code1, code2)
    check_trivial_intersection_routes(code1, code2, both == {(0,) * code1.n})

    # Galois dual / hull / dual-profile shifts
    kappa = rng.randrange(f.e)
    dual_set = oracle.galois_dual_set(lin1, kappa)
    gd = code1.galois_dual(kappa)
    assert oracle.same_code(gd.to_linear(), dual_set)
    assert oracle.intersect_galois_dual(lin1, lin1, kappa) == w1 & dual_set
    assert oracle.same_code(lin1.hull(kappa), w1 & dual_set)
    try:
        hull_details = code1.galois_hull_details(kappa)
    except DomainError:
        # GPM route needs the dual to share the profile; linear route above
        # already covered this case
        pass
    else:
        assert oracle.same_code(hull_details.code.to_linear(), w1 & dual_set)
        assert hull_details == paper_intersection_details(code1, code1, kappa)

    # reversal: full reversal flips the block structure, so compare wordwise
    rev = code1.reversed_code()
    assert oracle.same_code(rev.to_linear(), oracle.reverse_words(w1))
    is_rev, sub = lin1.reversibility()
    assert is_rev == (oracle.reverse_words(w1) == w1)
    assert oracle.same_code(sub, {w for w in w1 if w[::-1] in w1})

    # property checks, where their preconditions admit an answer
    sub_rel = w1 <= dual_set
    sup_rel = dual_set <= w1
    chk = code1.property_check("self_orthogonal", kappa)
    if chk.holds is not None:
        assert chk.holds == sub_rel
    chk = code1.property_check("dual_containing", kappa)
    if chk.holds is not None:
        assert chk.holds == sup_rel
    chk = code1.property_check("lcd", kappa)
    if chk.holds is not None:
        assert chk.holds == (w1 & dual_set == {(0,) * code1.n})
        left = reciprocal_columns(code1.gpm, prof).frobenius(f.e - kappa)
        assert layer_types(chk.table) == reference_layer_types(left, code1.gpm.transpose(), prof)
    chk = code1.property_check("reversible")
    if chk.holds is not None:
        assert chk.holds == (oracle.reverse_words(w1) == w1)

    # each factor's type in the layer table (whose verdict
    # check_trivial_intersection_routes compared above) against the
    # degree-N product
    table = code1.trivial_intersection_evidence(code2)
    want = reference_layer_types(code1.companion.transpose(), code2.gpm.transpose(), prof)
    assert layer_types(table) == want

    # subcode relation
    assert code1.is_subcode_of(code2) == (w1 <= w2)

    # minimum distance on the first code
    d = code1.min_distance()
    assert d == oracle.min_distance_of_words(w1)


# -- large-field pairs ------------------------------------------------------

def small_dim_pair(rng: random.Random, f: Field) -> tuple[MTCode, MTCode]:
    """A seeded same-profile pair over f, each code generated by one row
    whose block-i entry is a multiple of (x^m_i - lam_i)/(x - r) for a root
    r of x^m_i - lam_i.  Such an entry spans one dimension, so both codes
    have dimension at most ell <= 2 and enumerate in at most q^2 words even
    for q above the 256-element table limit."""
    ell = rng.randint(1, 2)
    blocks = tuple(rng.randint(1, 4) for _ in range(ell))
    base = [rng.randrange(1, f.q) for _ in range(ell)]
    shifts = tuple(f.pow(r, m) for r, m in zip(base, blocks))
    profile = MTProfile(f, blocks, shifts)
    roots = [[r for r in range(1, f.q) if f.pow(r, m) == lam] for m, lam in zip(blocks, shifts)]

    def code():
        row = []
        for m, lam, rs in zip(blocks, shifts, roots):
            eig = Poly.binomial(f, m, lam).exact_div(Poly(f, [f.neg(rng.choice(rs)), 1]))
            row.append(eig.scale(rng.randrange(f.q)))
        return MTCode(profile, [tuple(row)])

    return code(), code()


def check_small_dim_pair(rng: random.Random, f: Field) -> None:
    """Structured operations on a small_dim_pair against codeword sets.

    The ambient space is too large to scan for a dual, so the Galois dual
    is checked by its dimension and by orthogonality of its generators to
    the code's under the kappa-Galois form."""
    code1, code2 = small_dim_pair(rng, f)
    prof = code1.profile
    check_equation_identities(code1)
    check_equation_identities(code2)
    assert plan_activity(prof) == reference_factor_valuations(prof)
    check_systematic_routes(code1)
    check_systematic_routes(code2)

    lin1, lin2 = code1.to_linear(), code2.to_linear()
    w1, w2 = oracle.enumerate_code(lin1), oracle.enumerate_code(lin2)
    assert len(w1) == f.q**code1.dim
    assert all(oracle.twisted_shift(f, prof.blocks, prof.shifts, w) in w1 for w in w1)

    both = w1 & w2
    assert oracle.same_code(code1.intersect(code2).to_linear(), both)
    check_meet_routes(code1, code2)
    check_trivial_intersection_routes(code1, code2, both == {(0,) * code1.n})
    assert code1.is_subcode_of(code2) == (w1 <= w2)
    assert code1.min_distance() == oracle.min_distance_of_words(w1)
    assert oracle.same_code(code1.reversed_code().to_linear(), oracle.reverse_words(w1))

    kappa = rng.randrange(f.e)
    dual = code1.galois_dual(kappa).to_linear()
    assert dual.k == code1.n - code1.dim
    for u in lin1.gen:
        for v in dual.gen:
            acc = 0
            for a, b in zip(u, v):
                acc = f.add(acc, f.mul(a, f.frobenius(b, kappa)))
            assert acc == 0
