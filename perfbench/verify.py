"""Checks of every operation's output.

They run outside the timed region and use ``mtcodes.oracle`` or the
benchmark's own arithmetic (``arith``), never the GPM machinery under
test.  Each check returns a list of problems; an empty list means the
output is right.
"""

from __future__ import annotations

import itertools
import json
import os

import arith
import inputs

# Largest q^n for which gpm-algebra also asks the enumeration oracle.
ORACLE_LIMIT = 2**10


# ---------------------------------------------------------------------------
# MT code outputs, read as plain data
# ---------------------------------------------------------------------------

def polys(mat) -> list[list[list[int]]]:
    """A PolyMatrix as lists of coefficient lists."""
    return [[list(e.coeffs) for e in row] for row in mat.rows]


def moduli(f: arith.GF, blocks, shifts):
    return [arith.binomial(f, m, s) for m, s in zip(blocks, shifts)]


def check_gpm_pair(f: arith.GF, blocks, shifts, gpm, companion) -> list[str]:
    """G upper triangular and A @ G = diag(x^m_i - lam_i)."""
    mods = moduli(f, blocks, shifts)
    bad = []
    if not arith.is_upper_triangular(gpm):
        bad.append("GPM is not upper triangular")
    want = [[mods[i] if i == j else [] for j in range(len(mods))] for i in range(len(mods))]
    if arith.matmul(f, companion, gpm) != want:
        bad.append("A @ G != diag(x^m_i - lam_i)")
    return bad


class MTView:
    """An MTCode's profile, GPM and companion as data, with the checks that
    every result must pass before other checks may rely on it."""

    def __init__(self, f: arith.GF, code):
        self.f = f
        self.blocks = tuple(code.profile.blocks)
        self.shifts = tuple(code.profile.shifts)
        self.gpm = polys(code.gpm)
        self.companion = polys(code.companion)
        self.mods = moduli(f, self.blocks, self.shifts)
        self.problems = check_gpm_pair(f, self.blocks, self.shifts, self.gpm, self.companion)
        self.dim = arith.gpm_dim(self.gpm, self.blocks)
        self.n = sum(self.blocks)

    def contains(self, vec) -> bool:
        return arith.member(self.f, self.gpm, self.mods, vec)

    def basis(self):
        return arith.scalar_basis(self.f, self.gpm, self.blocks, self.mods)


def check_construct(view: MTView, prof, rows) -> list[str]:
    bad = list(view.problems)
    if view.blocks != prof.blocks or view.shifts != prof.shifts:
        bad.append("profile changed")
        return bad
    if not all(view.contains(r) for r in rows):
        bad.append("an input row is not in the code")
    if view.dim != arith.module_dim(view.f, rows, view.mods):
        bad.append("dimension differs from the span of the input rows")
    return bad


def check_intersection(i: MTView, c: MTView, d: MTView) -> list[str]:
    bad = list(i.problems)
    if not all(c.contains(r) and d.contains(r) for r in i.gpm):
        bad.append("intersection row outside C or D")
    sum_dim = arith.module_dim(c.f, c.gpm + d.gpm, c.mods)
    if i.dim + sum_dim != c.dim + d.dim:
        bad.append("dim(C cap D) + dim(C + D) != dim C + dim D")
    return bad


def check_dual(e: MTView, c: MTView, kappa: int) -> list[str]:
    f = c.f
    bad = list(e.problems)
    want = tuple(f.frob(f.inv(s), f.e - kappa) for s in c.shifts)
    if e.blocks != c.blocks or e.shifts != want:
        bad.append("dual profile is wrong")
        return bad
    if c.dim + e.dim != c.n:
        bad.append("dim C + dim C^perp != n")
    gram = arith.galois_gram(f, c.basis(), e.basis(), kappa)
    if any(any(row) for row in gram):
        bad.append("dual is not kappa-orthogonal to the code")
    return bad


def check_reversed(r: MTView, c: MTView) -> list[str]:
    f = c.f
    bad = list(r.problems)
    want = tuple(f.inv(s) for s in reversed(c.shifts))
    if r.blocks != tuple(reversed(c.blocks)) or r.shifts != want:
        bad.append("reversed profile is wrong")
        return bad
    if r.dim != c.dim:
        bad.append("reversal changed the dimension")
    # Reversing R's generators must land in C; with equal dimensions this
    # says that reversing the reversed code gives C back.
    for row in r.gpm:
        vec = arith.to_vector(f, row, r.blocks, r.mods)
        if not c.contains(arith.from_vector(vec[::-1], c.blocks)):
            bad.append("a reversed generator of R is not in C")
            break
    return bad


def oracle_so_dc(fld, c: MTView, kappa: int):
    """(self-orthogonal, dual-containing) by enumeration, or None when
    q^n is over ORACLE_LIMIT."""
    from mtcodes import LinearCode, oracle

    if fld.q ** c.n > ORACLE_LIMIT:
        return None
    lin = LinearCode(fld, c.n, c.basis())
    words = oracle.enumerate_code(lin)
    dual = oracle.galois_dual_set(lin, kappa)
    return words <= dual, dual <= words


# ---------------------------------------------------------------------------
# gpm-algebra and layer-tables
# ---------------------------------------------------------------------------

def check_gpm_ops(pair, out: dict) -> dict[str, list[str]]:
    """Problems per operation of one gpm-algebra pair."""
    prof = pair.profile
    f = inputs.own_field(prof.p, prof.e)
    c, d = MTView(f, out["construct_c"]), MTView(f, out["construct_d"])
    e = MTView(f, out["galois_dual"])
    res = {
        "construct_c": check_construct(c, prof, pair.rows_c),
        "construct_d": check_construct(d, prof, pair.rows_d),
        "intersection": check_intersection(MTView(f, out["intersection"]), c, d),
        "galois_dual": check_dual(e, c, prof.kappa),
        "reversed": check_reversed(MTView(f, out["reversed"]), c),
    }
    so = all(e.contains(r) for r in c.gpm)
    dc = all(c.contains(r) for r in e.gpm)
    res["so"] = [] if out["so"].holds == so else ["SO verdict is wrong"]
    res["dc"] = [] if out["dc"].holds == dc else ["DC verdict is wrong"]
    told = oracle_so_dc(out["construct_c"].field, c, prof.kappa)
    if told is not None:
        if told[0] != out["so"].holds:
            res["so"].append("SO verdict disagrees with the oracle")
        if told[1] != out["dc"].holds:
            res["dc"].append("DC verdict disagrees with the oracle")
    sub = all(d.contains(r) for r in c.gpm)
    res["subcode"] = [] if out["subcode"] == sub else ["subcode verdict is wrong"]
    return res


def hull_dim(f: arith.GF, basis, kappa: int) -> int:
    """dim(C cap C^perp_kappa) = k - rank(G sigma^kappa(G)^T) for any
    generating rows G of C."""
    return arith.rank(f, basis) - arith.rank(f, arith.galois_gram(f, basis, basis, kappa))


def check_factors(f: arith.GF, layers, n_period: int) -> list[str]:
    acc = [1]
    for poly, power in layers:
        if not poly or poly[-1] != 1:
            return ["a factor is not monic"]
        for _ in range(power):
            acc = arith.pmul(f, acc, poly)
    return [] if acc == arith.binomial(f, n_period, 1) else ["factors do not multiply to x^N - 1"]


def check_layer_doc(doc, out: dict) -> dict[tuple, list[str]]:
    """Problems per operation of one layer-tables document; operations are
    keyed ("construct", i), ("lcd", i) and ("trivial", i, j)."""
    prof = doc.profile
    f = inputs.own_field(prof.p, prof.e)
    views, bases, res = [], [], {}
    checked_factors = {}
    for i, rows in enumerate(doc.codes):
        v = MTView(f, out[("construct", i)])
        views.append(v)
        bases.append(v.basis())
        res[("construct", i)] = check_construct(v, prof, rows)
    for i, v in enumerate(views):
        check = out[("lcd", i)]
        bad = []
        if check.holds != (hull_dim(f, bases[i], prof.kappa) == 0):
            bad.append("LCD verdict disagrees with the hull dimension")
        layers = tuple((tuple(layer.factor.coeffs), layer.power) for layer in check.table.layers)
        if layers not in checked_factors:
            checked_factors[layers] = check_factors(f, [(list(p), m) for p, m in layers], prof.period)
        bad += checked_factors[layers]
        res[("lcd", i)] = bad
    for i in range(len(views)):
        for j in range(i + 1, len(views)):
            want = arith.rank(f, bases[i] + bases[j]) == len(bases[i]) + len(bases[j])
            ok = out[("trivial", i, j)] == want
            res[("trivial", i, j)] = [] if ok else ["trivial-intersection verdict is wrong"]
    return res


# ---------------------------------------------------------------------------
# cli-fixtures
# ---------------------------------------------------------------------------

def parse_fixture(root: str, path: str):
    """(GF, program Field, {name: (rows, blocks, shifts)}) from a fixture
    document, read by the benchmark itself.  rows are scalar generator
    rows; for 'gpm' codes they are the expansion of the polynomial rows
    under every power of the twisted shift."""
    from mtcodes import field

    lines = []
    with open(os.path.join(root, path), encoding="utf-8") as fh:
        for raw in fh:
            s = raw.split("#", 1)[0].strip()
            if s:
                lines.append(s)
    head = lines[0].split()
    base = head[0][3:-1]
    if "^" in base:
        p, e = (int(x) for x in base.split("^"))
    else:
        q = int(base)
        p = next(d for d in range(2, q + 1) if q % d == 0)
        e = 1
        while p**e < q:
            e += 1
    modulus = tuple(int(c) for c in head[2:]) if len(head) > 1 else None
    fld = field(p, e, modulus)
    f = arith.GF(p, e, fld.modulus)
    codes, at = {}, 1
    while at < len(lines):
        name = lines[at].split()[1]
        at += 1
        blocks = shifts = None
        if lines[at].startswith("mt"):
            blocks = tuple(int(x) for x in lines[at + 1].split()[1:])
            shifts = tuple(f.parse(x) for x in lines[at + 2].split()[1:])
            mode = lines[at + 3]
            at += 4
            if mode == "gpm":
                prows = [[parse_poly(f, c) for c in lines[at + i].split("|")] for i in range(len(blocks))]
                at += len(blocks)
                codes[name] = (expand(f, prows, blocks, shifts), blocks, shifts)
                continue
        n_rows = int(lines[at].split()[1])
        rows = [[f.parse(x) for x in lines[at + 1 + i].split()] for i in range(n_rows)]
        at += 1 + n_rows
        codes[name] = (rows, blocks, shifts)
    return f, fld, codes


def parse_poly(f: arith.GF, text: str) -> list[int]:
    """A polynomial as the program prints it: terms joined by ' + '."""
    out: list[int] = []
    text = text.strip()
    if text == "0":
        return out
    for term in text.split(" + "):
        term = term.strip()
        if term == "x" or term.startswith("x^"):
            coef, xpart = 1, term
        elif "*x" in term:
            lit, xpart = term.rsplit("*x", 1)
            coef, xpart = f.parse(lit), "x" + xpart
        else:
            coef, xpart = f.parse(term), ""
        d = 0 if not xpart else 1 if xpart == "x" else int(xpart[2:])
        while len(out) <= d:
            out.append(0)
        out[d] = f.add(out[d], coef)
    return arith.trim(out)


def expand(f: arith.GF, prows, blocks, shifts):
    """Scalar rows x^j * row for every j below the period."""
    mods = moduli(f, blocks, shifts)
    rows = []
    for row in prows:
        cur = row
        for _ in range(inputs.period(f, blocks, shifts)):
            rows.append(arith.to_vector(f, cur, blocks, mods))
            cur = [arith.pmod(f, [0] + e, m) if e else [] for e, m in zip(cur, mods)]
    return rows


class CliChecker:
    """Checks cli-fixtures reports against the oracle's set computations.

    Reports repeat byte for byte from pass to pass, so each distinct
    report of a command is checked once and its verdict reused."""

    def __init__(self, root: str):
        self.root = root
        self.docs = {}
        self.seen: dict[tuple, list[str]] = {}

    def doc(self, path):
        if path not in self.docs:
            self.docs[path] = parse_fixture(self.root, path)
        return self.docs[path]

    def check(self, argv, rc: int, out: str) -> list[str]:
        key = (tuple(argv), rc, out)
        if key not in self.seen:
            try:
                self.seen[key] = self._check(argv, rc, out)
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                self.seen[key] = [f"unreadable report: {exc!r}"]
        return self.seen[key]

    # -- helpers -----------------------------------------------------------

    def words(self, path, rows):
        from mtcodes import LinearCode, oracle

        f, fld, _ = self.doc(path)
        n = len(rows[0]) if rows else 0
        return oracle.enumerate_code(LinearCode(fld, n, rows)) if rows else set()

    def truth(self, path, name):
        _, _, codes = self.doc(path)
        return self.words(path, codes[name][0])

    def reported(self, path, payload_rows, n):
        f = self.doc(path)[0]
        rows = [[f.parse(x) for x in r.split()] for r in payload_rows]
        if not rows:
            return {(0,) * n}
        return self.words(path, rows)

    def _code(self, path, payload, want_words) -> list[str]:
        from mtcodes import oracle

        f, _, _ = self.doc(path)
        n = payload["length"]
        got = self.reported(path, payload["generator"], n)
        bad = []
        if got != want_words:
            bad.append(f"{payload['name']}: generator spans the wrong code")
        if payload["dimension"] != len(payload["generator"]):
            bad.append(f"{payload['name']}: dimension != generator rows")
        if "distance" in payload:
            d = oracle.min_distance_of_words(want_words)
            if payload["distance"] != (None if d == float("inf") else d):
                bad.append(f"{payload['name']}: wrong distance")
        if payload["kind"] == "mt":
            blocks = tuple(payload["blocks"])
            shifts = tuple(f.parse(s) for s in payload["shifts"])
            if payload["period"] != inputs.period(f, blocks, shifts):
                bad.append(f"{payload['name']}: wrong period")
            gpm = [[parse_poly(f, c) for c in r.split("|")] for r in payload["gpm"]]
            comp = [[parse_poly(f, c) for c in r.split("|")] for r in payload["companion"]]
            bad += [f"{payload['name']}: {b}" for b in check_gpm_pair(f, blocks, shifts, gpm, comp)]
            if self.words(path, expand(f, gpm, blocks, shifts)) != want_words:
                bad.append(f"{payload['name']}: GPM spans the wrong code")
        return bad

    def _check(self, argv, rc, out) -> list[str]:
        from mtcodes import oracle

        if rc != 0:
            return [f"exit code {rc}"]
        rep = json.loads(out)
        cmd, path = argv[0], argv[1]
        f, fld, codes = self.doc(path)

        def lin(name):
            return self.truth(path, name)

        if cmd == "info":
            bad = []
            for payload in rep["codes"]:
                bad += self._code(path, payload, lin(payload["name"]))
            return bad
        if cmd == "intersect":
            a, b = argv[2], argv[3]
            if "--galois" in argv:
                k = int(argv[argv.index("--galois") + 1])
                want = self._galois_dual(path, a, k) & lin(b)
            else:
                want = lin(a) & lin(b)
            bad = self._code(path, rep["intersection"], want)
            if "--oracle" in argv and rep.get("oracle") != "confirmed":
                bad.append("oracle note is not 'confirmed'")
            return bad
        if cmd == "dual":
            k = int(argv[argv.index("--galois") + 1]) if "--galois" in argv else 0
            return self._code(path, rep["dual"], self._galois_dual(path, argv[2], k))
        if cmd == "reverse":
            words = lin(argv[2])
            rev = oracle.reverse_words(words)
            bad = self._code(path, rep["reversed"], rev)
            if rep["equals_original"] != (rev == words):
                bad.append("equals_original is wrong")
            return bad
        name = argv[2]
        words = lin(name)
        if "--so" in argv:
            k = int(argv[argv.index("--so") + 1])
            holds = words <= self._galois_dual(path, name, k)
            return [] if rep["result"]["holds"] == holds else ["SO verdict is wrong"]
        if "--reversible" in argv:
            rev = oracle.reverse_words(words)
            holds = rev == words
            bad = [] if rep["result"]["holds"] == holds else ["reversibility verdict is wrong"]
            if not holds:
                sub = rep["largest_reversible_subcode"]
                got = self.reported(path, sub["generator"], len(next(iter(words))))
                if got != words & rev or sub["dimension"] != len(sub["generator"]):
                    bad.append("largest reversible subcode is wrong")
            return bad
        if "--advisor" in argv:
            return self._advisor(path, name, argv[argv.index("--advisor") + 1], rep["advice"])
        if "--lcd" in argv:
            k = int(argv[argv.index("--lcd") + 1])
            rows = codes[name][0]
            hull = hull_dim(f, rows, k)
            res = rep["result"]
            bad = [] if res["holds"] == (hull == 0) else ["LCD verdict disagrees with the hull dimension"]
            if res["holds"] != (res["total"] == res["target"]):
                bad.append("layer total and verdict disagree")
            return bad
        return [f"no check for {argv}"]

    def _galois_dual(self, path, name, kappa):
        from mtcodes import LinearCode, oracle

        _, fld, codes = self.doc(path)
        rows = codes[name][0]
        return oracle.galois_dual_set(LinearCode(fld, len(rows[0]), rows), kappa)

    def _advisor(self, path, a, b, adv) -> list[str]:
        from mtcodes import oracle

        f, fld, codes = self.doc(path)
        wa, wb = self.truth(path, a), self.truth(path, b)
        inter = wa & wb
        blocks = codes[a][1]
        n = sum(blocks)
        bad = []
        if self.reported(path, adv["intersection_generator"], n) != inter:
            bad.append("advisor intersection is wrong")
        if adv["intersection_dimension"] != len(adv["intersection_generator"]):
            bad.append("advisor intersection dimension is wrong")
        admitted = set()
        for gamma in itertools.product(range(1, f.q), repeat=len(blocks)):
            if all(oracle.twisted_shift(fld, blocks, gamma, w) in inter for w in inter):
                admitted.add(gamma)
        got = {tuple(f.parse(s) for s in g) for g in adv["admitted_shifts"]}
        if got != admitted:
            bad.append("admitted shifts are wrong")
        for key, words in (("distance_first", wa), ("distance_second", wb)):
            if adv[key] != oracle.min_distance_of_words(words):
                bad.append(f"{key} is wrong")
        return bad
