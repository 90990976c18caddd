"""Brute-force reference implementations for cross-checking.

Everything here works on explicit sets of codewords and deliberately avoids
the polynomial-matrix machinery and the linear layer's elimination: duals
scan the whole ambient space, an intersection enumerates its smaller side
and keeps the words in the other side's span, tested by this module's own
elimination over the field's add, mul, neg and inv, and the twisted shift is
rebuilt from scratch against block lengths and shift constants.  Meant for
small parameters only; every routine takes an enumeration budget and
refuses to exceed it.  An intersection still holds each side's q^k, and a
Galois dual q^n, to the budget, so it refuses exactly the checks that a walk
over every side would.
"""

from __future__ import annotations

from .gf import Field
from .lincode import LinearCode, check_enum_budget


def enumerate_code(code: LinearCode, budget: int | None = None) -> set[tuple[int, ...]]:
    """All codewords, by walking every combination of generator rows."""
    f = code.field
    check_enum_budget(f.q, code.k, budget)
    words = {(0,) * code.n}
    for row in code.gen:
        scaled = [tuple(f.mul(c, e) for e in row) for c in range(f.q)]
        words = {
            tuple(f.add(a, b) for a, b in zip(w, s)) for w in words for s in scaled
        }
    return words


def echelon(f: Field, rows) -> list[tuple[int, list[int]]]:
    """A basis of the span of ``rows`` as (pivot, row) pairs: each row is 1
    at its pivot and 0 at the pivots of the rows before it."""
    basis = []
    for row in rows:
        rest = _reduce(f, basis, row)
        pivot = next((j for j, e in enumerate(rest) if e), None)
        if pivot is not None:
            scale = f.inv(rest[pivot])
            basis.append((pivot, [f.mul(scale, e) for e in rest]))
    return basis


def in_span(f: Field, basis, word) -> bool:
    """Whether ``word`` lies in the span of an `echelon` basis."""
    return not any(_reduce(f, basis, word))


def _reduce(f: Field, basis, word) -> list[int]:
    """``word`` minus the combination of basis rows that clears every pivot;
    a later row is 0 at each earlier pivot, so one pass in order suffices."""
    out = list(word)
    for pivot, row in basis:
        if out[pivot]:
            c = f.neg(out[pivot])
            out = [f.add(a, f.mul(c, b)) for a, b in zip(out, row)]
    return out


def intersect_codes(a: LinearCode, b: LinearCode, budget: int | None = None) -> set[tuple[int, ...]]:
    """The words of the code with fewer words that lie in the other's span.
    Both q^k are held to the budget, as when both sides were enumerated."""
    check_enum_budget(a.field.q, a.k, budget)
    check_enum_budget(b.field.q, b.k, budget)
    small, large = (a, b) if a.k <= b.k else (b, a)
    basis = echelon(a.field, large.gen)
    return {w for w in enumerate_code(small, budget) if in_span(a.field, basis, w)}


def intersect_galois_dual(
    a: LinearCode, b: LinearCode, kappa: int = 0, budget: int | None = None
) -> set[tuple[int, ...]]:
    """The kappa-Galois dual of a met with b: the words of b kappa-orthogonal
    to every generator row of a, tested as `galois_dual_set` tests a vector.
    q^n is held to the budget, as when the dual was scanned."""
    f = a.field
    check_enum_budget(f.q, a.n, budget)
    gens = _sigma_rows(a, kappa)
    return {w for w in enumerate_code(b, budget) if all(_dot(f, w, g) == 0 for g in gens)}


def galois_dual_set(code: LinearCode, kappa: int = 0, budget: int | None = None) -> set[tuple[int, ...]]:
    """The kappa-Galois dual, by scanning the entire ambient space.

    v belongs iff sum_i c_i * v_i^(p^kappa) = 0 for every codeword c; kappa=0
    is the Euclidean dual.  Applying sigma^(e-kappa) turns the condition into
    an ordinary dot product against sigma^(e-kappa)-mapped codewords, and the
    form is linear in c, so testing the generator rows suffices.
    """
    f = code.field
    check_enum_budget(f.q, code.n, budget)
    gens = _sigma_rows(code, kappa)
    out = set()
    for raw in range(f.q**code.n):
        cand, left = [], raw
        for _ in range(code.n):
            left, digit = divmod(left, f.q)
            cand.append(digit)
        cand = tuple(cand)
        if all(_dot(f, cand, g) == 0 for g in gens):
            out.add(cand)
    return out


def _sigma_rows(code: LinearCode, kappa: int) -> list[tuple[int, ...]]:
    """The generator rows under sigma^(e-kappa), as `galois_dual_set` says."""
    f = code.field
    return [tuple(f.frobenius(c, f.e - kappa) for c in row) for row in code.gen]


def _dot(f: Field, u, v) -> int:
    acc = 0
    for a, b in zip(u, v):
        acc = f.add(acc, f.mul(a, b))
    return acc


def twisted_shift(f: Field, blocks, shifts, vec) -> tuple[int, ...]:
    """Independent rebuild of the blockwise twisted rotation."""
    out = []
    at = 0
    for m, s in zip(blocks, shifts):
        chunk = vec[at : at + m]
        out.append(f.mul(s, chunk[m - 1]))
        out.extend(chunk[: m - 1])
        at += m
    return tuple(out)


def is_invariant(code: LinearCode, blocks, shifts, budget: int | None = None) -> bool:
    """Whether the codeword set is closed under the twisted shift."""
    words = enumerate_code(code, budget)
    return all(twisted_shift(code.field, blocks, shifts, w) in words for w in words)


def reverse_words(words) -> set[tuple[int, ...]]:
    return {tuple(reversed(w)) for w in words}


def same_code(code: LinearCode, words, budget: int | None = None) -> bool:
    """Exact set equality between a linear code and an explicit word set."""
    return enumerate_code(code, budget) == set(words)


def min_distance_of_words(words) -> float:
    best = float("inf")
    for w in words:
        wt = sum(1 for e in w if e)
        if 0 < wt < best:
            best = wt
    return best
