"""Brute-force reference implementations for cross-checking.

Everything here works on explicit sets of codewords and deliberately avoids
the polynomial-matrix machinery: duals scan the whole ambient space,
intersections intersect sets, and the twisted shift is rebuilt from scratch
against block lengths and shift constants.  Meant for small parameters
only; every routine takes an enumeration budget and refuses to exceed it.
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


def intersect_codes(a: LinearCode, b: LinearCode, budget: int | None = None) -> set[tuple[int, ...]]:
    return enumerate_code(a, budget) & enumerate_code(b, budget)


def galois_dual_set(code: LinearCode, kappa: int = 0, budget: int | None = None) -> set[tuple[int, ...]]:
    """The kappa-Galois dual, by scanning the entire ambient space.

    v belongs iff sum_i c_i * v_i^(p^kappa) = 0 for every codeword c; kappa=0
    is the Euclidean dual.  Applying sigma^(e-kappa) turns the condition into
    an ordinary dot product against sigma^(e-kappa)-mapped codewords, and the
    form is linear in c, so testing the generator rows suffices.
    """
    f = code.field
    check_enum_budget(f.q, code.n, budget)
    gens = [tuple(f.frobenius(c, f.e - kappa) for c in row) for row in code.gen]
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
