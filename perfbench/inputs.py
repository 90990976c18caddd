"""Seeded inputs for the three workloads.

Inputs are plain data (ints and coefficient lists); a workload turns them
into program objects inside its timed region.  Everything is drawn from
``random.Random`` seeded by the workload seed and the round number, so the
same seed gives the same inputs whatever the program's speed.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import arith

# (p, e, kappa): the fields of gpm-algebra, each with the Galois exponent
# whose precondition sigma^(e-kappa)(lam^-1) = lam the drawn shifts meet, so
# that the SO/DC congruences run instead of reporting an unmet precondition.
GPM_FIELDS = ((2, 1, 0), (3, 1, 0), (2, 2, 1), (3, 2, 1), (2, 4, 2), (17, 2, 1))
GPM_INDEX = range(2, 9)
GPM_BLOCKS = range(2, 10)
GPM_PERIOD_CAP = 360

# layer-tables: (p, e, kappa) -> periods N, one document each per round.
# Each table field has one N with p | N (layer tables by chain_type) and one
# without (rank_mod only); GF(257) has no N < 361 divisible by 257 and takes
# N = 64 = 2 * 32, which needs blocks up to 32.  The periods were picked so
# that factoring x^N - 1 takes 0.07-0.25 s at the commit that added this
# benchmark: no document dominates a run, and the slowest operations do not
# all come from one field (which would put op_p90_s on a jump between
# fields).
LAYER_PERIODS = {
    (3, 1, 0): (104, 264),
    (5, 1, 0): (96, 220),
    (2, 2, 1): (105, 210),
    (3, 2, 1): (80, 150),
    (2, 4, 2): (105, 130),
    (257, 1, 0): (64,),
}
LAYER_CODES = 3
LAYER_MAX_BLOCK = 32

# cli-fixtures: the commands behind tests/goldens/ plus the README's oracle
# command, each run with --json.
F3, F4, F9 = "fixtures/f3_codes.txt", "fixtures/f4_codes.txt", "fixtures/f9_codes.txt"
CLI_COMMANDS = (
    ("info", F4),
    ("intersect", F4, "C1", "C2"),
    ("intersect", F4, "C1", "C2", "--galois", "1"),
    ("dual", F4, "C1", "--galois", "1"),
    ("reverse", F4, "C1"),
    ("info", F3),
    ("check", F3, "C3", "--so", "0"),
    ("check", F3, "C5", "--reversible"),
    ("check", F3, "C3", "--advisor", "C5"),
    ("info", F9),
    ("check", F9, "C6", "--lcd", "1"),
    ("intersect", F4, "C1", "C2", "--oracle"),
)


@functools.lru_cache(maxsize=None)
def own_field(p: int, e: int) -> arith.GF:
    """The benchmark's arithmetic for the program's GF(p^e), same modulus."""
    from mtcodes import field

    return arith.GF(p, e, field(p, e).modulus)


def compatible_shifts(f: arith.GF, kappa: int) -> list[int]:
    return [a for a in range(1, f.q) if f.frob(f.inv(a), f.e - kappa) == a]


def period(f: arith.GF, blocks, shifts) -> int:
    return math.lcm(*(f.order(s) * m for m, s in zip(blocks, shifts)))


def divisors(f: arith.GF, m: int, lam: int) -> list[list[int]]:
    """Proper divisors x^j - mu of x^m - lam (j | m, mu^(m/j) = lam)."""
    out = []
    for j in range(1, m):
        if m % j:
            continue
        for mu in range(1, f.q):
            if f.pow(mu, m // j) == lam:
                out.append(arith.binomial(f, j, mu))
    return out


@dataclass(frozen=True)
class Profile:
    p: int
    e: int
    kappa: int
    blocks: tuple[int, ...]
    shifts: tuple[int, ...]
    period: int


def random_rows(rng: random.Random, f: arith.GF, prof: Profile) -> list[list[list[int]]]:
    """Upper triangular generating rows with divisors of the block moduli on
    the diagonal, drawn until the code is neither zero nor full."""
    moduli = [arith.binomial(f, m, s) for m, s in zip(prof.blocks, prof.shifts)]
    n = sum(prof.blocks)
    choices = [[[1]] + divisors(f, m, s) + [mod] for m, s, mod in zip(prof.blocks, prof.shifts, moduli)]
    while True:
        rows = []
        for i, m in enumerate(prof.blocks):
            row = [[] for _ in prof.blocks]
            row[i] = list(rng.choice(choices[i]))
            for j in range(i + 1, len(prof.blocks)):
                row[j] = arith.trim([rng.randrange(f.q) for _ in range(prof.blocks[j])])
            rows.append(row)
        if 0 < arith.module_dim(f, rows, moduli) < n:
            return rows


@dataclass(frozen=True)
class GpmPair:
    profile: Profile
    rows_c: list
    rows_d: list


def gpm_round(seed: int, rnd: int) -> list[GpmPair]:
    """Round number `rnd` of the gpm-algebra stream: one same-profile pair
    per (field, index) combination, in a seeded order.

    Every round holds the same combinations, so no seed's run is heavier
    than another's by its mix.  GF(17^2) has no tables and its HNFs cost
    about twenty times more per entry, so it takes index 2-4 only.  Block
    lengths and shifts are drawn until the period is at most
    GPM_PERIOD_CAP.  Half the pairs have D = C + one more row, so the
    subcode test answers both ways.
    """
    rng = random.Random(f"gpm-algebra/{seed}/{rnd}")
    combos = [(fs, ell) for fs in GPM_FIELDS for ell in GPM_INDEX if fs[0] ** fs[1] <= 256 or ell <= 4]
    rng.shuffle(combos)
    return [gpm_pair(rng, fs, ell) for fs, ell in combos]


def gpm_pair(rng: random.Random, fspec, ell: int) -> GpmPair:
    p, e, kappa = fspec
    f = own_field(p, e)
    shifts_ok = compatible_shifts(f, kappa)
    while True:
        blocks = tuple(rng.choice(GPM_BLOCKS) for _ in range(ell))
        shifts = tuple(rng.choice(shifts_ok) for _ in range(ell))
        n_period = period(f, blocks, shifts)
        if n_period <= GPM_PERIOD_CAP:
            break
    prof = Profile(p, e, kappa, blocks, shifts, n_period)
    rows_c = random_rows(rng, f, prof)
    if rng.random() < 0.5:
        rows_d = rows_c + random_rows(rng, f, prof)[:1]
    else:
        rows_d = random_rows(rng, f, prof)
    return GpmPair(prof, rows_c, rows_d)


@dataclass(frozen=True)
class LayerDoc:
    profile: Profile
    codes: list


def layer_round(seed: int, rnd: int) -> list[LayerDoc]:
    """Round number `rnd` of layer-tables: one document per (field, period)
    pair, in a seeded order, each with LAYER_CODES codes of one profile.

    Every round holds the same pairs, so the seed chooses blocks, shifts and
    codes but not how heavy a run is.
    """
    rng = random.Random(f"layer-tables/{seed}/{rnd}")
    pairs = [(spec, n) for spec, periods in LAYER_PERIODS.items() for n in periods]
    rng.shuffle(pairs)
    return [layer_doc(rng, spec, n) for spec, n in pairs]


def layer_doc(rng: random.Random, spec, n_period: int) -> LayerDoc:
    p, e, kappa = spec
    f = own_field(p, e)
    options = [
        (s, m)
        for s in compatible_shifts(f, kappa)
        for m in range(2, LAYER_MAX_BLOCK + 1)
        if n_period % (f.order(s) * m) == 0
    ]
    while True:
        picks = [rng.choice(options) for _ in range(rng.choice((2, 3)))]
        blocks = tuple(m for _, m in picks)
        shifts = tuple(s for s, _ in picks)
        if period(f, blocks, shifts) == n_period:
            break
    prof = Profile(p, e, kappa, blocks, shifts, n_period)
    return LayerDoc(prof, [random_rows(rng, f, prof) for _ in range(LAYER_CODES)])
