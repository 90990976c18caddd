#!/usr/bin/env python3
"""Randomized cross-validation of structured operations against brute force.

Runs the test suite's sweep case (`tests/helpers.py`: `sweep_pair` draws a
same-profile pair of multi-twisted codes over a small field, and
`check_structured_vs_oracle` compares every structured operation with a
set-level enumeration oracle) for a range of seeds.  A case that fails is
printed with its seed, so it reproduces with

    python3 scripts/cross_validate.py --seed-base <seed> --cases 1

The defaults finish in a few seconds; crank --cases for a longer soak.
"""

import argparse
import pathlib
import random
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import check_structured_vs_oracle


def run(cases: int, seed_base: int, verbose: bool) -> int:
    t0 = time.monotonic()
    failures = 0
    for seed in range(seed_base, seed_base + cases):
        # The seed also picks the field (seed modulo the sweep's fields),
        # so a case is named by its seed alone.
        try:
            check_structured_vs_oracle(random.Random(seed), seed)
        except Exception:  # one failing case must not end the soak
            failures += 1
            print(f"MISMATCH seed={seed}")
            traceback.print_exc(file=sys.stdout)
        else:
            if verbose:
                print(f"ok seed={seed}")
    dt = time.monotonic() - t0
    print(f"{cases} cases, {failures} mismatches, {dt:.1f}s")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", type=int, default=100)
    ap.add_argument("--seed-base", type=int, default=77_000)
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)
    return run(args.cases, args.seed_base, args.verbose)


if __name__ == "__main__":
    sys.exit(main())
