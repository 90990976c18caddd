#!/usr/bin/env python3
"""Survey the bundled code documents.

For every code in each document the script prints the parameters, the
generator polynomial matrix, and a small property panel (Galois
self-orthogonality, dual containment, complementary dual, and
reversibility where the respective congruence applies).  Within a
document it also reports every pairwise intersection.

    python3 scripts/fixture_report.py
    python3 scripts/fixture_report.py --fixtures fixtures/f3_codes.txt --kappa 1
"""

import argparse
import pathlib
import sys
from dataclasses import dataclass

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mtcodes import MTCode
from mtcodes.cli import load_document
from mtcodes.errors import BudgetError
from mtcodes.lincode import ENUM_BUDGET

ROOT = pathlib.Path(__file__).resolve().parent.parent

DEFAULT_FIXTURES = (
    "fixtures/f4_codes.txt",
    "fixtures/f3_codes.txt",
    "fixtures/f9_codes.txt",
)

PROPS = ("self_orthogonal", "dual_containing", "lcd", "reversible")


@dataclass
class ReportConfig:
    fixtures: tuple[str, ...] = DEFAULT_FIXTURES
    kappa: int = 0
    distance_budget: int = ENUM_BUDGET
    pairwise: bool = True


def _distance_text(code, budget: int) -> str:
    try:
        d = code.min_distance(budget=budget)
    except BudgetError:
        return "?"
    return "inf" if d == float("inf") else str(d)


def describe_code(name: str, code, cfg: ReportConfig) -> None:
    if isinstance(code, MTCode):
        d = _distance_text(code, cfg.distance_budget)
        print(f"  {name}: [{code.n}, {code.dim}, {d}] over {code.field.header()}")
        print(f"    blocks {code.profile.blocks}  shifts "
              + " ".join(code.field.format_element(s) for s in code.profile.shifts)
              + f"  period {code.profile.period}")
        for row in str(code.gpm).splitlines():
            print(f"    gpm | {row}")
        for prop in PROPS:
            kappa = 0 if prop == "reversible" else cfg.kappa
            check = code.property_check(prop, kappa=kappa)
            verdict = "n/a" if check.holds is None else str(check.holds)
            note = f"  ({check.note})" if check.note else ""
            print(f"    {prop}(kappa={kappa}): {verdict}{note}")
    else:
        d = _distance_text(code, cfg.distance_budget)
        print(f"  {name}: linear [{code.n}, {code.k}, {d}] over {code.field.header()}")


def pairwise_intersections(doc, cfg: ReportConfig) -> None:
    names = list(doc.codes)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            ca, cb = doc.codes[a], doc.codes[b]
            if not (isinstance(ca, MTCode) and isinstance(cb, MTCode)):
                continue
            if ca.profile.blocks != cb.profile.blocks:
                continue
            if ca.profile.shifts == cb.profile.shifts:
                meet = ca.intersect(cb)
                k, route = meet.dim, "gpm"
            else:
                meet = ca.to_linear().intersect(cb.to_linear())
                k, route = meet.k, "linear"
            d = _distance_text(meet, cfg.distance_budget)
            print(f"  {a} meet {b}: [{meet.n}, {k}, {d}]  via {route}")


def run(cfg: ReportConfig) -> int:
    for rel in cfg.fixtures:
        path = ROOT / rel
        doc = load_document(str(path))
        print(f"{rel} ({doc.field.header()})")
        for name, code in doc.codes.items():
            describe_code(name, code, cfg)
        if cfg.pairwise and len(doc.codes) > 1:
            print("  pairwise:")
            pairwise_intersections(doc, cfg)
        print()
    return 0


def parse_args(argv=None) -> ReportConfig:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fixtures", nargs="+", default=list(DEFAULT_FIXTURES),
                    help="documents to survey, relative to the repo root")
    ap.add_argument("--kappa", type=int, default=0,
                    help="Galois exponent for the property panel")
    ap.add_argument("--budget", type=int, default=ENUM_BUDGET,
                    help="enumeration cap for distances; larger codes print '?'")
    ap.add_argument("--no-pairwise", action="store_true",
                    help="skip the pairwise intersection table")
    args = ap.parse_args(argv)
    return ReportConfig(
        fixtures=tuple(args.fixtures),
        kappa=args.kappa,
        distance_budget=args.budget,
        pairwise=not args.no_pairwise,
    )


if __name__ == "__main__":
    sys.exit(run(parse_args()))
