"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: cli-fixtures, gpm-algebra,
layer-tables (see README.md).  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 it has
the per-layer metrics of a separate traced run.  The result, and with
--trace 1 the spans, are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-fixtures", "gpm-algebra", "layer-tables")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mtcodes", "__init__.py")):
        print(f"error: no mtcodes sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import mtcodes

    if not os.path.abspath(mtcodes.__file__).startswith(src + os.sep):
        print(f"error: imported mtcodes from {mtcodes.__file__}, not from {src}", file=sys.stderr)
        return 2

    import loads

    tally, metrics, span_list = loads.run(args.workload, ROOT, args.seed, args.seconds, bool(args.trace))
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for line in tally.problems:
        print(f"problem: {line}", file=sys.stderr)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if span_list is not None:
        with open(os.path.join(out_dir, f"spans-{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "id", "parent", "name", "start", "end", "gf_calls",
                                  "mul_calls", "mul_s", "divmod_calls", "divmod_s", "count", "degree"],
                       "spans": span_list}, fh)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(f"attempted {tally.attempted} failed {tally.failed} correct {result['correct']} "
          f"time scale {tally.scale:.4f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
