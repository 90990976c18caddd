"""The three workloads: closed-loop timed runs, checks and metrics.

One single-threaded process drives every workload; the next operation
starts when the previous one returns.  cli-fixtures runs each command in a
fresh child interpreter, one at a time.  A run repeats whole rounds until
``seconds`` of wall time have passed; a traced run instead runs a fixed
number of rounds twice, untraced and traced, so that its counts repeat
exactly and the difference of the two gives the tracing overhead.

End-to-end times are scaled to a reference machine speed by a kernel timed
in the same interpreter (see speed.py): on a shared host the same code ran
up to 1.5 times slower in one 30 s window than in the next.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

import inputs
import spans
import verify
from speed import Speed, scale

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SETUP_REPS = 9
CHILD_TIMEOUT = 150
TRACE_ROUNDS = {"cli-fixtures": 1, "gpm-algebra": 2, "layer-tables": 1}


class Tally:
    """Operation times and outcomes of one run."""

    def __init__(self):
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.scale = 1.0

    def record(self, label: str, problems: list[str], wrong: bool) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += wrong
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def end_to_end(tally: Tally, setup_s: float, rss_kb: int, factor: float = 1.0, typical=None) -> dict:
    """End-to-end metrics, every op time multiplied by `factor`.  The
    quantiles are taken over `typical` op times when given, else over all."""
    times = tally.times
    typical = times if typical is None else typical
    return {
        "ops_per_s": ((tally.attempted - tally.failed) / (sum(times) * factor), "1/s"),
        "op_p50_s": (statistics.median(typical) * factor, "s"),
        "op_p90_s": (statistics.quantiles(typical, n=10)[8] * factor, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MTCODES_ENUM_BUDGET", None)
    return env


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------

def library_setup(root: str, fields) -> float:
    """Median over fresh interpreters of importing mtcodes and building
    every Field the workload uses, each scaled by the kernel timed in that
    interpreter."""
    args = [f"{p},{e}" for p, e, _ in fields]
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, CHILD, "setup", root, *args],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT, env=child_env(), check=True,
        )
        rep = json.loads(out.stdout)
        times.append(rep["setup_s"] * scale(rep["kernel"]))
    return statistics.median(times)


def gpm_ops(pair):
    """(name, call) for each operation on one pair; a call gets the results
    of the earlier ones."""
    from mtcodes import MTCode, MTProfile, Poly, field

    prof = pair.profile
    fld = field(prof.p, prof.e)
    mprof = MTProfile(fld, prof.blocks, prof.shifts)
    rows_c = [[Poly(fld, e) for e in r] for r in pair.rows_c]
    rows_d = [[Poly(fld, e) for e in r] for r in pair.rows_d]
    k = prof.kappa
    return [
        ("construct_c", lambda o: MTCode(mprof, rows_c)),
        ("construct_d", lambda o: MTCode(mprof, rows_d)),
        ("intersection", lambda o: o["construct_c"].intersect(o["construct_d"])),
        ("galois_dual", lambda o: o["construct_c"].galois_dual(k)),
        ("reversed", lambda o: o["construct_c"].reversed_code()),
        ("so", lambda o: o["construct_c"].property_check("self_orthogonal", k)),
        ("dc", lambda o: o["construct_c"].property_check("dual_containing", k)),
        ("subcode", lambda o: o["construct_c"].is_subcode_of(o["construct_d"])),
    ]


def layer_ops(doc):
    from mtcodes import MTCode, MTProfile, Poly, field

    prof = doc.profile
    fld = field(prof.p, prof.e)
    mprof = MTProfile(fld, prof.blocks, prof.shifts)
    k = prof.kappa
    ops = []
    for i, rows in enumerate(doc.codes):
        prows = [[Poly(fld, e) for e in r] for r in rows]
        ops.append((("construct", i), lambda o, prows=prows: MTCode(mprof, prows)))
    for i in range(len(doc.codes)):
        ops.append((("lcd", i), lambda o, i=i: o[("construct", i)].property_check("lcd", k)))
    for i in range(len(doc.codes)):
        for j in range(i + 1, len(doc.codes)):
            ops.append((("trivial", i, j), lambda o, i=i, j=j: o[("construct", i)].trivially_intersects(o[("construct", j)])))
    return ops


LIBRARY = {
    "gpm-algebra": (inputs.gpm_round, gpm_ops, verify.check_gpm_ops, inputs.GPM_FIELDS),
    "layer-tables": (inputs.layer_round, layer_ops, verify.check_layer_doc, tuple(inputs.LAYER_PERIODS)),
}


def run_items(name, items, tally: Tally, tracer=None, speed=None) -> None:
    """Run every operation of every item, timing each; check afterwards."""
    _, make_ops, check, _ = LIBRARY[name]
    clock = time.perf_counter
    for item in items:
        out, raised = {}, {}
        for label, call in make_ops(item):
            if tracer is not None:
                tracer.begin_op(tally.attempted + len(out) + len(raised), str(label))
            t = clock()
            try:
                out[label] = call(out)
            except Exception as exc:  # a failed operation is counted, not fatal
                raised[label] = repr(exc)
            finally:
                dt = clock() - t
                if tracer is not None:
                    tracer.end_op()
            tally.times.append(dt)
            if speed is not None:
                speed.after(dt)
        found = {}
        if not raised:
            try:
                found = check(item, out)
            except Exception as exc:  # an output the checks cannot read is wrong
                found = {label: [f"check raised {exc!r}"] for label in out}
        for label in list(out) + list(raised):
            if label in raised:
                tally.record(str(label), [raised[label]], wrong=False)
            else:
                probs = found.get(label, [] if not raised else ["not checked: an earlier operation raised"])
                tally.record(str(label), probs, wrong=bool(probs) and not raised)


def run_library(name: str, root: str, seed: int, seconds: float, trace: bool):
    make_round, _, _, fields = LIBRARY[name]
    from mtcodes import field

    for p, e, _ in fields:
        field(p, e)
    if trace:
        return trace_library(name, seed)
    setup_s = library_setup(root, fields)
    speed = Speed()
    tally = Tally()
    start = time.monotonic()
    rnd = 0
    while rnd == 0 or time.monotonic() - start < seconds:
        run_items(name, make_round(seed, rnd), tally, speed=speed)
        rnd += 1
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tally.scale = speed.factor()
    return tally, end_to_end(tally, setup_s, rss, tally.scale), None


def trace_library(name: str, seed: int):
    make_round = LIBRARY[name][0]
    items = [x for r in range(TRACE_ROUNDS[name]) for x in make_round(seed, r)]
    tally = Tally()
    run_items(name, items, tally)
    plain = sum(tally.times)
    tracer = spans.Tracer()
    tracer.install()
    try:
        run_items(name, items, tally, tracer)
    finally:
        tracer.uninstall()
    overhead = sum(tally.times) - 2 * plain
    return tally, layer_report(tracer.spans, overhead), tracer.spans


def layer_report(span_list, overhead_s: float) -> dict:
    from mtcodes import field

    units = spans.per_layer_units()
    values = spans.layer_metrics(span_list)
    for tag, (p, e) in (("q9", (3, 2)), ("q289", (17, 2))):
        for meth, ns in spans.field_op_ns(field(p, e)).items():
            values[f"gf.{meth}_ns.{tag}"] = ns
    values["trace.overhead_s"] = overhead_s
    return {name: (values[name], unit) for name, unit in units.items()}


# ---------------------------------------------------------------------------
# cli-fixtures
# ---------------------------------------------------------------------------

def run_command(root: str, argv, trace: bool) -> dict:
    """One command in a fresh interpreter; adds set-up time and the child's
    speed scale to the report."""
    cmd = [sys.executable, CHILD, "cli", root, "1" if trace else "0", *argv]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
                          cwd=root, env=child_env())
    if proc.returncode != 0:
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["t_call"] - t_spawn
    rep["scale"] = scale(rep["kernel"])
    return rep


def run_pass(root: str, checker, tally: Tally, reports: list, trace: bool, by_cmd=None) -> None:
    """One pass over the commands.  Untraced op times are scaled by each
    child's own kernel; traced ones stay raw, like every per-layer time."""
    for cmd in inputs.CLI_COMMANDS:
        argv = list(cmd) + ["--json"]
        rep = run_command(root, argv, trace)
        label = " ".join(cmd)
        if "error" in rep:
            tally.record(label, [rep["error"]], wrong=False)
            continue
        op_s = rep["op_s"] if trace else rep["op_s"] * rep["scale"]
        tally.times.append(op_s)
        if by_cmd is not None:
            by_cmd.setdefault(label, []).append(op_s)
        probs = checker.check(argv, rep["rc"], rep["out"])
        tally.record(label, probs, wrong=bool(probs))
        rep.pop("out")
        reports.append(rep)


def run_cli(root: str, seconds: float, trace: bool):
    checker = verify.CliChecker(root)
    tally, reports = Tally(), []
    if trace:
        for _ in range(TRACE_ROUNDS["cli-fixtures"]):
            run_pass(root, checker, tally, reports, trace=False)
        plain = sum(r["op_s"] for r in reports)
        traced_reports = []
        for _ in range(TRACE_ROUNDS["cli-fixtures"]):
            run_pass(root, checker, tally, traced_reports, trace=True)
        all_spans = []
        for op, rep in enumerate(traced_reports):
            base = len(all_spans) and (max(s[1] for s in all_spans) + 1)
            for s in rep["spans"]:
                parent = None if s[2] is None else s[2] + base
                all_spans.append((op, s[1] + base, parent, *s[3:]))
        overhead = sum(r["op_s"] for r in traced_reports) - plain
        return tally, layer_report(all_spans, overhead), all_spans
    by_cmd = {}
    start = time.monotonic()
    while not reports or time.monotonic() - start < seconds:
        run_pass(root, checker, tally, reports, trace=False, by_cmd=by_cmd)
    setup_s = statistics.median(r["setup_s"] * r["scale"] for r in reports)
    rss = max(r["rss_kb"] for r in reports)
    tally.scale = statistics.median(r["scale"] for r in reports)
    # The same commands repeat pass after pass, so the quantiles are taken
    # over each command's median time: one slow pass then moves nothing.
    typical = [statistics.median(ts) for ts in by_cmd.values()]
    return tally, end_to_end(tally, setup_s, rss, typical=typical), None


def run(name: str, root: str, seed: int, seconds: float, trace: bool):
    """(tally, {metric: (value, unit)}, spans or None) for one run."""
    if name == "cli-fixtures":
        return run_cli(root, seconds, trace)
    return run_library(name, root, seed, seconds, trace)
