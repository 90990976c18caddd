"""Tests of the benchmark itself: deterministic inputs, checks that reject
wrong answers, and per-layer counts that repeat.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import inputs  # noqa: E402
import loads  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402

COUNTS = [name for name, unit in spans.per_layer_units().items() if unit in ("count", "degree")]


def run_ops(make_ops, item):
    out = {}
    for label, call in make_ops(item):
        out[label] = call(out)
    return out


def cheapest_pair(seed=3):
    return min(inputs.gpm_round(seed, 0), key=lambda p: (p.profile.p ** p.profile.e, sum(p.profile.blocks)))


def small_doc(seed=3):
    docs = [d for d in inputs.layer_round(seed, 0) if d.profile.p ** d.profile.e == 4]
    return docs[0]


# -- generators ---------------------------------------------------------------

@pytest.mark.parametrize("gen", [inputs.gpm_round, inputs.layer_round])
def test_generator_is_deterministic_for_a_seed(gen):
    assert gen(5, 1) == gen(5, 1)
    assert gen(5, 1) != gen(6, 1)
    assert gen(5, 1) != gen(5, 2)


def test_rounds_hold_the_same_mix_for_every_seed():
    def mix(seed):
        return sorted((p.profile.p, p.profile.e, len(p.profile.blocks)) for p in inputs.gpm_round(seed, 0))

    assert mix(1) == mix(2)

    def periods(seed):
        return sorted((d.profile.p, d.profile.e, d.profile.period) for d in inputs.layer_round(seed, 0))

    assert periods(1) == periods(2)


def test_generated_codes_are_neither_zero_nor_full():
    import arith

    pair = cheapest_pair()
    prof = pair.profile
    f = inputs.own_field(prof.p, prof.e)
    mods = verify.moduli(f, prof.blocks, prof.shifts)
    for rows in (pair.rows_c, pair.rows_d):
        assert 0 < arith.module_dim(f, rows, mods) < sum(prof.blocks)


# -- checks reject wrong answers ---------------------------------------------

def test_gpm_checks_pass_and_reject_corruptions():
    from mtcodes import MTCode

    pair = cheapest_pair()
    out = run_ops(loads.gpm_ops, pair)
    assert all(not p for p in verify.check_gpm_ops(pair, out).values())

    c = out["construct_c"]
    # Drop a GPM row that carries part of the code: one whose diagonal
    # entry is a proper divisor of its block modulus.
    live = next(i for i, m in enumerate(c.profile.blocks) if c.gpm.rows[i][i].degree < m)
    rows = [list(r) for i, r in enumerate(c.gpm.rows) if i != live]
    dropped = dict(out, construct_c=MTCode(c.profile, rows))
    assert verify.check_gpm_ops(pair, dropped)["construct_c"]
    assert verify.check_gpm_ops(pair, dict(out, galois_dual=c))["galois_dual"]
    assert verify.check_gpm_ops(pair, dict(out, reversed=MTCode.zero(out["reversed"].profile)))["reversed"]
    wrong_meet = MTCode.zero(c.profile) if out["intersection"].dim else c
    assert verify.check_gpm_ops(pair, dict(out, intersection=wrong_meet))["intersection"]
    for op in ("so", "dc"):
        flipped = dict(out, **{op: types.SimpleNamespace(holds=not out[op].holds)})
        assert verify.check_gpm_ops(pair, flipped)[op]
    assert verify.check_gpm_ops(pair, dict(out, subcode=not out["subcode"]))["subcode"]


def test_layer_checks_pass_and_reject_corruptions():
    doc = small_doc()
    out = run_ops(loads.layer_ops, doc)
    assert all(not p for p in verify.check_layer_doc(doc, out).values())

    def corrupted(key, value):
        return verify.check_layer_doc(doc, {**out, key: value})[key]

    lcd = out[("lcd", 0)]
    assert corrupted(("lcd", 0), types.SimpleNamespace(holds=not lcd.holds, table=lcd.table))
    short = types.SimpleNamespace(layers=lcd.table.layers[1:])
    assert corrupted(("lcd", 0), types.SimpleNamespace(holds=lcd.holds, table=short))
    key = ("trivial", 0, 1)
    assert corrupted(key, not out[key])


def cli_report(argv):
    rep = loads.run_command(ROOT, argv, trace=False)
    assert rep["rc"] == 0
    return rep["out"]


def test_cli_checks_pass_and_reject_corruptions():
    checker = verify.CliChecker(ROOT)
    info = ["info", inputs.F4, "--json"]
    out = cli_report(info)
    assert checker.check(info, 0, out) == []

    rep = json.loads(out)
    rep["codes"][0]["generator"] = rep["codes"][0]["generator"][1:]
    assert checker.check(info, 0, json.dumps(rep))
    rep = json.loads(out)
    rep["codes"][1]["distance"] += 1
    assert checker.check(info, 0, json.dumps(rep))
    assert checker.check(info, 1, out)

    so = ["check", inputs.F3, "C3", "--so", "0", "--json"]
    out = cli_report(so)
    assert checker.check(so, 0, out) == []
    rep = json.loads(out)
    rep["result"]["holds"] = not rep["result"]["holds"]
    assert checker.check(so, 0, json.dumps(rep))


def test_lcd_check_uses_the_hull_dimension():
    checker = verify.CliChecker(ROOT)
    argv = ["check", inputs.F9, "C6", "--lcd", "1", "--json"]
    rep = {"result": {"holds": True, "total": 5, "target": 5}}
    assert checker.check(argv, 0, json.dumps(rep)) == []
    rep = {"result": {"holds": False, "total": 4, "target": 5}}
    assert checker.check(argv, 0, json.dumps(rep))


# -- traced counts -------------------------------------------------------------

def traced_counts(name, items):
    tracer = spans.Tracer()
    tally = loads.Tally()
    tracer.install()
    try:
        loads.run_items(name, items, tally, tracer)
    finally:
        tracer.uninstall()
    assert tally.failed == 0
    metrics = spans.layer_metrics(tracer.spans)
    return {k: metrics[k] for k in COUNTS}


def test_layer_counts_repeat_between_traced_runs():
    pairs = sorted(inputs.gpm_round(3, 0), key=lambda p: sum(p.profile.blocks))[:3]
    first = traced_counts("gpm-algebra", pairs)
    assert first == traced_counts("gpm-algebra", pairs)
    assert first["upoly.factor.calls"] == 0
    assert first["lincode.min_distance.words"] == 0
    assert first["pmat.hnf.calls"] > 0

    docs = [small_doc()]
    first = traced_counts("layer-tables", docs)
    assert first == traced_counts("layer-tables", docs)
    assert first["upoly.factor.calls"] > 0
    assert first["lincode.min_distance.words"] == 0


def test_cli_counts_repeat_between_traced_runs():
    argv = ["info", inputs.F4, "--json"]
    runs = [loads.run_command(ROOT, argv, trace=True) for _ in range(2)]
    counts = [{k: spans.layer_metrics([tuple(s) for s in r["spans"]])[k] for k in COUNTS} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["lincode.min_distance.words"] > 0


def test_install_is_undone():
    from mtcodes import Field, Poly, pmat

    before = (Field.add, Poly.__mul__, pmat.hnf)
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert (Field.add, Poly.__mul__, pmat.hnf) == before


# -- the benchmark's declared metrics -----------------------------------------

def test_declared_metrics_match_the_report():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    units = spans.per_layer_units()
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(units.items())
    tally = loads.Tally()
    tally.times, tally.attempted = [1.0, 2.0], 2
    e2e = loads.end_to_end(tally, 0.1, 1024)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
