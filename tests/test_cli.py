"""CLI behavior: document parsing, exit codes, payload shape, determinism."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mtcodes import Field
from mtcodes.cli import main, parse_args, parse_document, parse_field_header, scalar_rows
from mtcodes.errors import ParseError
from mtcodes.upoly import Poly

from helpers import reference_parser
from test_goldens import CASES as GOLDEN_CASES

ROOT = Path(__file__).parent.parent
FIXTURES = ROOT / "fixtures"
F4_DOC = str(FIXTURES / "f4_codes.txt")
F3_DOC = str(FIXTURES / "f3_codes.txt")
F9_DOC = str(FIXTURES / "f9_codes.txt")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


# -- document parsing --------------------------------------------------------

def test_parse_document_fixture():
    doc = parse_document(Path(F4_DOC).read_text())
    assert set(doc.codes) == {"C1", "C2", "C1lin", "C2lin", "Z"}
    assert doc.field.q == 4


def test_parse_errors():
    with pytest.raises(Exception, match="field header"):
        parse_document("code X\nmatrix 1 1\n1\n")
    bad_rows = "GF(2)\ncode X\nmatrix 2 2\n1 0\n"
    with pytest.raises(Exception, match="needs 2 rows"):
        parse_document(bad_rows)
    bad_shift = "GF(3)\ncode X\nmt 1\nblocks 3\nshifts 0\ngpm\n1\n"
    with pytest.raises(Exception, match="nonzero"):
        parse_document(bad_shift)


def test_field_headers_go_through_the_field_memo(monkeypatch):
    # two parses of a header give one object, and a GF(q) mod ... header
    # builds the one field it names, not a default-modulus GF(q) beside it
    assert parse_field_header("GF(65536)", 1) is parse_field_header("GF(65536)", 1)
    assert parse_field_header("GF(65536)", 1) is parse_field_header("GF(2^16)", 1)
    built = []
    init = Field.__init__

    def counting_init(self, p, e=1, modulus=None):
        built.append((p, e, modulus))
        init(self, p, e, modulus)

    monkeypatch.setattr(Field, "__init__", counting_init)
    mod = (1, 1, 0, 1) + (0,) * 8 + (1, 0, 0, 0, 1)  # x^16 + x^12 + x^3 + x + 1
    header = "GF(65536) mod " + " ".join(map(str, mod))
    f = parse_field_header(header, 1)
    assert parse_field_header(header, 1) is f
    assert (f.p, f.e, f.modulus) == (2, 16, mod)
    # the field() memo is process-wide, so an earlier test may have built
    # this field already; what must never happen is a default-modulus build
    assert (2, 16, None) not in built
    assert len(built) <= 1


def test_gpm_block_in_document():
    doc = parse_document(Path(F4_DOC).read_text())
    z = doc.codes["Z"]
    assert z.dim == 0


def test_gpm_cells_fold_huge_exponents_as_they_are_read():
    # modulo x^3 - 2, x^(10^12 + 1) = 2^333333333333 * x^2 = 2 * x^2, and
    # modulo x^4 - 1 it is x: each cell is reduced by its column's block
    # modulus term by term, so no coefficient list outgrows the block
    f3 = parse_field_header("GF(3)", 1)
    assert Poly.parse(f3, "x^1000000000001", (3, 2)) == Poly(f3, (0, 0, 2))
    head = "GF(3)\ncode A\nmt 2\nblocks 3 4\nshifts 2 1\ngpm\n"
    huge = parse_document(head + "1 + x^1000000000001 | 0\n0 | 1 + x^1000000000001\n")
    folded = parse_document(head + "1 + 2*x^2 | 0\n0 | 1 + x\n")
    assert huge.codes["A"].gpm == folded.codes["A"].gpm


def test_scalar_rows_format_each_distinct_element_once(monkeypatch):
    doc = parse_document(Path(F9_DOC).read_text())
    rows = [row for code in doc.codes.values() for row in code.to_linear().gen]
    real = Field.format_element
    want = [" ".join(real(doc.field, e) for e in row) for row in rows]
    calls = []

    def counting(self, a):
        calls.append(a)
        return real(self, a)

    monkeypatch.setattr(Field, "format_element", counting)
    assert scalar_rows(doc.field, rows) == want
    assert sorted(calls) == sorted({e for row in rows for e in row})


# -- exit codes ----------------------------------------------------------

def test_unknown_code_exits_1(capsys):
    code, _, err = run_cli(capsys, "info", F4_DOC, "NOPE")
    assert code == 1
    assert "NOPE" in err and "C1" in err  # lists what the document does hold


MIXED_LENGTHS = "GF(2)\ncode A\nmatrix 1 3\n1 1 0\ncode B\nmatrix 1 4\n1 0 1 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["dual", F4_DOC, "C1lin", "--galois", "5"],
        ["check", F4_DOC, "C1lin", "--so", "3"],
        ["check", F4_DOC, "C1", "--hull", "5"],
        ["intersect", F4_DOC, "C1lin", "C1lin", "--galois", "9"],
        ["intersect", "MIXED_LENGTHS", "A", "B"],
    ],
    ids=["dual-kappa", "so-kappa", "hull-kappa", "intersect-kappa", "intersect-lengths"],
)
def test_linear_domain_errors_exit_1(tmp_path, capsys, argv):
    # kappa out of range and codes of different lengths are domain errors:
    # one 'error:' line and exit 1, never an exception out of main
    doc = tmp_path / "mixed.txt"
    doc.write_text(MIXED_LENGTHS)
    argv = [str(doc) if a == "MIXED_LENGTHS" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_parse_failure_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("GF(6)\n")
    code, _, err = run_cli(capsys, "info", str(bad))
    assert code == 2
    assert "error" in err


def test_an_invalid_code_fails_the_whole_document(tmp_path, capsys):
    """Every code of a document is built and validated, whatever the
    command names: `info` on the valid code A exits 2 because the unused
    `gen` code B is not invariant under its twisted shift."""
    doc = tmp_path / "doc.txt"
    doc.write_text(
        "GF(2)\ncode A\nmt 1\nblocks 3\nshifts 1\ngpm\n1 + x\n"
        "code B\nmt 1\nblocks 3\nshifts 1\ngen\nmatrix 1 3\n1 1 0\n"
    )
    code, out, err = run_cli(capsys, "info", str(doc), "A")
    assert code == 2 and out == ""
    assert err == "error: line 12: code is not invariant under the profile's twisted shift\n"


@pytest.mark.parametrize("make,reason", [
    (lambda path: None, os.strerror(errno.ENOENT)),
    (lambda path: path.mkdir(), os.strerror(errno.EISDIR)),
    (lambda path: path.write_bytes(b"\xff\xfeG\x00F\x00(\x002\x00)\x00"), "not UTF-8 text"),
], ids=["missing", "directory", "utf-16"])
def test_unreadable_document_exits_2_with_one_error_line(tmp_path, capsys, make, reason):
    path = tmp_path / "doc.txt"
    make(path)
    code, out, err = run_cli(capsys, "info", str(path))
    assert code == 2 and out == ""
    assert err == f"error: cannot read {path}: {reason}\n"


def test_bad_budget_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("MTCODES_ENUM_BUDGET", "not-a-number")
    code, _, err = run_cli(capsys, "info", F4_DOC)
    assert code == 2


def test_precondition_unmet_exits_1(capsys):
    code, payload, _ = run_json(capsys, "check", F4_DOC, "C2", "--so", "0")
    assert code == 1
    assert payload["result"]["holds"] is None
    assert "precondition" in payload["result"]["note"]


# -- info ----------------------------------------------------------------

def test_info_single_code(capsys):
    code, payload, _ = run_json(capsys, "info", F4_DOC, "C1")
    assert code == 0
    assert payload["schema"] == 1
    assert payload["field"] == "GF(2^2) mod 1 1 1"
    c1 = payload["codes"][0]
    assert c1["kind"] == "mt"
    assert (c1["length"], c1["dimension"], c1["distance"]) == (8, 6, 2)
    assert c1["blocks"] == [6, 2]
    assert c1["shifts"] == ["1", "w"]
    assert c1["period"] == 6
    assert c1["gpm"] == ["w + x | w", "0 | w^2 + x"]


def test_info_whole_document(capsys):
    code, payload, _ = run_json(capsys, "info", F3_DOC)
    assert code == 0
    names = [c["name"] for c in payload["codes"]]
    assert names == ["C3", "C4", "C5", "C3lin", "C4lin", "C5lin"]
    kinds = {c["name"]: c["kind"] for c in payload["codes"]}
    assert kinds["C3"] == "mt" and kinds["C3lin"] == "linear"


def test_info_text_mode_renders_scalars_inline(capsys):
    code, out, _ = run_cli(capsys, "info", F4_DOC, "C1")
    assert code == 0
    assert "shifts: 1 w" in out
    assert "gpm:" in out
    assert "w + x | w" in out


# -- intersect ---------------------------------------------------------------

def test_intersect_mt_route(capsys):
    code, payload, _ = run_json(capsys, "intersect", F4_DOC, "C1", "C2", "--oracle")
    assert code == 0
    assert payload["route"] == "gpm"
    assert payload["oracle"] == "confirmed"
    inter = payload["intersection"]
    assert inter["dimension"] == 2 and inter["distance"] == 6
    assert payload["qc_companion"] == ["w^2 + x | 0", "0 | 1"]


def test_intersect_galois_trivial(capsys):
    code, payload, _ = run_json(capsys, "intersect", F4_DOC, "C1", "C2", "--galois", "1", "--oracle")
    assert code == 0
    assert payload["kappa"] == 1
    assert payload["intersection"]["dimension"] == 0
    assert payload["oracle"] == "confirmed"


def test_intersect_linear_route_forced(capsys):
    code, payload, _ = run_json(capsys, "intersect", F4_DOC, "C1", "C2", "--linear")
    assert code == 0
    assert payload["route"] == "linear"
    assert payload["intersection"]["dimension"] == 2


def test_intersect_mixed_kinds_uses_linear(capsys):
    code, payload, _ = run_json(capsys, "intersect", F4_DOC, "C1", "C2lin")
    assert code == 0
    assert payload["route"] == "linear"


def test_intersect_mt_flag_rejects_mixed(capsys):
    code, _, err = run_cli(capsys, "intersect", F4_DOC, "C1", "C2lin", "--mt")
    assert code == 1


def test_intersect_galois_incompatible_falls_back_to_linear(capsys):
    code, payload, _ = run_json(capsys, "intersect", F3_DOC, "C3", "C5", "--galois", "0", "--oracle")
    assert code == 0
    assert payload["route"] == "linear"
    assert payload["note"].startswith("GPM route unavailable: shift constants are not Galois-dual")
    assert payload["oracle"] == "confirmed"
    code, _, err = run_cli(capsys, "intersect", F3_DOC, "C3", "C5", "--galois", "0", "--mt")
    assert code == 1
    assert "Galois-dual" in err


def test_default_budget_skips_large_distance(tmp_path, capsys, monkeypatch):
    # a [24, 21] binary code: 2^21 words exceed the default budget of 2^20
    monkeypatch.delenv("MTCODES_ENUM_BUDGET", raising=False)
    rows = [" ".join("1" if j == i or j >= 21 else "0" for j in range(24)) for i in range(21)]
    doc = tmp_path / "big.txt"
    doc.write_text("GF(2)\ncode B\nmatrix 21 24\n" + "\n".join(rows) + "\n")
    code, payload, _ = run_json(capsys, "info", str(doc))
    assert code == 0
    assert payload["codes"][0]["dimension"] == 21
    assert payload["codes"][0]["distance"] is None


def test_oracle_budget_skip(capsys, monkeypatch):
    monkeypatch.setenv("MTCODES_ENUM_BUDGET", "4")
    code, payload, _ = run_json(capsys, "intersect", F4_DOC, "C1", "C2", "--oracle")
    assert code == 0
    assert payload["oracle"].startswith("skipped")


@pytest.mark.parametrize("argv, words", [
    (("intersect", F4_DOC, "C1", "C2"), 4**6),  # 4^3 words of C2 are enumerated
    (("intersect", F4_DOC, "C2", "C1"), 4**6),
    (("intersect", F4_DOC, "C2", "C2", "--galois", "1"), 4**8),  # only C2 is enumerated
    (("check", F4_DOC, "C2", "--hull", "1"), 4**8),
    (("check", F4_DOC, "C2lin", "--so", "0"), 4**8),
    (("check", F4_DOC, "C2", "--lcd", "1"), 4**8),
    (("check", F4_DOC, "C2lin", "--dc", "0"), 4**8),
], ids=["meet", "meet-swapped", "galois-meet", "hull", "so", "lcd", "dc"])
def test_oracle_budget_compares_every_side(capsys, monkeypatch, argv, words):
    # a side the oracle no longer walks (q^k1, or the q^n vectors of a
    # Galois dual) still counts against the budget, as when it was walked
    monkeypatch.setenv("MTCODES_ENUM_BUDGET", "1000")
    code, payload, _ = run_json(capsys, *argv, "--oracle")
    assert (code, payload["oracle"]) == (0, "skipped (budget exceeded)")
    monkeypatch.setenv("MTCODES_ENUM_BUDGET", str(words))
    code, payload, _ = run_json(capsys, *argv, "--oracle")
    assert (code, payload["oracle"]) == (0, "confirmed")


# -- check -------------------------------------------------------------------

def test_check_so_true(capsys):
    code, payload, _ = run_json(capsys, "check", F3_DOC, "C3", "--so", "0", "--oracle")
    assert code == 0
    assert payload["result"]["holds"] is True
    assert payload["oracle"] == "confirmed"


def test_check_so_oracle_enumerates_the_code_once(capsys, monkeypatch):
    # the hull holds only codewords, so it is the code when it has q^k words
    import mtcodes.oracle as oracle

    calls, real = [], oracle.enumerate_code

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "enumerate_code", counted)
    code, payload, _ = run_json(capsys, "check", F3_DOC, "C3", "--so", "0", "--oracle")
    assert (code, payload["oracle"], len(calls)) == (0, "confirmed", 1)


def test_check_reversible_false_reports_subcode(capsys):
    code, payload, _ = run_json(capsys, "check", F3_DOC, "C5", "--reversible")
    assert code == 0
    assert payload["result"]["holds"] is False
    sub = payload["largest_reversible_subcode"]
    assert sub["dimension"] == 3
    assert sub["generator"] == [
        "1 0 0 1 2 0 0 2 0",
        "0 1 0 0 1 2 0 0 2",
        "0 0 1 1 0 1 1 0 0",
    ]


def test_check_reversible_linear_meets_once(capsys, monkeypatch):
    # C cap rev C gives both the verdict and the largest reversible subcode
    import mtcodes.lincode as lincode

    calls, meet = [], lincode._meet

    def counted(*args):
        calls.append(args)
        return meet(*args)

    monkeypatch.setattr(lincode, "_meet", counted)
    code, payload, _ = run_json(capsys, "check", F3_DOC, "C5lin", "--reversible")
    assert code == 0 and len(calls) == 1
    assert payload["result"] == {"holds": False}
    _, twin, _ = run_json(capsys, "check", F3_DOC, "C5", "--reversible")
    assert payload["largest_reversible_subcode"] == twin["largest_reversible_subcode"]


def test_check_reversible_nonpalindromic_residue(capsys):
    code, payload, _ = run_json(capsys, "check", F3_DOC, "C3", "--reversible")
    assert code == 0
    assert payload["result"]["holds"] is False
    assert payload["result"]["residue"][0] == "0 | 2 + 2*x + x^2 | 2 + 2*x + 2*x^2"


def test_check_lcd_layers(capsys):
    code, payload, _ = run_json(capsys, "check", F9_DOC, "C6", "--lcd", "1")
    assert code == 0
    res = payload["result"]
    assert res["holds"] is True
    assert res["total"] == 5 and res["target"] == 5
    nonzero = [l for l in res["layers"] if l["weighted"]]
    assert [l["factor"] for l in nonzero] == [
        "1 + x",
        "w^6 + x",
        "1 + w^7*x + w^5*x^2 + x^3",
    ]


def test_check_lcd_prime_period(tmp_path, capsys):
    # x^229 - 1 over GF(5) is (x - 1) times two factors of degree
    # ord_229(5) = 114, with no lifting to cut Phi_229
    doc = tmp_path / "prime.txt"
    doc.write_text("GF(5)\ncode A\nmt 1\nblocks 229\nshifts 1\ngpm\n1 + x\n")
    code, payload, _ = run_json(capsys, "check", str(doc), "A", "--lcd", "0")
    assert code == 0
    layers = payload["result"]["layers"]
    assert len(layers) == 3
    assert layers[0]["factor"] == "4 + x"


def test_check_hull_gpm_route(capsys):
    code, payload, _ = run_json(capsys, "check", F4_DOC, "C1", "--hull", "1", "--oracle")
    assert code == 0
    assert "qc_gpm" in payload
    assert payload["hull"]["dimension"] == 2
    assert payload["oracle"] == "confirmed"


def test_check_hull_linear_fallback(capsys):
    # C2's 0-Galois dual changes shifts, so the GPM route refuses; the
    # linear route still answers
    code, payload, _ = run_json(capsys, "check", F4_DOC, "C2", "--hull", "0")
    assert code == 0
    assert "note" in payload and "linear route" in payload["note"]
    assert "hull" in payload


def test_check_advisor(capsys):
    code, payload, _ = run_json(capsys, "check", F3_DOC, "C3", "--advisor", "C5")
    assert code == 0
    adv = payload["advice"]
    assert adv["exhaustive"] is True
    assert ["1", "1", "1"] in adv["admitted_shifts"]
    assert adv["intersection_dimension"] == 1


@pytest.mark.parametrize("argv", [
    ("info", F4_DOC),
    ("info", F3_DOC, "C4"),
    ("check", F3_DOC, "C3", "--advisor", "C5"),
    ("check", F3_DOC, "C3", "--advisor", "C4"),
], ids=["info-f4", "info-f3-C4", "advisor-C3-C5", "advisor-C3-C4"])
def test_info_and_advisor_oracle(capsys, monkeypatch, argv):
    monkeypatch.delenv("MTCODES_ENUM_BUDGET", raising=False)
    code, payload, _ = run_json(capsys, *argv, "--oracle")
    assert (code, payload["oracle"]) == (0, "confirmed")
    monkeypatch.setenv("MTCODES_ENUM_BUDGET", "4")
    code, payload, _ = run_json(capsys, *argv, "--oracle")
    assert (code, payload["oracle"]) == (0, "skipped (budget exceeded)")


def test_info_and_advisor_oracle_report_mismatch(capsys, monkeypatch):
    from mtcodes import oracle

    monkeypatch.delenv("MTCODES_ENUM_BUDGET", raising=False)
    monkeypatch.setattr(oracle, "is_invariant", lambda *a, **k: False)
    for argv in (("info", F4_DOC, "C1"), ("check", F3_DOC, "C3", "--advisor", "C5")):
        code, payload, _ = run_json(capsys, *argv, "--oracle")
        assert (code, payload["oracle"]) == (1, "MISMATCH")
    monkeypatch.setattr(oracle, "min_distance_of_words", lambda words: 1)
    code, payload, _ = run_json(capsys, "info", F3_DOC, "C3lin", "--oracle")
    assert (code, payload["oracle"]) == (1, "MISMATCH")


def test_check_linear_code_property(capsys):
    # every property of every *lin twin: the linear route reads it off one
    # meet, the oracle confirms it, and where the GPM precondition holds the
    # MT twin agrees (kappa = 1 exists only over GF(4))
    for doc, names, kappas in ((F4_DOC, ("C1", "C2"), (0, 1)), (F3_DOC, ("C3", "C4", "C5"), (0,))):
        cases = [["--reversible"]] + [[flag, str(k)] for flag in ("--so", "--dc", "--lcd") for k in kappas]
        for name in names:
            for argv in cases:
                code, payload, _ = run_json(capsys, "check", doc, f"{name}lin", *argv, "--oracle")
                assert (code, payload["oracle"]) == (0, "confirmed"), (name, argv)
                holds = payload["result"]["holds"]
                assert isinstance(holds, bool)
                _, twin, _ = run_json(capsys, "check", doc, name, *argv)
                assert twin["result"]["holds"] in (None, holds), (name, argv)


@pytest.mark.parametrize("blocks", [None, 64, 211])
def test_closed_stdout_exits_1_without_traceback(tmp_path, blocks):
    # reports of 9 and 90 KB over GF(257), and with blocks None the f4 info
    # report, which fits the stdout buffer, so that without PYTHONUNBUFFERED
    # its first write is the flush in main; the reader is gone before the
    # first write, so every write to stdout fails with EPIPE
    doc = F4_DOC
    if blocks is not None:
        doc = tmp_path / "doc.txt"
        doc.write_text(f"GF(257)\ncode A\nmt 1\nblocks {blocks}\nshifts 1\ngpm\n1 + x\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = subprocess.Popen(
        [sys.executable, "-m", "mtcodes", "info", str(doc)], stdout=write_end, stderr=subprocess.PIPE, env=env
    )
    os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err
    assert b"Exception ignored" not in err


def test_memory_error_exits_1_with_one_error_line(monkeypatch, capsys):
    """A command that runs out of memory gives exit 1 and one `error:` line
    on stderr, with no traceback."""
    from mtcodes import cli

    def exhausted(args, budget):
        print("partial report")
        raise MemoryError

    monkeypatch.setitem(cli.COMMANDS, "info", (exhausted, *cli.COMMANDS["info"][1:]))
    assert main(["info", F4_DOC]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory\n"


# -- dual and reverse ----------------------------------------------------

def test_dual_galois(capsys):
    code, payload, _ = run_json(capsys, "dual", F4_DOC, "C1", "--galois", "1")
    assert code == 0
    d = payload["dual"]
    assert d["shifts"] == ["1", "w"]
    assert d["gpm"] == ["1 + x + x^3 + x^4 | w^2 + x", "0 | w + x^2"]
    assert d["companion"] == ["1 + x + x^2 | w + x", "0 | 1"]


def test_dual_euclidean(capsys):
    code, payload, _ = run_json(capsys, "dual", F4_DOC, "C1")
    assert code == 0
    assert payload["dual"]["shifts"] == ["1", "w^2"]


def test_reverse(capsys):
    code, payload, _ = run_json(capsys, "reverse", F4_DOC, "C1")
    assert code == 0
    rev = payload["reversed"]
    assert rev["blocks"] == [2, 6]
    assert rev["shifts"] == ["w^2", "1"]
    assert rev["gpm"] == ["1 | w^2 + x", "0 | 1 + x + x^2"]
    assert payload["equals_original"] is False


def test_check_reverse_mode_matches_reverse(capsys):
    _, a, _ = run_json(capsys, "check", F4_DOC, "C1", "--reverse")
    _, b, _ = run_json(capsys, "reverse", F4_DOC, "C1")
    assert a["reversed"] == b["reversed"]
    assert a["equals_original"] == b["equals_original"]


# -- determinism ---------------------------------------------------------

def test_json_reports_byte_identical_in_process(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "intersect", F4_DOC, "C1", "C2", "--galois", "1", "--json")
        runs.append(out)
    assert runs[0] == runs[1]


def test_json_report_byte_identical_subprocess():
    cmd = [sys.executable, "-m", "mtcodes", "check", F3_DOC, "C3", "--so", "0", "--json"]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert a == b and a


def test_text_and_json_share_content(capsys):
    _, payload, _ = run_json(capsys, "info", F4_DOC, "C2")
    _, text, _ = run_cli(capsys, "info", F4_DOC, "C2")
    c2 = payload["codes"][0]
    # every scalar fact in the JSON payload appears in the text rendering
    assert f"dimension: {c2['dimension']}" in text
    assert f"distance: {c2['distance']}" in text
    for row in c2["gpm"]:
        assert row in text


# -- the command line ----------------------------------------------------

F3_REL, F4_REL, F9_REL = "fixtures/f3_codes.txt", "fixtures/f4_codes.txt", "fixtures/f9_codes.txt"


def argv_id(argv):
    return " ".join(argv).replace(f"{ROOT}{os.sep}", "")


README_COMMANDS = [
    ["info", F4_REL],
    ["intersect", F4_REL, "C1", "C2", "--oracle"],
    ["intersect", F4_REL, "C1", "C2", "--galois", "1", "--json"],
    ["dual", F4_REL, "C1", "--galois", "1"],
    ["reverse", F4_REL, "C1"],
    ["check", F3_REL, "C3", "--so", "0"],
    ["check", F3_REL, "C5", "--reversible"],
    ["check", F9_REL, "C6", "--lcd", "1"],
    ["check", F3_REL, "C3", "--advisor", "C5"],
]
# README and golden commands overlap; each argv runs once.
ACCEPTED = list({argv_id(argv): argv for argv in README_COMMANDS + [argv for _, argv in GOLDEN_CASES] + [
    ["info", F4_REL, "C1"],
    ["check", "--so", "0", F3_REL, "C3"],  # options before, between and after positionals
    ["check", F3_REL, "--so", "0", "C3"],
    ["intersect", "--json", F4_REL, "C1", "--linear", "C2", "--oracle"],
    ["check", F3_REL, "C3", "--so=0"],  # --opt=value
    ["check", F3_REL, "C3", "--advisor=C5"],
    ["check", F3_REL, "C3", "--advisor="],
    ["dual", F4_REL, "C1", "--galois=-1"],
    ["check", F3_REL, "C3", "--so", "-1"],  # negative K
    ["intersect", F4_REL, "C1", "C2", "--galois", "-2"],
    ["intersect", F4_REL, "C1", "C2", "--lin"],  # unique prefixes
    ["intersect", F4_REL, "C1", "C2", "--gal", "1", "--m"],
    ["check", F3_REL, "C3", "--reversi", "--js", "--o"],
    ["check", F3_REL, "C3", "--adv", "C5"],
    ["info", "--json", "--", F4_REL, "C1"],  # '--' before positionals
    ["intersect", F4_REL, "--", "C1", "C2"],
    ["check", "--so", "0", "--", F3_REL, "C3"],
    ["check", F3_REL, "C3", "--so", "0", "--so", "1"],  # the last repeat wins
    ["dual", F4_REL, "C1", "--galois", "1", "--galois", "2"],
    ["intersect", F4_REL, "C1", "C2", "--mt", "--mt", "--json", "--json"],
]}.values())
REJECTED = [
    [], ["frobnicate", F4_REL], ["--json", "info", F4_REL],  # no command
    ["info"], ["intersect", F4_REL, "C1"], ["check", F3_REL, "--so", "0"], ["reverse"],  # missing positional
    ["info", F4_REL, "C1", "C2"], ["reverse", F4_REL, "C1", "C2"],  # extra positional
    ["intersect", F4_REL, "C1", "C2", "C3"],
    ["info", F4_REL, "--bogus"], ["check", F3_REL, "C3", "--so", "0", "-x"],  # unknown option
    ["reverse", F4_REL, "C1", "--rev"],
    ["check", F3_REL, "C3", "--rev"], ["check", F3_REL, "C3", "--h", "0"],  # ambiguous prefix
    ["dual", F4_REL, "C1", "--galois"], ["check", F3_REL, "C3", "--so"],  # missing value
    ["check", F3_REL, "C3", "--advisor", "--json"], ["check", F3_REL, "C3", "--so", "--", "0"],
    ["check", F3_REL, "C3", "--so", "x"], ["check", F3_REL, "C3", "--so="],  # non-integer K
    ["intersect", F4_REL, "C1", "C2", "--galois", "1.5"],
    ["info", F4_REL, "--json=yes"],  # a switch given a value
    ["intersect", F4_REL, "C1", "C2", "--mt", "--linear"],  # two options of one group
    ["check", F3_REL, "C3", "--so", "0", "--dc", "0"], ["check", F3_REL, "C3", "--reversible", "--reverse"],
    ["check", F3_REL, "C3"], ["check", F3_REL, "C3", "--json"],  # check with no property
]
HELP = [["-h"], ["--help"], ["--he"], ["info", F4_REL, "--he"]] + [
    [cmd, flag] for cmd, flag in zip(["info", "intersect", "check", "dual", "reverse"], ["-h", "--help"] * 3)
]
# Accepted here, rejected by argparse: a name after an option once the file
# has been read alone.
ALLOWED_DIFFERENCES = {("info", F4_REL, "--json", "C1"): {"file": F4_REL, "name": "C1", "json": True}}


def reference_vars(argv):
    ns = vars(reference_parser().parse_args(argv))
    del ns["cmd"]
    return ns


@pytest.mark.parametrize("argv", ACCEPTED, ids=argv_id)
def test_command_line_parses_as_argparse_did(argv):
    assert vars(parse_args(argv)) == reference_vars(argv)


@pytest.mark.parametrize("argv", REJECTED, ids=argv_id)
def test_command_line_rejects_what_argparse_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        reference_parser().parse_args(argv)
    assert exit_info.value.code == 2
    capsys.readouterr()
    with pytest.raises(ParseError):
        parse_args(argv)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: mtcodes") and err.count("\nerror: ") == 1


@pytest.mark.parametrize("argv", HELP, ids=argv_id)
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        reference_parser().parse_args(argv)
    assert exit_info.value.code == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: mtcodes")


def test_allowed_difference_from_argparse():
    for argv, want in ALLOWED_DIFFERENCES.items():
        ns = vars(parse_args(list(argv)))
        assert {key: ns[key] for key in want} == want
        try:
            ref = reference_vars(list(argv))
        except SystemExit:
            continue
        assert ns == ref  # an argparse that accepts it must agree


def _cold_info_imports(modules) -> str:
    """Which of ``modules`` a fresh interpreter holds after one info command."""
    script = (
        "import sys\n"
        "from mtcodes.cli import main\n"
        "rc = main(['info', 'fixtures/f4_codes.txt'])\n"
        f"sys.stderr.write(' '.join(sorted({set(modules)!r} & set(sys.modules))))\n"
        "sys.exit(rc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    return proc.stderr


def test_cold_command_imports_no_argparse():
    assert _cold_info_imports({"argparse", "gettext", "locale"}) == ""


def test_cold_command_imports_no_dataclasses():
    # dataclasses would bring in inspect, ast, dis and tokenize
    assert _cold_info_imports({"dataclasses", "inspect"}) == ""


FUZZ_TOKENS = [
    "info", "intersect", "check", "dual", "reverse", F3_DOC, F4_DOC, F9_DOC, "DOC",
    "C1", "C2", "C3", "C5", "C6", "C2lin", "A", "B", "--json", "--oracle", "--galois", "--mt",
    "--linear", "--so", "--dc", "--lcd", "--reversible", "--hull", "--reverse", "--advisor",
    "-h", "--help", "--", "-", "--gal=1", "--so=-1", "--rev", "--l", "-x", "",
]
DOC_LINES = [
    "GF(2)", "GF(3)", "GF(4)", "GF(9) mod 2 2 1", "GF(2^2)", "GF(6)", "GF(3) mod 1 1",
    "code A", "code B", "code A", "mt 1", "mt 2", "mt 0", "mt x", "blocks 3", "blocks 2 2", "blocks 4 2",
    "blocks 0", "shifts 1", "shifts 1 1", "shifts 2 w", "shifts 0", "gpm", "gen", "matrix 1 3",
    "matrix 2 2", "matrix 0 3", "1 0 1", "1 1", "0 1", "w 1", "1 + x", "x^2 + 1", "1 | x",
    "0 | 1 + x", "1 + x^1000000000000 | 1", "x^-1", "| |", "# comment", "", "code", "junk",
]
DOCS = [
    ["GF(2)", "code A", "mt 2", "blocks 3 3", "shifts 1 1", "gpm", "1 + x | 1", "0 | 1 + x"],
    ["GF(4)", "code A", "matrix 2 3", "1 0 w", "0 1 w^2", "code B", "mt 1", "blocks 3", "shifts w", "gpm", "1 + x"],
    ["GF(3)", "code A", "mt 1", "blocks 4", "shifts 2", "gen", "matrix 1 4", "1 1 1 1",
     "code B", "mt 1", "blocks 4", "shifts 2", "gpm", "1 + x^2"],
]
# A junk token is text a command line can carry: no NUL, no lone surrogate.
JUNK = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6)
TOKEN = st.sampled_from(FUZZ_TOKENS) | st.integers(-3, 9).map(str) | JUNK
# Command lines that run on DOCS, K standing for a small integer.
RUNS = [
    ["info", "DOC"], ["info", "DOC", "A"], ["intersect", "DOC", "A", "B"], ["intersect", "DOC", "B", "B", "--galois", "K"],
    ["dual", "DOC", "A"], ["dual", "DOC", "B", "--galois", "K"], ["reverse", "DOC", "B"],
    ["check", "DOC", "A", "--advisor", "B"], ["check", "DOC", "A", "--reversible"], ["check", "DOC", "B", "--reverse"],
] + [["check", "DOC", name, flag, "K"] for name in "AB" for flag in ("--so", "--dc", "--lcd", "--hull")]


@given(
    argv=st.lists(TOKEN, max_size=7)
    | st.builds(
        lambda argv, k, extra: [str(k) if t == "K" else t for t in argv] + extra,
        st.sampled_from(RUNS), st.integers(-1, 3), st.lists(st.sampled_from(["--json", "--oracle"]), max_size=2),
    ),
    doc=st.lists(st.sampled_from(DOC_LINES), max_size=10) | st.sampled_from(DOCS),
)
@settings(max_examples=500, deadline=5000, suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_command_lines_exit_0_1_or_2(tmp_path_factory, argv, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz_doc.txt"
    path.write_text("\n".join(doc) + "\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path) if token == "DOC" else token for token in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
