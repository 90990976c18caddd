"""Command-line front end.

Reads code documents, runs the requested operation, and prints a report in
text or JSON form.  A document is a plain-text file:

    GF(4)                     field header, or GF(p^e) mod c0 c1 ... ce
    code C1                   a named block: either a scalar matrix ...
    matrix 2 3
    1 0 w
    0 1 w^2
    code C2                   ... or a multi-twisted description
    mt 2
    blocks 6 2
    shifts 1 w
    gpm                       'gpm' + ell polynomial rows ('|'-separated),
    w + x | w                 or 'gen' + a scalar matrix block
    0 | w^2 + x

'#' starts a comment; blank lines are ignored.  Exit status is 0 on
success, 1 on domain errors (incompatible inputs, unmet preconditions,
oracle mismatch) or when the reader closes stdout early, 2 on parse or
usage errors.  Reports are deterministic: identical inputs give
byte-identical output, and every JSON report records the polynomial
factorization seed.  The environment variable
MTCODES_ENUM_BUDGET overrides the enumeration budget (default 2^20 words)
used for minimum distances and --oracle cross-checks.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

from . import oracle
from .errors import BudgetError, DomainError, ParseError
from .gf import Field, field
from .lincode import LinearCode, parse_matrix_block
from .mtcode import MTCode, MTProfile, advise_intersection_structure
from .pmat import PolyMatrix
from .upoly import FACTOR_SEED, Poly

ENV_BUDGET = "MTCODES_ENUM_BUDGET"

_FIELD_RE = re.compile(r"^GF\((\d+)(?:\^(\d+))?\)$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


# ---------------------------------------------------------------------------
# document parsing
# ---------------------------------------------------------------------------

def parse_field_header(text: str, lineno: int) -> Field:
    parts = text.split()
    m = _FIELD_RE.match(parts[0])
    if not m:
        raise ParseError("expected field header 'GF(q)' or 'GF(p^e) mod ...'", lineno)
    base, exp = int(m.group(1)), m.group(2)
    coeffs = None
    if len(parts) > 1:
        if parts[1] != "mod":
            raise ParseError("expected 'mod' before modulus coefficients", lineno)
        try:
            coeffs = tuple(int(c) for c in parts[2:])
        except ValueError:
            raise ParseError("modulus coefficients must be integers", lineno) from None
    try:
        if exp is None:
            return Field.of_order(base, coeffs)
        return field(base, int(exp), coeffs)
    except DomainError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


class CodeDocument:
    """A parsed document: the field plus named codes in file order."""

    def __init__(self, fld: Field, codes: dict):
        self.field = fld
        self.codes = codes

    def get(self, name: str):
        if name not in self.codes:
            known = ", ".join(self.codes) or "none"
            raise DomainError(f"no code named {name!r} (defined: {known})")
        return self.codes[name]


def parse_document(text: str) -> CodeDocument:
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((stripped, i))
    if not lines:
        raise ParseError("empty document", 1)
    fld = parse_field_header(*lines[0])
    codes: dict = {}
    at = 1
    while at < len(lines):
        head, lineno = lines[at]
        parts = head.split()
        if parts[0] != "code" or len(parts) != 2:
            raise ParseError("expected 'code <name>'", lineno)
        name = parts[1]
        if not _NAME_RE.match(name):
            raise ParseError(f"invalid code name {name!r}", lineno)
        if name in codes:
            raise ParseError(f"duplicate code name {name!r}", lineno)
        if at + 1 >= len(lines):
            raise ParseError(f"code {name!r} has no body", lineno)
        body, body_line = lines[at + 1]
        if body.startswith("matrix"):
            rows, at = parse_matrix_block(fld, lines, at + 1)
            codes[name] = LinearCode(fld, len(rows[0]), rows)
        elif body.startswith("mt"):
            codes[name], at = _parse_mt_block(fld, lines, at + 1)
        else:
            raise ParseError("expected 'matrix <r> <c>' or 'mt <ell>'", body_line)
    return CodeDocument(fld, codes)


def _parse_mt_block(fld: Field, lines, start: int) -> tuple[MTCode, int]:
    text, lineno = lines[start]
    parts = text.split()
    if len(parts) != 2 or parts[0] != "mt":
        raise ParseError("expected 'mt <ell>'", lineno)
    try:
        ell = int(parts[1])
    except ValueError:
        raise ParseError("index must be an integer", lineno) from None
    if ell < 1:
        raise ParseError("index must be positive", lineno)

    def keyword_line(idx, key):
        if idx >= len(lines):
            raise ParseError(f"missing '{key}' line", lineno)
        text, ln = lines[idx]
        parts = text.split()
        if parts[0] != key:
            raise ParseError(f"expected '{key} ...'", ln)
        if len(parts) != ell + 1:
            raise ParseError(f"'{key}' needs {ell} entries", ln)
        return parts[1:], ln

    raw_blocks, ln = keyword_line(start + 1, "blocks")
    try:
        blocks = tuple(int(b) for b in raw_blocks)
    except ValueError:
        raise ParseError("block lengths must be integers", ln) from None
    raw_shifts, ln = keyword_line(start + 2, "shifts")
    try:
        shifts = tuple(fld.parse_element(s) for s in raw_shifts)
    except ParseError as exc:
        raise ParseError(str(exc), ln) from None
    try:
        profile = MTProfile(fld, blocks, shifts)
    except ValueError as exc:
        raise ParseError(str(exc), ln) from None

    if start + 3 >= len(lines):
        raise ParseError("expected 'gpm' or 'gen' after shifts", lineno)
    mode, mode_line = lines[start + 3]
    if mode == "gpm":
        rows = []
        for i in range(ell):
            if start + 4 + i >= len(lines):
                raise ParseError(f"gpm needs {ell} rows, found {i}", mode_line)
            rtext, rline = lines[start + 4 + i]
            cells = [c.strip() for c in rtext.split("|")]
            if len(cells) != ell:
                raise ParseError(f"expected {ell} polynomials, found {len(cells)}", rline)
            try:
                rows.append([Poly.parse(fld, c, (m, s)) for c, m, s in zip(cells, blocks, shifts)])
            except ParseError as exc:
                raise ParseError(str(exc), rline) from None
        return MTCode(profile, rows), start + 4 + ell
    if mode == "gen":
        rows, nxt = parse_matrix_block(fld, lines, start + 4)
        try:
            code = MTCode.from_linear(profile, LinearCode(fld, len(rows[0]), rows))
        except (ValueError, DomainError) as exc:
            raise ParseError(str(exc), mode_line) from None
        return code, nxt
    raise ParseError("expected 'gpm' or 'gen'", mode_line)


def load_document(path: str) -> CodeDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from None
    return parse_document(text)


# ---------------------------------------------------------------------------
# payload construction and rendering
# ---------------------------------------------------------------------------

def scalar_rows(fld: Field, rows) -> list[str]:
    """Rows of field elements as text, each distinct element formatted once."""
    lits = {e: fld.format_element(e) for e in set().union(*rows)}
    return [" ".join(map(lits.__getitem__, row)) for row in rows]


def poly_rows(mat: PolyMatrix) -> list[str]:
    return [" | ".join(str(e) for e in row) for row in mat.rows]


def _distance(code, budget) -> int | None:
    try:
        return _finite(code.min_distance(budget))
    except BudgetError:
        return None


def _finite(d) -> int | None:
    return None if d is None or d == float("inf") else int(d)


def code_payload(name, code, budget) -> dict:
    if isinstance(code, MTCode):
        prof = code.profile
        return {
            "name": name,
            "kind": "mt",
            "length": prof.n,
            "dimension": code.dim,
            "distance": _distance(code, budget),
            "blocks": list(prof.blocks),
            "shifts": [prof.field.format_element(s) for s in prof.shifts],
            "period": prof.period,
            "gpm": poly_rows(code.gpm),
            "companion": poly_rows(code.companion),
            "generator": scalar_rows(code.field, code.to_linear().gen),
        }
    return {
        "name": name,
        "kind": "linear",
        "length": code.n,
        "dimension": code.k,
        "distance": _distance(code, budget),
        "generator": scalar_rows(code.field, code.gen),
    }


def render_lines(obj, indent: int = 0) -> list[str]:
    """Text rendering of a JSON payload: 'key: value' lines, nested blocks
    indented.  Both report forms derive from one payload, so their contents
    always agree."""
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, dict) or _is_block_list(value):
                lines.append(f"{pad}{key}:")
                lines.extend(render_lines(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar_text(value)}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(render_lines(item, indent + 1))
            else:
                lines.append(f"{pad}{_scalar_text(item)}")
    else:
        lines.append(f"{pad}{_scalar_text(obj)}")
    return lines


def _is_block_list(value) -> bool:
    if not isinstance(value, list):
        return False
    return any(
        isinstance(v, (dict, list)) or (isinstance(v, str) and (" " in v or "|" in v))
        for v in value
    )


def _scalar_text(value) -> str:
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, list):
        return " ".join(str(v) for v in value) if value else "(empty)"
    return str(value)


def emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(render_lines(payload)))


def base_payload(command: str, doc: CodeDocument) -> dict:
    return {
        "schema": 1,
        "command": command,
        "field": doc.field.header(),
        "factor_seed": FACTOR_SEED,
    }


def _as_linear(code) -> LinearCode:
    return code.to_linear() if isinstance(code, MTCode) else code


# ---------------------------------------------------------------------------
# oracle cross-checks
# ---------------------------------------------------------------------------

def _report(payload: dict, args, check=None) -> int:
    """Emit the report and return the exit status: 1 when the --oracle
    cross-check ``check`` (a call saying whether enumeration agrees) finds a
    mismatch, else 0."""
    if args.oracle and check is not None:
        try:
            payload["oracle"] = "confirmed" if check() else "MISMATCH"
        except BudgetError:
            payload["oracle"] = "skipped (budget exceeded)"
    emit(payload, args.json)
    return 1 if payload.get("oracle") == "MISMATCH" else 0


def _oracle_info(code, entry: dict, budget) -> bool:
    """q^k words, the reported distance, and for an MT code invariance
    under its own twisted shift, all by enumeration."""
    lin = _as_linear(code)
    words = oracle.enumerate_code(lin, budget)
    if len(words) != lin.field.q ** entry["dimension"]:
        return False
    if _finite(oracle.min_distance_of_words(words)) != entry["distance"]:
        return False
    if isinstance(code, MTCode):
        prof = code.profile
        return oracle.is_invariant(lin, prof.blocks, prof.shifts, budget)
    return True


def _oracle_advice(code, other, advice, budget) -> bool:
    """The intersection by set intersection, and every admitted shift
    vector by closing the intersection's words under its twisted shift."""
    inter = advice.intersection
    words = oracle.intersect_codes(_as_linear(code), _as_linear(other), budget)
    return oracle.same_code(inter, words, budget) and all(
        oracle.is_invariant(inter, advice.blocks, gamma, budget) for gamma in advice.admitted
    )


def _oracle_intersection(lin1, lin2, result, kappa, budget) -> bool:
    if kappa is None:
        words = oracle.intersect_codes(lin1, lin2, budget)
    else:
        words = oracle.intersect_galois_dual(lin1, lin2, kappa, budget)
    return oracle.same_code(_as_linear(result), words, budget)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_info(args, budget) -> int:
    doc = load_document(args.file)
    names = [args.name] if args.name else list(doc.codes)
    if args.name:
        doc.get(args.name)
    payload = base_payload("info", doc)
    payload["codes"] = [code_payload(n, doc.codes[n], budget) for n in names]
    return _report(payload, args, lambda: all(
        _oracle_info(doc.codes[n], entry, budget) for n, entry in zip(names, payload["codes"])
    ))


def cmd_intersect(args, budget) -> int:
    doc = load_document(args.file)
    c1, c2 = doc.get(args.first), doc.get(args.second)
    both_mt = isinstance(c1, MTCode) and isinstance(c2, MTCode)
    if args.mt and not both_mt:
        raise DomainError("--mt requires two multi-twisted codes")
    use_mt = both_mt and not args.linear
    if use_mt and args.galois is None and c1.profile != c2.profile:
        if args.mt:
            raise DomainError(
                "profiles differ; the GPM route needs identical shift "
                "constants and block lengths (try 'check --advisor')"
            )
        use_mt = False
    payload = base_payload("intersect", doc)
    payload["first"] = args.first
    payload["second"] = args.second
    payload["kappa"] = args.galois
    details = note = None
    if use_mt:
        if args.galois is None:
            details = c1.intersection_details(c2)
        else:
            try:
                details = c1.galois_intersection_details(c2, args.galois)
            except DomainError as exc:
                if args.mt:
                    raise
                note = f"GPM route unavailable: {exc}; using the linear route"
    payload["route"] = "gpm" if details is not None else "linear"
    if note is not None:
        payload["note"] = note

    if details is not None:
        payload["qc_gpm"] = poly_rows(details.qc_gpm)
        payload["qc_companion"] = poly_rows(details.qc_companion)
        result = details.code
    elif args.galois is None:
        result = _as_linear(c1).intersect(_as_linear(c2))
    else:
        result = _as_linear(c1).galois_intersect(_as_linear(c2), args.galois)
    payload["intersection"] = code_payload("intersection", result, budget)
    return _report(
        payload,
        args,
        lambda: _oracle_intersection(_as_linear(c1), _as_linear(c2), result, args.galois, budget),
    )


def _layers_payload(table) -> dict:
    return {
        "layers": [
            {
                "factor": str(layer.factor),
                "power": layer.power,
                "type": list(layer.type_vector),
                "weighted": layer.weighted,
            }
            for layer in table.layers
        ],
        "total": table.total,
        "target": table.target,
    }


def _property_payload(check) -> dict:
    out = {"holds": check.holds}
    if check.kappa is not None:
        out["kappa"] = check.kappa
    if check.note is not None:
        out["note"] = check.note
    if check.residue is not None:
        out["residue"] = poly_rows(check.residue)
    if check.table is not None:
        out.update(_layers_payload(check.table))
    return out


def _oracle_property(code, prop: str, kappa: int, verdict: bool, budget) -> bool:
    """The verdict by enumeration: self-orthogonal iff the kappa-hull is
    the whole code, LCD iff it is {0}."""
    lin = _as_linear(code)
    if prop == "reversible":
        words = oracle.enumerate_code(lin, budget)
        return (oracle.reverse_words(words) == words) == verdict
    if prop == "dual_containing":
        dual = oracle.galois_dual_set(lin, kappa, budget)
        return (dual <= oracle.enumerate_code(lin, budget)) == verdict
    hull = oracle.intersect_galois_dual(lin, lin, kappa, budget)
    if prop == "self_orthogonal":
        # the hull is a set of codewords, so it is the code when it is as large
        return (len(hull) == lin.field.q**lin.k) == verdict
    return (hull == {(0,) * lin.n}) == verdict


def _linear_property(lin: LinearCode, prop: str, kappa: int) -> bool:
    """Self-orthogonality, dual-containment or LCD from the dimension of the
    kappa-hull: k when self-orthogonal, n - k when dual-containing, 0 when LCD."""
    want = {"self_orthogonal": lin.k, "dual_containing": lin.n - lin.k, "lcd": 0}[prop]
    return lin.hull(kappa).k == want


def cmd_check(args, budget) -> int:
    doc = load_document(args.file)
    code = doc.get(args.name)
    payload = base_payload("check", doc)
    payload["name"] = args.name

    if args.advisor is not None:
        other = doc.get(args.advisor)
        if not isinstance(code, MTCode) or not isinstance(other, MTCode):
            raise DomainError("--advisor requires two multi-twisted codes")
        advice = advise_intersection_structure(code, other, distance_budget=budget)
        payload["check"] = "advisor"
        payload["other"] = args.advisor
        payload["advice"] = {
            "blocks": list(advice.blocks),
            "shifts_first": [doc.field.format_element(s) for s in advice.shifts1],
            "shifts_second": [doc.field.format_element(s) for s in advice.shifts2],
            "intersection_dimension": advice.intersection.k,
            "intersection_generator": scalar_rows(doc.field, advice.intersection.gen),
            "admitted_shifts": [
                [doc.field.format_element(s) for s in gamma] for gamma in advice.admitted
            ],
            "exhaustive": advice.exhaustive,
            "differing_blocks": advice.differing,
            "zero_projection_blocks": list(advice.zero_projection_blocks),
            "distance_first": _finite(advice.d1),
            "distance_second": _finite(advice.d2),
            "notes": list(advice.notes),
        }
        return _report(payload, args, lambda: _oracle_advice(code, other, advice, budget))

    if args.hull is not None:
        return _cmd_check_hull(args, code, payload, budget)
    if args.reverse:
        return _cmd_reverse_payload(args, code, payload, budget)

    prop, kappa = _selected_property(args)
    payload["check"] = prop
    subcode = None
    if isinstance(code, MTCode):
        check = code.property_check(prop, kappa) if kappa is not None else code.property_check(prop)
        payload["result"] = _property_payload(check)
        verdict = check.holds
    elif prop == "reversible":
        # C cap rev C gives both the verdict and the largest reversible subcode.
        verdict, subcode = code.reversibility()
        payload["result"] = {"holds": verdict}
    else:
        verdict = _linear_property(code, prop, kappa or 0)
        payload["result"] = {"holds": verdict}
        if kappa is not None:
            payload["result"]["kappa"] = kappa

    if prop == "reversible" and verdict is False:
        if subcode is None:
            # A definite False means rev C has C's profile, so C cap rev C
            # is one meet of reduced GPMs.
            subcode = code.intersect(code.reversed_code()).to_linear()
        payload["largest_reversible_subcode"] = {
            "dimension": subcode.k,
            "generator": scalar_rows(doc.field, subcode.gen),
        }

    if verdict is None:
        _report(payload, args)
        return 1
    return _report(payload, args, lambda: _oracle_property(code, prop, kappa or 0, verdict, budget))


def _selected_property(args) -> tuple[str, int | None]:
    if args.so is not None:
        return "self_orthogonal", args.so
    if args.dc is not None:
        return "dual_containing", args.dc
    if args.lcd is not None:
        return "lcd", args.lcd
    return "reversible", None


def _cmd_check_hull(args, code, payload, budget) -> int:
    kappa = args.hull
    payload["check"] = "hull"
    payload["kappa"] = kappa
    hull = None
    if isinstance(code, MTCode):
        try:
            details = code.galois_hull_details(kappa)
        except DomainError as exc:
            payload["note"] = f"GPM route unavailable: {exc}; using the linear route"
        else:
            payload["qc_gpm"] = poly_rows(details.qc_gpm)
            payload["qc_companion"] = poly_rows(details.qc_companion)
            hull = details.code
    if hull is None:
        hull = _as_linear(code).hull(kappa)
    payload["hull"] = code_payload("hull", hull, budget)
    return _report(
        payload, args, lambda: _oracle_intersection(_as_linear(code), _as_linear(code), hull, kappa, budget)
    )


def _cmd_reverse_payload(args, code, payload, budget) -> int:
    payload["check"] = "reverse"
    rev = code.reversed_code()
    payload["reversed"] = code_payload("reversed", rev, budget)
    payload["equals_original"] = _as_linear(rev) == _as_linear(code)

    def check():
        words = oracle.reverse_words(oracle.enumerate_code(_as_linear(code), budget))
        return oracle.same_code(_as_linear(rev), words, budget)

    return _report(payload, args, check)


def cmd_dual(args, budget) -> int:
    doc = load_document(args.file)
    code = doc.get(args.name)
    payload = base_payload("dual", doc)
    payload["name"] = args.name
    payload["kappa"] = args.galois
    dual = code.dual() if args.galois is None else code.galois_dual(args.galois)
    payload["dual"] = code_payload("dual", dual, budget)

    def check():
        words = oracle.galois_dual_set(_as_linear(code), args.galois or 0, budget)
        return oracle.same_code(_as_linear(dual), words, budget)

    return _report(payload, args, check)


def cmd_reverse(args, budget) -> int:
    doc = load_document(args.file)
    code = doc.get(args.name)
    payload = base_payload("reverse", doc)
    payload["name"] = args.name
    return _cmd_reverse_payload(args, code, payload, budget)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

# Per command: run function, help line, then as usage lines show them its
# options, the options of which at most one may be given (exactly one if in
# parentheses) and its positionals (in brackets if optional).  "--flag=K"
# takes an integer, "--flag=OTHER" a code name; a bare "--flag" is a switch.
_COMMON = "--json --oracle"
COMMANDS = {
    "info": (cmd_info, "describe codes in a document", "", "", "file [name]"),
    "intersect": (cmd_intersect, "intersect two codes", "--galois=K", "[--mt|--linear]", "file first second"),
    "check": (cmd_check, "test a property of a code", "",
              "(--so=K|--dc=K|--lcd=K|--reversible|--hull=K|--reverse|--advisor=OTHER)", "file name"),
    "dual": (cmd_dual, "dual or Galois dual of a code", "--galois=K", "", "file name"),
    "reverse": (cmd_reverse, "reversed code", "", "", "file name"),
}
_HELP = {"-h": "", "--help": ""}


def _usage(name) -> str:
    if name not in COMMANDS:
        return f"usage: mtcodes [-h] {{{','.join(COMMANDS)}}} ..."
    _, _, options, group, positionals = COMMANDS[name]
    opts = " ".join(f"[{opt}]" for opt in f"{_COMMON} {options}".split())
    return " ".join(f"usage: mtcodes {name} [-h] {opts} {group} {positionals}".replace("=", " ").split())


def _option(token: str, flags: dict) -> tuple | None:
    """(flag, text after '=' or None) for an option, a long one by any unique prefix; else None."""
    flag, eq, value = token.partition("=")
    hits = [f for f in flags if f == flag] or [f for f in flags if flag[:2] == "--" and f.startswith(flag)]
    if len(hits) == 1:
        return hits[0], value if eq else None
    if hits or token[:1] == "-" and token != "-" and " " not in token and not re.match(r"-\d*\.?\d+$", token):
        raise ParseError(f"{'ambiguous' if hits else 'unrecognized'} option {token}")
    return None


def parse_args(argv) -> SimpleNamespace | None:
    """The command line, ``run`` being its command, or None after help; raises ParseError."""
    name = argv[0] if argv else ""
    if name not in COMMANDS:
        if name != "-h" and not (name[2:] and "--help".startswith(name)):
            raise ParseError(f"choose a command from {', '.join(COMMANDS)}")
        print("\n".join([_usage(None), ""] + [f"  {cmd:<10} {c[1]}" for cmd, c in COMMANDS.items()]))
        return None
    run, text, options, group, positionals = COMMANDS[name]
    specs = f"{_COMMON} {options} {group}".replace("|", " ").split()
    flags = dict(opt.strip("[()]").partition("=")[::2] for opt in specs) | _HELP
    values = {flag[2:]: None if meta else False for flag, meta in flags.items() if flag not in _HELP}
    members = [opt.strip("[()]").partition("=")[0] for opt in group.split("|")]
    chosen, pos, tokens = [], [], iter(argv[1:])
    for token in tokens:
        if token == "--" or (hit := _option(token, flags)) is None:
            pos += tokens if token == "--" else [token]  # every token after '--' is positional
            continue
        flag, value = hit
        if flags[flag] and value is None:
            value = next(tokens, "--")
            if value == "--" or _option(value, flags):
                raise ParseError(f"argument {flag}: expected one argument")
        elif not flags[flag] and value is not None:
            raise ParseError(f"argument {flag}: takes no value")
        if flag in _HELP:
            print(f"{_usage(name)}\n\n{text}")
            return None
        try:
            values[flag[2:]] = int(value) if flags[flag] == "K" else value if flags[flag] else True
        except ValueError:
            raise ParseError(f"argument {flag}: {value!r} is not an integer") from None
        chosen += [flag] if flag in members else []
    names = positionals.replace("[", "").replace("]", "").split()
    if not len(names) - positionals.count("[") <= len(pos) <= len(names):
        raise ParseError(f"expected arguments {positionals}, got {len(pos)}")
    if len(set(chosen)) > 1 or group.startswith("(") and not chosen:
        raise ParseError(f"give {'one' if group.startswith('(') else 'at most one'} of {' '.join(members)}")
    return SimpleNamespace(run=run, **values, **dict(zip(names, pos + [None] * len(names))))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = parse_args(argv)
        except ParseError as exc:
            print(f"{_usage(argv[0] if argv else None)}\nerror: {exc}", file=sys.stderr)
            return 2
        status = 0
        if args is not None:
            raw = os.environ.get(ENV_BUDGET)
            try:
                budget = None if raw is None else int(raw)
            except ValueError:
                raise ParseError(f"{ENV_BUDGET} must be an integer") from None
            status = args.run(args, budget)
        # A report smaller than the buffer is first written here, so that a
        # reader who has gone is met below and not at interpreter exit.
        sys.stdout.flush()
        return status
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout early; send the rest, and the flush at
        # exit, to devnull so that no second error is raised.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
