"""Layer-by-layer tracing of the program from outside.

``install`` wraps public functions of mtcodes' gf, upoly, pmat, lincode,
mtcode, oracle and cli modules in place, so nothing inside the package
changes.  A wrapped call records a span (name, start, end, parent span)
only while an operation is open (``begin_op``/``end_op``), so the checks
and input generation that run between operations stay out of the trace.
Leaf arithmetic (Field add/sub/neg/mul/inv, Poly mul and divmod) is too
frequent to keep one span per call; it is counted and timed into the
innermost open span instead.
"""

from __future__ import annotations

import time

# Positions in an open span record.
_ID, _NAME, _START, _GF, _MUL_N, _MUL_S, _DIV_N, _DIV_S, _COUNT, _DEG, _PARENT = range(11)

# Span names and the functions they wrap: (module, attribute path).
SPAN_TARGETS = {
    "upoly.factor": [("upoly", "factor")],
    "upoly.pow_mod": [("upoly", "Poly.pow_mod")],
    "pmat.hnf": [("pmat", "hnf")],
    "pmat.matmul": [("pmat", "PolyMatrix.__matmul__")],
    "pmat.rank_mod": [("pmat", "rank_mod")],
    "pmat.chain_type": [("pmat", "chain_type")],
    "lincode.rref": [("lincode", "rref")],
    "lincode.min_distance": [("lincode", "LinearCode.min_distance")],
    "mtcode.construct": [("mtcode", "MTCode.__init__")],
    "mtcode.to_linear": [("mtcode", "MTCode.to_linear")],
    "mtcode.intersection": [
        ("mtcode", "MTCode.intersection_details"),
        ("mtcode", "MTCode.galois_intersection_details"),
    ],
    "mtcode.dual": [("mtcode", "MTCode.dual"), ("mtcode", "MTCode.galois_dual")],
    "mtcode.property_check": [("mtcode", "MTCode.property_check")],
    "mtcode.trivial_intersection": [("mtcode", "MTCode.trivial_intersection_evidence")],
    "oracle": [
        ("oracle", name)
        for name in ("enumerate_code", "intersect_codes", "galois_dual_set", "same_code", "is_invariant")
    ],
    "cli.parse": [("cli", "load_document")],
    "cli.render": [("cli", "emit")],
}

GF_METHODS = ("add", "sub", "neg", "mul", "inv")

# Per-layer metric names in report order, with units.
COUNT_METRICS = [
    "gf.calls",
    "upoly.factor.calls",
    "upoly.divmod.calls",
    "upoly.mul.calls",
    "pmat.hnf.calls",
    "pmat.matmul.calls",
    "pmat.rank_mod.calls",
    "pmat.chain_type.calls",
    "lincode.rref.calls",
    "lincode.rref.rows",
    "lincode.min_distance.words",
    "mtcode.construct.calls",
    "mtcode.to_linear.rows",
]
TIME_METRICS = [
    "upoly.factor",
    "upoly.divmod",
    "upoly.mul",
    "upoly.pow_mod",
    "pmat.hnf",
    "pmat.matmul",
    "pmat.rank_mod",
    "pmat.chain_type",
    "lincode.rref",
    "lincode.min_distance",
    "mtcode.construct",
    "mtcode.to_linear",
    "mtcode.intersection",
    "mtcode.dual",
    "mtcode.property_check",
    "mtcode.trivial_intersection",
    "oracle",
    "cli.parse",
    "cli.render",
]


class Tracer:
    """Spans of the operations run while it is installed.

    A finished span is the tuple (op, id, parent, name, start, end, gf
    calls, Poly mul calls, mul seconds, divmod calls, divmod seconds,
    count, degree): count is rows fed to rref, words enumerated by
    min_distance or rows expanded by to_linear; degree is the largest entry
    degree of an HNF input.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.op = -1
        self._next = 0
        self._restore: list[tuple] = []

    # -- operations ------------------------------------------------------

    def begin_op(self, op: int, kind: str) -> None:
        self.op = op
        self._open("op." + kind)

    def end_op(self) -> None:
        self._close(self.stack.pop(), time.perf_counter())

    def _open(self, name: str) -> list:
        parent = self.stack[-1][_ID] if self.stack else None
        rec = [self._next, name, time.perf_counter(), 0, 0, 0.0, 0, 0.0, 0, -1, parent]
        self._next += 1
        self.stack.append(rec)
        return rec

    def _close(self, rec: list, end: float) -> None:
        self.spans.append(
            (self.op, rec[_ID], rec[_PARENT], rec[_NAME], rec[_START], end,
             rec[_GF], rec[_MUL_N], rec[_MUL_S], rec[_DIV_N], rec[_DIV_S], rec[_COUNT], rec[_DEG])
        )

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, orig, note=None):
        stack = self.stack

        def wrapper(*args, **kwargs):
            if not stack:
                return orig(*args, **kwargs)
            rec = self._open(name)
            try:
                if note is None:
                    return orig(*args, **kwargs)
                return note(rec, orig, args, kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._close(rec, end)

        wrapper.__wrapped__ = orig
        return wrapper

    def _leaf(self, orig, n_at: int, s_at: int):
        stack = self.stack
        clock = time.perf_counter

        def wrapper(a, b):
            if not stack:
                return orig(a, b)
            t = clock()
            out = orig(a, b)
            top = stack[-1]
            top[n_at] += 1
            top[s_at] += clock() - t
            return out

        wrapper.__wrapped__ = orig
        return wrapper

    def _counted(self, orig):
        stack = self.stack

        def wrapper(*args):
            if stack:
                stack[-1][_GF] += 1
            return orig(*args)

        wrapper.__wrapped__ = orig
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the program's functions; ``uninstall`` puts them back."""
        import importlib

        import mtcodes

        mods = {name: importlib.import_module(f"mtcodes.{name}") for name in
                ("gf", "upoly", "pmat", "lincode", "mtcode", "oracle", "cli")}
        namespaces = [mtcodes] + list(mods.values())
        notes = {
            "pmat.hnf": _note_hnf,
            "lincode.rref": _note_rref,
            "lincode.min_distance": _note_min_distance,
            "mtcode.to_linear": _note_to_linear,
        }
        for name, targets in SPAN_TARGETS.items():
            for mod_name, path in targets:
                owner, attr = _resolve(mods[mod_name], path)
                orig = getattr(owner, attr)
                wrapped = self._span(name, orig, notes.get(name))
                self._set(owner, attr, wrapped)
                if owner is mods[mod_name]:
                    # Modules that did "from .x import f" hold their own binding.
                    for ns in namespaces:
                        if ns is not owner and getattr(ns, attr, None) is orig:
                            self._set(ns, attr, wrapped)
        poly = mods["upoly"].Poly
        self._set(poly, "__mul__", self._leaf(poly.__mul__, _MUL_N, _MUL_S))
        self._set(poly, "__divmod__", self._leaf(poly.__divmod__, _DIV_N, _DIV_S))
        fld = mods["gf"].Field
        for meth in GF_METHODS:
            self._set(fld, meth, self._counted(getattr(fld, meth)))

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _note_hnf(rec, orig, args, kwargs):
    m = args[0]
    rec[_DEG] = max((len(e.coeffs) - 1 for row in m.rows for e in row if e.coeffs), default=-1)
    return orig(*args, **kwargs)


def _note_rref(rec, orig, args, kwargs):
    rows = args[1]
    rec[_COUNT] = len(rows)
    return orig(*args, **kwargs)


def _note_min_distance(rec, orig, args, kwargs):
    code = args[0]
    out = orig(*args, **kwargs)
    if code.k:
        rec[_COUNT] = code.field.q ** code.k
    return out


def _note_to_linear(rec, orig, args, kwargs):
    code = args[0]
    if code._linear is None:
        rec[_COUNT] = code.profile.period * code.profile.ell
    return orig(*args, **kwargs)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts, busy time (s) and self time (self_s) from spans.

    ``name.s`` covers the outermost spans of a name, so a dual that calls a
    dual is not counted twice; ``name.self_s`` is each span's duration
    minus the time its direct children cover.
    """
    by_id = {s[1]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] = child_time.get(s[2], 0.0) + (s[5] - s[4])
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    out = {
        "gf.calls": 0, "upoly.divmod.calls": 0, "upoly.mul.calls": 0,
        "lincode.rref.rows": 0, "lincode.min_distance.words": 0,
        "mtcode.to_linear.rows": 0, "pmat.hnf.max_deg": 0,
    }
    mul_s = div_s = 0.0
    for s in spans:
        (_op, sid, parent, name, start, end, gf, mul_n, m_s, div_n, d_s, count, degree) = s
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(sid, 0.0)
        outer = True
        p = parent
        while p is not None:
            anc = by_id[p]
            if anc[3] == name:
                outer = False
                break
            p = anc[2]
        if outer:
            busy[name] = busy.get(name, 0.0) + dur
        out["gf.calls"] += gf
        out["upoly.mul.calls"] += mul_n
        out["upoly.divmod.calls"] += div_n
        mul_s += m_s
        div_s += d_s
        if name == "lincode.rref":
            out["lincode.rref.rows"] += count
        elif name == "lincode.min_distance":
            out["lincode.min_distance.words"] += count
        elif name == "mtcode.to_linear":
            out["mtcode.to_linear.rows"] += count
        elif name == "pmat.hnf":
            out["pmat.hnf.max_deg"] = max(out["pmat.hnf.max_deg"], degree)
    for name in SPAN_TARGETS:
        if name + ".calls" in COUNT_METRICS:
            out[name + ".calls"] = calls.get(name, 0)
        out[name + ".s"] = busy.get(name, 0.0)
        out[name + ".self_s"] = self_s.get(name, 0.0)
    # Leaf arithmetic opens no spans, so its busy and self time coincide.
    out["upoly.mul.s"] = out["upoly.mul.self_s"] = mul_s
    out["upoly.divmod.s"] = out["upoly.divmod.self_s"] = div_s
    return out


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for q in ("q9", "q289"):
        for meth in GF_METHODS:
            units[f"gf.{meth}_ns.{q}"] = "ns"
    for name in COUNT_METRICS:
        units[name] = "count"
    units["pmat.hnf.max_deg"] = "degree"
    for name in TIME_METRICS:
        units[name + ".s"] = "s"
        units[name + ".self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def field_op_ns(fld, reps: int = 5, n: int = 4000) -> dict[str, float]:
    """ns per call of each Field arithmetic method over fixed element
    sequences, timed from outside; the median of `reps` passes."""
    import random
    import statistics

    rng = random.Random(0)
    a = [rng.randrange(fld.q) for _ in range(n)]
    b = [rng.randrange(1, fld.q) for _ in range(n)]
    out = {}
    for meth in GF_METHODS:
        fn = getattr(fld, meth)
        times = []
        for _ in range(reps):
            if meth in ("neg", "inv"):
                xs = b if meth == "inv" else a
                t = time.perf_counter()
                for x in xs:
                    fn(x)
            else:
                t = time.perf_counter()
                for x, y in zip(a, b):
                    fn(x, y)
            times.append((time.perf_counter() - t) / n * 1e9)
        out[meth] = statistics.median(times)
    return out
