"""Span tracing of the qeuler layers, installed from outside the package.

:func:`install` wraps every public function of each layer module, the row
builders, and the kernel's product and evaluation methods, and rebinds each
wrapper under every name the package binds the original to (``from ...
import`` copies included).  Each call becomes a span (group, start, end,
parent, operation id) kept in flat arrays; self times are accumulated as
spans close, so that the self times of all groups, the operation's own root
span (group ``cli``) included, add up to the traced operation time.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import statistics
import time
from array import array

# module -> (group for unlisted public functions, {name: group}).  Group
# names are "<layer>.<part>"; a ":" suffix only tags row spans by family.
LAYERS = {
    "qring": (
        "qring.other",
        {
            "exact_div": "qring.div",
            "eval_rat": "qring.eval",
            "q_binom": "qring.qbinom",
            "poch_t": "qring.poch",
            "poch_num": "qring.poch",
            "subst_q_power": "qring.subst",
            "subst_q_recip": "qring.subst",
            "subst_t_signed_power": "qring.subst",
        },
    ),
    "eulerian": (
        "eulerian.other",
        {
            "_carlitz_row": "eulerian.rows:A",
            "_gamma_a_row": "eulerian.rows:a",
            "_typeB_row": "eulerian.rows:B",
            "_gamma_b_row": "eulerian.rows:b",
            "carlitz_series_oracle": "eulerian.series",
            "typeB_series_oracle": "eulerian.series",
            "gamma_expand_A": "eulerian.expand",
            "gamma_expand_B": "eulerian.expand",
            "basis_change_A": "eulerian.expand",
            "basis_change_B": "eulerian.expand",
            "bracket_identity_A": "eulerian.brackets",
            "bracket_identity_B": "eulerian.brackets",
            "q_int_ext": "eulerian.brackets",
        },
    ),
    "special": (
        "special.families",
        {
            "f_eval": "special.identity",
            "f_star_eval": "special.identity",
            "verify_d_identity": "special.identity",
            "verify_gstar_identity": "special.identity",
            "conjecture_scan_gstar": "special.scan",
        },
    ),
    "doubloon": ("doubloon", {}),
    "unimodality": ("unimodality", {}),
    "serialize": ("serialize", {}),
}
# Per-candidate helpers of the brute-force enumeration: a span per call
# would cost more than the work.  is_interlaced is counted instead.
UNTRACED = {"doubloon": {"word_des", "word_maj", "cmaj_prime", "is_interlaced"}}
METHODS = {
    ("QPoly", "__call__"): "qring.eval",
    ("QLaurent", "__call__"): "qring.eval",
    ("QLaurent", "__mul__"): "qring.other",
    ("QLaurent", "__rmul__"): "qring.other",
    ("TQPoly", "__mul__"): "qring.tqmul",
    ("TQPoly", "__rmul__"): "qring.tqmul",
}
ROOT = "cli"
ROW_CACHES = ("_carlitz_row", "_gamma_a_row", "_typeB_row", "_gamma_b_row")


def structured(cs: tuple) -> bool:
    """True for a monomial ``c q^e`` or a q-integer ``[m]_{q^s}``."""
    n = len(cs)
    nz = n - cs.count(0)
    if nz <= 1:
        return True
    if cs[0] != 1 or cs.count(1) != nz:
        return False
    s = cs.index(1, 1)
    return (n - 1) % s == 0 and nz == (n - 1) // s + 1 and cs[::s].count(1) == nz


class Tracer:
    def __init__(self):
        self.groups: list[str] = []
        self.gid: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.arg = array("l")
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.stack: list[list] = []
        self.op_id = -1
        self.counts = dict.fromkeys(
            ("mul.terms", "mul.dense_terms", "mul.structured", "div.not_divisible",
             "doubloon.candidates", "doubloon.interlaced", "serialize.bytes"),
            0,
        )
        self.caches: dict[str, object] = {}
        self.cache_delta = dict.fromkeys(("rows.hits", "rows.misses", "qbinom.hits", "qbinom.misses"), 0)
        self.missing: list[str] = []

    def group(self, name: str) -> int:
        if name not in self.gid:
            self.gid[name] = len(self.groups)
            self.groups.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self.gid[name]

    def span(self, group: str, fn, on_result=None, record_arg=False):
        gid = self.group(group)
        stack, start, end = self.stack, self.start, self.end
        name, parent, op, arg = self.name, self.parent, self.op, self.arg
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(gid)
            parent.append(stack[-1][0] if stack else -1)
            op.append(tracer.op_id)
            arg.append(args[0] if record_arg else -1)
            start.append(0.0)
            end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                dur = t1 - t0
                self_s[gid] += dur - frame[1]
                calls[gid] += 1
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def run_op(self, fn, *args):
        """Run one operation under a root span; returns (result, seconds)."""
        self.op_id += 1
        before = self._cache_stats()
        idx = len(self.start)
        result = self.span(ROOT, fn)(*args)
        after = self._cache_stats()
        for key in self.cache_delta:
            self.cache_delta[key] += after[key] - before[key]
        return result, self.end[idx] - self.start[idx]

    def _cache_stats(self) -> dict[str, int]:
        out = dict.fromkeys(self.cache_delta, 0)
        for key, cache in self.caches.items():
            info = cache.cache_info()
            prefix = "qbinom" if key == "q_binom" else "rows"
            out[f"{prefix}.hits"] += info.hits
            out[f"{prefix}.misses"] += info.misses
        return out

    def summary(self) -> dict:
        """Additive totals, mergeable across processes by :func:`merge`."""
        return {
            "self_s": {g: self.self_s[i] for i, g in enumerate(self.groups)},
            "calls": {g: self.calls[i] for i, g in enumerate(self.groups)},
            "counts": dict(self.counts),
            "cache": dict(self.cache_delta),
        }

    def spans(self) -> dict:
        return {
            "groups": list(self.groups),
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "arg": self.arg.tolist(),
        }


def _mul_wrapper(tracer: Tracer, fn, qpoly):
    traced = tracer.span("qring.mul", fn)
    counts = tracer.counts

    def wrapper(a, b):
        if isinstance(b, int):
            counts["mul.terms"] += len(a.coeffs)
            counts["mul.structured"] += 1
        elif isinstance(b, qpoly):
            terms = len(a.coeffs) * len(b.coeffs)
            counts["mul.terms"] += terms
            if structured(a.coeffs) or structured(b.coeffs):
                counts["mul.structured"] += 1
            else:
                counts["mul.dense_terms"] += terms
        else:
            return fn(a, b)  # NotImplemented: the other operand's method runs
        return traced(a, b)

    return wrapper


def install(tracer: Tracer, package) -> None:
    """Wrap the layers of an imported ``qeuler`` package in place."""
    import importlib

    modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS}
    modules["cli"] = importlib.import_module(f"{package.__name__}.cli")
    replace: dict[int, object] = {}

    def not_divisible(result):
        if type(result).__name__ == "NotDivisible":
            tracer.counts["div.not_divisible"] += 1

    def interlaced_counter(fn):
        counts = tracer.counts

        def wrapper(d):
            ok = fn(d)
            counts["doubloon.candidates"] += 1
            counts["doubloon.interlaced"] += ok
            return ok

        return wrapper

    def serialized(result):
        if isinstance(result, str):
            tracer.counts["serialize.bytes"] += len(result.encode())

    for modname, (default, groups) in LAYERS.items():
        mod = modules[modname]
        skip = UNTRACED.get(modname, set())
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__ or inspect.isclass(obj):
                continue
            if not callable(obj) or inspect.isgeneratorfunction(obj):
                continue
            if attr in skip:
                if attr == "is_interlaced":
                    replace[id(obj)] = interlaced_counter(obj)
                continue
            if attr.startswith("_") and attr not in groups:
                continue
            group = groups.get(attr, default)
            if hasattr(obj, "cache_info") and (attr in ROW_CACHES or attr == "q_binom"):
                tracer.caches[attr] = obj
            replace[id(obj)] = tracer.span(
                group,
                obj,
                on_result=not_divisible if attr == "exact_div" else (
                    serialized if attr == "dumps" else None),
                record_arg=group.startswith("eulerian.rows"),
            )
        for attr in groups:
            if attr not in vars(mod):
                tracer.missing.append(f"{modname}.{attr}")

    qring = modules["qring"]
    wrapped = _mul_wrapper(tracer, qring.QPoly.__mul__, qring.QPoly)
    qring.QPoly.__mul__ = qring.QPoly.__rmul__ = wrapped
    for (cls_name, meth), group in METHODS.items():
        cls = getattr(qring, cls_name, None)
        if cls is None or meth not in vars(cls):
            tracer.missing.append(f"qring.{cls_name}.{meth}")
            continue
        setattr(cls, meth, tracer.span(group, vars(cls)[meth]))

    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replace:
                setattr(mod, attr, replace[id(obj)])


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

SELF_GROUPS = (
    "qring.mul", "qring.tqmul", "qring.div", "qring.eval", "qring.qbinom", "qring.poch",
    "qring.subst", "qring.other", "eulerian.rows", "eulerian.series", "eulerian.expand",
    "eulerian.brackets", "eulerian.other", "special.families", "special.identity",
    "special.scan", "doubloon", "unimodality", "serialize", "cli",
)


def merge(total: dict, part: dict) -> dict:
    for key, sub in part.items():
        dest = total.setdefault(key, {})
        for k, v in sub.items():
            dest[k] = dest.get(k, 0) + v
    return total


def _row_costs(spans: dict) -> dict[str, dict[int, list[float]]]:
    """Seconds spent building each row (family -> n -> samples): a row span's
    duration less its nested previous-row span.  Spans without children
    are cache hits."""
    groups = spans["groups"]
    rows = {i: g.split(":")[1] for i, g in enumerate(groups) if g.startswith("eulerian.rows:")}
    name, parent, start, end, arg = (spans[k] for k in ("name", "parent", "start", "end", "arg"))
    has_child = set(parent)
    nested_row = {}
    for i, p in enumerate(parent):
        if p >= 0 and name[i] in rows and name[p] in rows:
            nested_row[p] = nested_row.get(p, 0.0) + end[i] - start[i]
    out: dict[str, dict[int, list[float]]] = {}
    for i, g in enumerate(name):
        if g in rows and i in has_child:
            cost = end[i] - start[i] - nested_row.get(i, 0.0)
            out.setdefault(rows[g], {}).setdefault(arg[i], []).append(cost)
    return out


def scale_exponent(costs: dict[int, list[float]]) -> float:
    """Least-squares slope of log(cumulative build time to row N) against
    log N over the upper half of the rows seen; 0 when fewer than three
    rows there were built."""
    ns = sorted(costs)
    if len(ns) < 3:
        return 0.0
    cumulative, acc = {}, 0.0
    for n in ns:
        acc += statistics.median(costs[n])
        cumulative[n] = acc
    lo = max(4, ns[-1] // 2)
    pts = [(math.log(n), math.log(c)) for n, c in cumulative.items() if n >= lo and c > 0]
    if len(pts) < 3:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(total: dict, spans: dict, ops: int, traced_s: float, plain_s: float,
                  alloc_peak_b: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit).  Times and counts are means per
    operation, so a faster program that fits more operations into the run
    does not inflate them."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for g, v in total.get("self_s", {}).items():
        key = g.split(":")[0]
        if key not in SELF_GROUPS:
            raise ValueError(f"span group {key} has no self-time metric")
        self_s[key] = self_s.get(key, 0.0) + v
        calls[key] = calls.get(key, 0) + total["calls"][g]
    counts = total.get("counts", {})
    cache = total.get("cache", {})
    per = 1 / max(ops, 1)
    m: dict[str, tuple[float, str]] = {}
    for g in SELF_GROUPS:
        m[f"{g}.self_s"] = (self_s.get(g, 0.0) * per, "s/op")
    for g in ("qring.mul", "qring.tqmul", "qring.div", "qring.eval", "eulerian.series"):
        m[f"{g}.calls"] = (calls.get(g, 0) * per, "1/op")
    mul_calls = calls.get("qring.mul", 0)
    terms = counts.get("mul.terms", 0)
    m["qring.mul.terms"] = (terms * per, "1/op")
    m["qring.mul.dense_terms"] = (counts.get("mul.dense_terms", 0) * per, "1/op")
    m["qring.mul.ns_per_term"] = (self_s.get("qring.mul", 0.0) * 1e9 / terms if terms else 0.0, "ns")
    m["qring.mul.structured_share"] = (counts.get("mul.structured", 0) / mul_calls if mul_calls else 0.0, "ratio")
    m["qring.div.not_divisible"] = (counts.get("div.not_divisible", 0) * per, "1/op")
    m["qring.qbinom.hits"] = (cache.get("qbinom.hits", 0) * per, "1/op")
    m["qring.qbinom.misses"] = (cache.get("qbinom.misses", 0) * per, "1/op")
    hits, built = cache.get("rows.hits", 0), cache.get("rows.misses", 0)
    m["eulerian.rows.built"] = (built * per, "1/op")
    m["eulerian.rows.hits"] = (hits * per, "1/op")
    m["eulerian.rows.hit_ratio"] = (hits / (hits + built) if hits + built else 0.0, "ratio")
    costs = _row_costs(spans)
    for fam in ("A", "a", "B", "b"):
        m[f"eulerian.rows.scale_exp.{fam}"] = (scale_exponent(costs.get(fam, {})), "1")
    cand, inter = counts.get("doubloon.candidates", 0), counts.get("doubloon.interlaced", 0)
    m["doubloon.candidates"] = (cand * per, "1/op")
    m["doubloon.interlaced"] = (inter * per, "1/op")
    m["doubloon.yield"] = (inter / cand if cand else 0.0, "ratio")
    m["serialize.bytes"] = (counts.get("serialize.bytes", 0) * per, "B/op")
    m["op.traced_s"] = (traced_s * per, "s/op")
    m["op.alloc_peak_mb"] = (alloc_peak_b / 2**20, "MB")
    m["trace.overhead"] = (traced_s / plain_s if plain_s else 0.0, "ratio")
    return m


def write_spans(path, spans: dict) -> None:
    with gzip.open(path, "wt", compresslevel=1) as f:
        json.dump(spans, f, separators=(",", ":"))


def merge_spans(total: dict, part: dict) -> None:
    """Append one process's spans to ``total``, remapping group ids and
    parent indices."""
    groups = total.setdefault("groups", [])
    remap = []
    for g in part["groups"]:
        if g not in groups:
            groups.append(g)
        remap.append(groups.index(g))
    base = len(total.get("name", []))
    total.setdefault("name", []).extend(remap[i] for i in part["name"])
    total.setdefault("parent", []).extend(p + base if p >= 0 else -1 for p in part["parent"])
    for key in ("start", "end", "op", "arg"):
        total.setdefault(key, []).extend(part[key])
