"""Span recorder that times the program's layers from outside.

`Recorder.install()` rebinds the public functions listed in TARGETS wherever
a `trivalent` module holds them (for example `trivalent.spaces.canonicalize`
and `trivalent.graphs.canonicalize` for `canon.canonicalize`), and wraps the
listed `Cache` and `GraphSpace` methods on their classes.  Each call becomes
one span [name, start, end, parent index, operation id, info]; spans stay in
memory and `dump` writes them once at the end.  `uninstall()` restores every
binding.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute, info(result, args) or None)
TARGETS = (
    ("canon.canonicalize", "trivalent.canon", "canonicalize", None),
    ("graphs.reduce", "trivalent.graphs", "reduce", None),
    ("graphs.automorphisms", "trivalent.graphs", "automorphisms", None),
    ("graphs.contract_edge", "trivalent.graphs", "contract_edge", None),
    ("graphs.ihx_expansions", "trivalent.graphs", "ihx_expansions", None),
    ("spaces.enumerate_graphs", "trivalent.spaces", "enumerate_graphs", lambda r, a: len(r)),
    ("spaces.classify", "trivalent.spaces", "classify", lambda r, a: (len(r[0]), len(r[1]))),
    ("linalg.rank_mod_p", "trivalent.linalg", "rank_mod_p", None),
    ("linalg.exact_rank", "trivalent.linalg", "exact_rank", None),
    ("linalg.exact_rref", "trivalent.linalg", "exact_rref", None),
    ("linalg.reduce_vector", "trivalent.linalg", "reduce_vector", None),
    ("linalg.solve_exact", "trivalent.linalg", "solve_exact", None),
    ("morse.compute_propagator", "trivalent.morse", "compute_propagator", None),
    ("morse.dual_propagator", "trivalent.morse", "dual_propagator", None),
    ("morse.contraction_identity_holds", "trivalent.morse", "contraction_identity_holds", None),
    ("surgery.evaluate_orbit", "trivalent.surgery", "evaluate_orbit", None),
    ("surgery.evaluate_full", "trivalent.surgery", "evaluate_full", None),
    ("cli.main", "trivalent.cli", "main", None),
)


def _load_info(result, args):
    """Bytes read on a hit, -1 on a miss."""
    cache, k, kind = args[:3]
    return -1 if result is None else cache.path(k, kind).stat().st_size


def _store_info(result, args):
    cache, k, kind = args[:3]
    return cache.path(k, kind).stat().st_size


# (span name, class module, class, method, info); a property is wrapped
# through its getter.  `_key_index` is private: it is traced only so that
# canonicalize calls can be attributed to the basis key index.
METHODS = (
    ("cache.load", "trivalent.cache", "Cache", "load", _load_info),
    ("cache.store", "trivalent.cache", "Cache", "store", _store_info),
    ("spaces.GraphSpace.basis", "trivalent.spaces", "GraphSpace", "basis", None),
    ("spaces.GraphSpace.relation_rows", "trivalent.spaces", "GraphSpace", "relation_rows",
     lambda r, a: len(r)),
    ("spaces.GraphSpace.dimension", "trivalent.spaces", "GraphSpace", "dimension", None),
    ("spaces.GraphSpace.exact_dimension", "trivalent.spaces", "GraphSpace", "exact_dimension", None),
    ("spaces.GraphSpace.class_vector", "trivalent.spaces", "GraphSpace", "class_vector", None),
    ("spaces.GraphSpace.normal_form", "trivalent.spaces", "GraphSpace", "normal_form", None),
    ("spaces.GraphSpace.reduce_graph", "trivalent.spaces", "GraphSpace", "reduce_graph", None),
    ("spaces.GraphSpace._key_index", "trivalent.spaces", "GraphSpace", "_key_index", None),
)


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.op = 0
        self.enabled = False
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(result, args)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "trivalent" or n.startswith("trivalent.")]
        for name, module, attr, info in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, module, cls_name, attr, info in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, property):
                wrapped = property(self._wrap(name, original.fget, info))
            else:
                wrapped = self._wrap(name, original, info)
            self._undo.append((cls, attr, original))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op", "info"], "spans": self.spans},
                fh,
            )


# canonicalize calls are split by the nearest enclosing span of these
_CANON_PARENTS = {
    "spaces.enumerate_graphs": "enumerate",
    "spaces.classify": "classify",
    "spaces.GraphSpace.relation_rows": "relations",
    "spaces.GraphSpace._key_index": "key_index",
}
LAYERS = ("canon", "graphs", "spaces", "linalg", "morse", "surgery", "cache", "cli")
CALLS_AND_SECONDS = (
    "graphs.reduce",
    "graphs.automorphisms",
    "graphs.contract_edge",
    "graphs.ihx_expansions",
    "linalg.rank_mod_p",
    "linalg.exact_rank",
    "linalg.exact_rref",
    "linalg.reduce_vector",
    "linalg.solve_exact",
    "morse.dual_propagator",
    "morse.contraction_identity_holds",
    "surgery.evaluate_orbit",
    "surgery.evaluate_full",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, timed_traced: float, timed_untraced: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced pass.

    timed_* are the summed timed regions (job plus operations) of the traced
    pass and of an untraced pass doing the same work.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls: dict = {}
    total: dict = {}
    self_s: dict = {}
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]

    def ancestor(i, names):
        """Index of the nearest enclosing span named in names, or -1."""
        p = spans[i][3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        return p

    canon_split = dict.fromkeys(list(_CANON_PARENTS.values()) + ["other"], 0)
    contractions = 0
    computing_rows = set()
    for i, s in enumerate(spans):
        if s[0] == "canon.canonicalize":
            p = ancestor(i, _CANON_PARENTS)
            canon_split[_CANON_PARENTS[spans[p][0]] if p >= 0 else "other"] += 1
        elif s[0] == "graphs.contract_edge":
            p = ancestor(i, ("spaces.GraphSpace.relation_rows",))
            if p >= 0:
                contractions += 1
                computing_rows.add(p)
    rows = sum(spans[p][5] for p in computing_rows)
    graphs = sum(s[5] for s in spans if s[0] == "spaces.enumerate_graphs")
    signed = sum(s[5][0] for s in spans if s[0] == "spaces.classify")
    zeros = sum(s[5][1] for s in spans if s[0] == "spaces.classify")
    loads = [s[5] for s in spans if s[0] == "cache.load"]
    stores = [s[5] for s in spans if s[0] == "cache.store"]
    obstructed = sum(
        1 for s in spans if s[0] == "morse.compute_propagator" and s[5] == "NotAcyclicError"
    )
    top = sum(dur[i] for i, s in enumerate(spans) if s[3] < 0)

    out: dict = {}
    out["canon.canonicalize.calls"] = (calls.get("canon.canonicalize", 0), "count")
    out["canon.canonicalize.s"] = (total.get("canon.canonicalize", 0.0), "s")
    for part, count in canon_split.items():
        out[f"canon.canonicalize.calls_{part}"] = (count, "count")
    for name in ("spaces.enumerate_graphs", "spaces.classify", "spaces.GraphSpace.relation_rows"):
        out[f"{name}.s"] = (total.get(name, 0.0), "s")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    out["spaces.enumerate_graphs.graphs"] = (graphs, "count")
    out["spaces.enumerate_graphs.canon_per_graph"] = (_ratio(canon_split["enumerate"], graphs), "calls/graph")
    out["spaces.classify.signed"] = (signed, "count")
    out["spaces.classify.zero_share"] = (_ratio(zeros, signed + zeros), "ratio")
    out["spaces.GraphSpace.relation_rows.contractions"] = (contractions, "count")
    out["spaces.GraphSpace.relation_rows.rows"] = (rows, "count")
    out["spaces.GraphSpace.relation_rows.rows_per_contraction"] = (
        _ratio(rows, contractions), "rows/contraction")
    for name in CALLS_AND_SECONDS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.s"] = (total.get(name, 0.0), "s")
    out["cache.load.calls"] = (len(loads), "count")
    out["cache.load.hits"] = (sum(1 for b in loads if b >= 0), "count")
    out["cache.load.misses"] = (sum(1 for b in loads if b < 0), "count")
    out["cache.load.bytes"] = (sum(b for b in loads if b >= 0), "bytes")
    out["cache.load.s"] = (total.get("cache.load", 0.0), "s")
    out["cache.store.calls"] = (len(stores), "count")
    out["cache.store.bytes"] = (sum(stores), "bytes")
    out["cache.store.s"] = (total.get("cache.store", 0.0), "s")
    out["morse.compute_propagator.calls"] = (calls.get("morse.compute_propagator", 0), "count")
    out["morse.compute_propagator.s"] = (total.get("morse.compute_propagator", 0.0), "s")
    out["morse.compute_propagator.obstructed"] = (obstructed, "count")
    out["cli.main.calls"] = (calls.get("cli.main", 0), "count")
    out["cli.main.self_s"] = (self_s.get("cli.main", 0.0), "s")
    for layer in LAYERS:
        value = sum(v for name, v in self_s.items() if name.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = (value, "s")
    out["trace.coverage"] = (_ratio(top, timed_traced), "ratio")
    out["trace.overhead"] = (_ratio(timed_traced, timed_untraced), "ratio")
    return out
