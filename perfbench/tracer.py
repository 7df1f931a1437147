"""Spans around the calls into each library layer, installed from outside.

`Tracer.install` replaces every public function of each layer module (and,
for `polynomials`, the methods of `Monomial` and `Polynomial`) with a
wrapper, in the module and in every other `edgeideals` module that imported
it by name.  A wrapper records one span: function, start, end and the span
that was open when it was called.  Self time is a span's duration minus the
time its child spans cover; it is summed per function as spans close, so the
aggregates are exact even when the kept span list is capped.

Counters that need the arguments or the result (distinct graphs given to
`cover_stats`, covers enumerated, trace nodes, layer searches that found a
layering, certificate steps checked, the vertex count of each Hochster call)
are taken by per-function hooks while the tracer is paused.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

LAYERS = ("graphs", "covers", "bounds", "classify", "constructions",
          "polynomials", "certificates", "homology", "cli")
POLY_CLASSES = ("Monomial", "Polynomial")
SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names = []       # function id -> "layer:qualname"
        self.agg = []         # function id -> [calls, inclusive s, self s]
        self.spans = []       # (span id, function id, start, end, parent id)
        self.stack = []       # open spans: [start, child seconds, span id]
        self.next_id = 1
        self.dropped = 0
        self.graphs_seen = set()
        self.counts = {"cover_stats_calls": 0, "covers_enumerated": 0,
                       "trace_nodes": 0, "sv_calls": 0, "sv_found": 0,
                       "steps_checked": 0}
        self.pd_ms = {}       # non-isolated vertex count -> [ms, ...]

    # -- installation --------------------------------------------------

    def install(self, layers=LAYERS):
        mods = {name: importlib.import_module("edgeideals." + name)
                for name in layers}
        replaced = {}
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if (not name.startswith("_") and callable(fn)
                        and getattr(fn, "__module__", None) == mod.__name__
                        and getattr(fn, "__code__", None) is not None):
                    w = self._wrap(layer, name, fn)
                    setattr(mod, name, w)
                    replaced[id(fn)] = (fn, w)
        if "polynomials" in mods:
            for cname in POLY_CLASSES:
                cls = getattr(mods["polynomials"], cname)
                self._wrap_class(cls)
        # Rebind names other modules imported with "from .x import y".
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("edgeideals"):
                for name, val in list(vars(mod).items()):
                    hit = replaced.get(id(val))
                    if hit is not None and hit[0] is val:
                        setattr(mod, name, hit[1])

    def _wrap_class(self, cls):
        done = {}
        for name, attr in list(vars(cls).items()):
            static = isinstance(attr, staticmethod)
            fn = attr.__func__ if static else attr
            code = getattr(fn, "__code__", None)
            if code is None or not code.co_filename.endswith("polynomials.py"):
                continue  # properties and dataclass-generated methods
            if id(fn) not in done:
                done[id(fn)] = self._wrap("polynomials",
                                          "%s.%s" % (cls.__name__,
                                                     fn.__name__), fn)
            w = done[id(fn)]
            setattr(cls, name, staticmethod(w) if static else w)

    def _wrap(self, layer, name, fn):
        fid = len(self.names)
        self.names.append("%s:%s" % (layer, name))
        self.agg.append([0, 0.0, 0.0])
        agg = self.agg[fid]
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][2] if stack else 0
            sid = tracer.next_id
            tracer.next_id = sid + 1
            frame = [clock(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((sid, fid, frame[0], end, parent))
                else:
                    tracer.dropped += 1
            if hook is not None:
                # The hook's own time is kept out of the caller's self time.
                tracer.enabled = False
                start = clock()
                try:
                    hook(args, result, dur)
                finally:
                    tracer.enabled = True
                    if stack:
                        stack[-1][1] += clock() - start
            return result

        return wrapper

    # -- counter hooks (run with the tracer paused) --------------------

    def _hook_cover_stats(self, args, result, dur):
        self.counts["cover_stats_calls"] += 1
        self.graphs_seen.add(args[0])

    def _hook_enumerate_minimal_covers(self, args, result, dur):
        self.counts["covers_enumerated"] += len(result)

    def _hook_theorem34_trace(self, args, result, dur):
        self.counts["trace_nodes"] += sum(1 for _ in result.walk())

    def _hook_sv_layer_search(self, args, result, dur):
        self.counts["sv_calls"] += 1
        self.counts["sv_found"] += result is not None

    def _hook_verify_certificate(self, args, verdict, dur):
        steps = len(args[1].steps)
        self.counts["steps_checked"] += steps if verdict.ok else \
            verdict.failed_step + 1 if verdict.failed_step >= 0 else 0

    def _hook_projective_dimension(self, args, result, dur):
        k = len(args[0].non_isolated)
        self.pd_ms.setdefault(k, []).append(dur * 1e3)

    # -- results -------------------------------------------------------

    def summary(self):
        """Plain-data aggregates; `merge` adds several of them up."""
        return {"names": self.names, "agg": self.agg,
                "counts": dict(self.counts,
                               distinct_graphs=len(self.graphs_seen)),
                "pd_ms": {str(k): v for k, v in self.pd_ms.items()},
                "spans": len(self.spans) + self.dropped,
                "spans_dropped": self.dropped}

    def write_spans(self, fh, process=0):
        """One header line naming the functions, then one line per kept
        span: process, span id, function id, start, end, parent span id."""
        fh.write(json.dumps({"process": process, "names": self.names}) + "\n")
        for span in self.spans:
            fh.write("%d %d %d %.9f %.9f %d\n" % ((process,) + span))


def merge(summaries):
    """Sum the aggregates of several traced processes (cli-small)."""
    out = {"agg": {}, "counts": {}, "pd_ms": {}, "spans": 0,
           "spans_dropped": 0}
    for s in summaries:
        for name, (calls, incl, self_s) in zip(s["names"], s["agg"]):
            a = out["agg"].setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += incl
            a[2] += self_s
        for k, v in s["counts"].items():
            out["counts"][k] = out["counts"].get(k, 0) + v
        for k, v in s["pd_ms"].items():
            out["pd_ms"].setdefault(k, []).extend(v)
        out["spans"] += s["spans"]
        out["spans_dropped"] += s["spans_dropped"]
    return out


def layer_metrics(merged):
    """The per-layer metrics named in BENCHMARK.json from merged aggregates
    (op-level ratios and the cli timings are added by the caller)."""
    agg, counts = merged["agg"], merged["counts"]

    def layer(name):
        calls = sum(a[0] for k, a in agg.items()
                    if k.startswith(name + ":"))
        self_s = sum(a[2] for k, a in agg.items()
                     if k.startswith(name + ":"))
        return calls, self_s

    def fn(name):
        return agg.get(name, [0, 0.0, 0.0])

    m = {}
    for name in LAYERS[:-1]:
        calls, self_s = layer(name)
        if name != "polynomials":
            m[name + ".calls"] = calls
        m[name + ".self_s"] = self_s
    m["covers.distinct_graphs"] = counts.get("distinct_graphs", 0)
    m["covers.covers_enumerated"] = counts.get("covers_enumerated", 0)
    m["bounds.trace_nodes"] = counts.get("trace_nodes", 0)
    sv = counts.get("sv_calls", 0)
    m["constructions.sv_found_ratio"] = \
        counts.get("sv_found", 0) / sv if sv else 0.0
    m["polynomials.mul_calls"] = fn("polynomials:Monomial.__mul__")[0]
    m["polynomials.divides_calls"] = fn("polynomials:Monomial.divides")[0]
    m["certificates.verify_calls"] = \
        fn("certificates:verify_certificate")[0]
    m["certificates.verify_s"] = fn("certificates:verify_certificate")[1]
    m["certificates.steps_checked"] = counts.get("steps_checked", 0)
    m["certificates.serde_s"] = (
        fn("certificates:certified_set_to_data")[1]
        + fn("certificates:certified_set_from_data")[1])
    for k in range(7, 13):
        vals = merged["pd_ms"].get(str(k), [])
        m["homology.op_ms.n%d" % k] = statistics.median(vals) if vals else 0.0
    return m
