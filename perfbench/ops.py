"""One timed operation per workload, with its output checks.

Each op function takes a pooled input item and returns an `Outcome`: the
time the library calls took, the op's canonical output (compared with the
reference recorded under `reference/`), the problems the paper's invariants
found, and a few input properties.  Only the library calls run inside the
op's `Timer`, which is also the only place a traced run records spans;
input preparation and checks run outside it.

Library calls go through module attributes (`covers.cover_stats`, ...) at
call time so the tracer's wrappers see them.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field

import inputs

from edgeideals import (bounds, certificates, classify, constructions,
                        covers, graphs, homology)
from edgeideals.graphs import Graph


@dataclass
class Outcome:
    seconds: float
    output: object = None  # canonical, JSON-serialisable; None: no reference
    problems: list = field(default_factory=list)
    vertices: int = 0
    props: dict = field(default_factory=dict)


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:10]


class Context:
    """Per-run state shared by the op functions."""

    def __init__(self, tracer=None, workdir=None, cli_prefix=None):
        self.tracer = tracer
        self.workdir = workdir
        self.cli_prefix = cli_prefix

    def timer(self):
        return Timer(self.tracer)


class Timer:
    """Accumulates the time spent inside `with` blocks, with the tracer (if
    any) recording only there."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.seconds = 0.0

    def __enter__(self):
        if self.tracer:
            self.tracer.enabled = True
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self.t0
        if self.tracer:
            self.tracer.enabled = False


def _check(problems, cond, what):
    if not cond:
        problems.append(what)


# -- cactus-sweep ------------------------------------------------------


def cactus_op(item, slot, ctx):
    text = inputs.edge_text(item["edges"])
    with ctx.timer() as timer:
        g = graphs.parse_edge_list(text)
        stats = covers.cover_stats(g)
        trace = bounds.theorem34_trace(g)
        cor41 = bounds.corollary41_bound(g)
        verdict = classify.stci_verdict(g)
    p = []
    n_cycles = graphs.cycle_count(g)
    _check(p, len(g.vertices) == item["n"], "vertex count")
    _check(p, trace.bound == stats.big_height + n_cycles,
           "trace.bound != big_height + n_cycles")
    _check(p, stats.height <= stats.big_height <= cor41.bound <= trace.bound,
           "height <= big_height <= bound fails")
    _check(p, cor41.big_height == stats.big_height, "Cor 4.1 big height")
    _check(p, verdict.status != classify.CM or stats.unmixed,
           "CM verdict on a mixed graph")
    output = {"height": stats.height, "big_height": stats.big_height,
              "unmixed": stats.unmixed,
              "covers": [sorted(c.vertices) for c in stats.all_covers],
              "trace": trace.to_data(),
              "cor41": [cor41.bound, cor41.improvement_k, cor41.source,
                        cor41.stci],
              "verdict": [verdict.status, verdict.stci, verdict.case_tag]}
    return Outcome(timer.seconds, output, p, len(g.vertices))


# -- hochster-pd -------------------------------------------------------


def isolated_share(g):
    """Share of nonempty vertex subsets W of g whose induced graph has an
    isolated vertex (Hochster's formula gets no homology from those)."""
    verts = g.non_isolated
    bit = {v: 1 << i for i, v in enumerate(verts)}
    nbr = [sum(bit[u] for u in g.adj[v]) for v in verts]
    hit = 0
    total = (1 << len(verts)) - 1
    for w in range(1, total + 1):
        for i in range(len(verts)):
            if w >> i & 1 and not nbr[i] & w:
                hit += 1
                break
    return hit / total


def hochster_op(item, slot, ctx):
    g = Graph.build(tuple(e) for e in item["edges"])
    with ctx.timer() as timer:
        pd, table = homology.projective_dimension(g)
    p = []
    bh = covers.big_height(g)
    bound = bh + graphs.cycle_count(g)
    _check(p, len(g.non_isolated) == item["n"], "vertex count")
    _check(p, bh <= pd <= bound, "big_height <= pd <= bound fails")
    _check(p, not item["cls"].endswith("-tree") or pd == bh,
           "pd != big_height on a tree")
    return Outcome(timer.seconds, table.to_data(), p, item["n"])


# -- certify -----------------------------------------------------------


def coefficient_paths(data):
    """Every coefficient field of a serialised certificate."""
    out = [("gen", gi, ti) for gi, poly in enumerate(data["generators"])
           for ti in range(len(poly))]
    for si, step in enumerate(data["steps"]):
        if step["kind"] == "power":
            out += [("pow", si, ci, ti)
                    for ci, (cp, _) in enumerate(step["combination"])
                    for ti in range(len(cp))]
    return out


def tamper(data, rng):
    """Bump one coefficient away from zero, sign kept (as in acceptance
    criterion 9)."""
    d = copy.deepcopy(data)
    path = rng.choice(coefficient_paths(d))
    if path[0] == "gen":
        term = d["generators"][path[1]][path[2]]
    else:
        term = d["steps"][path[1]]["combination"][path[2]][0][path[3]]
    term[1] += 1 if term[1] > 0 else -1
    return d


def build_family(item):
    """The op's construction call; returns (result or None, graph)."""
    fam = item["family"]
    if fam == "lemma52":
        res = constructions.gens_lemma52(
            item["r"], item["s"], x=item["x"],
            r_paths=[tuple(p) for p in item["r_paths"]],
            s_paths=[tuple(p) for p in item["s_paths"]])
        return res, res[0].graph
    if fam == "prop42":
        base = Graph.build(tuple(e) for e in item["base"])
        attach = {v: constructions.WHISKER if a == "whisker" else a
                  for v, a in item["attach"].items()}
        res = constructions.gens_prop42(base, attach)
        return res, res[0].graph
    g = Graph.build(tuple(e) for e in item["edges"])
    cap = covers.big_height(g) - item["short"]
    return constructions.sv_layer_search(g, max_layers=cap), g


def certify_op(item, slot, ctx):
    rng = random.Random("tamper/%s/%d" % (item["cls"], item["idx"]))
    tampered = slot in inputs.CERTIFY_TAMPER_SLOTS
    with ctx.timer() as timer:
        res, g = build_family(item)
        if res is not None:
            gs, cert = res
            text = json.dumps(certificates.certified_set_to_data(gs, cert),
                              sort_keys=True)
            data = json.loads(text)
            gs2, cert2 = certificates.certified_set_from_data(data)
            verdict = certificates.verify_certificate(gs2, cert2)
    if res is not None and tampered:
        bad_data = tamper(data, rng)
        with timer:
            bad = certificates.certified_set_from_data(bad_data)
            rejected = not certificates.verify_certificate(*bad).ok
    p = []
    props = {"searched": item["family"] == "svsearch",
             "found": res is not None}
    if res is None:
        _check(p, item["family"] == "svsearch", "construction failed")
        _check(p, item.get("short", True), "layer search failed")
        return Outcome(timer.seconds, {"found": False}, p, len(g.vertices),
                       props)
    bh = covers.big_height(gs.graph)
    _check(p, not item.get("short"), "layering shorter than big_height")
    _check(p, verdict.ok, "certificate does not verify: " + verdict.reason)
    _check(p, len(gs.polys) >= bh, "generator count < big_height")
    _check(p, (gs2, cert2) == (gs, cert), "JSON round trip changed it")
    if item["family"] == "lemma52":
        _check(p, len(gs.polys) == item["r"] + item["s"] + 3,
               "lemma52 count != r + s + 3")
    if tampered:
        props["tampered"] = True
        props["rejected"] = rejected
        _check(p, rejected, "tampered certificate accepted")
    output = {"found": True, "cert": digest(data), "count": len(gs.polys),
              "ok": verdict.ok}
    return Outcome(timer.seconds, output, p, len(gs.graph.vertices), props)


# -- cli-small ---------------------------------------------------------


CLI_EXPECTED_EXIT = {"verify-tampered": 1, "verify-no-generators": 2,
                     "gens-bad-attach": 2}


def _write(ctx, name, text):
    path = os.path.join(ctx.workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _cert_file(ctx, item, mutate=None):
    res, _ = build_family(item)
    data = certificates.certified_set_to_data(*res)
    if mutate is not None:
        data = mutate(data)
    return _write(ctx, "cert.json", json.dumps(data))


def cli_argv(item, ctx):
    """(argv after the program name, stdin text) for one cli-small op."""
    cls = item["cls"]
    if cls in ("analyze", "covers", "classify", "pd"):
        return [cls, "-"], inputs.edge_text(item["edges"])
    if cls == "bound":
        return ["bound", "--trace", "-"], inputs.edge_text(item["edges"])
    if cls == "gens":
        if item["family"] == "lemma52":
            return ["gens", "--family", "lemma52", "--r", str(item["r"]),
                    "--s", str(item["s"])], ""
        return (["gens", "--family", "svsearch", "-"],
                inputs.edge_text(item["edges"]))
    if cls == "verify":
        return ["verify", _cert_file(ctx, item)], ""
    if cls == "verify-tampered":
        rng = random.Random("tamper/%s/%d" % (cls, item["idx"]))
        return ["verify", _cert_file(ctx, item,
                                     lambda d: tamper(d, rng))], ""
    if cls == "verify-no-generators":
        def drop(d):
            del d["generators"]
            return d
        return ["verify", _cert_file(ctx, item, drop)], ""
    if cls == "gens-bad-attach":
        first, second = sorted(item["attach"])[:2]
        base = _write(ctx, "base.txt", inputs.edge_text(item["base"]))
        return ["gens", "--family", "prop42", "--base", base,
                "--attach", first + "=whisker", "--attach", second + "=x"], ""
    raise ValueError(cls)


def cli_command(ctx):
    """How a cli-small op starts the program: the `edgeideals` console
    script's entry point, run from the checkout's sources."""
    return ctx.cli_prefix or [sys.executable, "-m", "edgeideals.cli"]


def cli_op(item, slot, ctx):
    argv, stdin = cli_argv(item, ctx)
    with Timer(None) as timer:
        proc = subprocess.run(cli_command(ctx) + argv, input=stdin,
                              capture_output=True, text=True, timeout=120)
    p = []
    cls = item["cls"]
    props = {"subcommand": cls, "exit": proc.returncode}
    expected = CLI_EXPECTED_EXIT.get(cls, 0)
    _check(p, proc.returncode == expected,
           "exit %d, expected %d" % (proc.returncode, expected))
    _check(p, "Traceback" not in proc.stderr, "traceback on stderr")
    output = report = None
    if proc.returncode in (0, 1):
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            pass
        _check(p, isinstance(report, dict), "stdout is not a JSON report")
    if cls == "verify-tampered":
        props["tampered"] = True
        props["rejected"] = isinstance(report, dict) and \
            report.get("verified") is False
        _check(p, props["rejected"], "tampered certificate not rejected")
    elif isinstance(report, dict):
        report.pop("certificate_file", None)
        output = {"exit": proc.returncode, "report": report}
    return Outcome(timer.seconds, output, p, item.get("n", 0), props)


OPS = {"cactus-sweep": cactus_op, "hochster-pd": hochster_op,
       "certify": certify_op, "cli-small": cli_op}
