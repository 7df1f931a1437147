"""Arithmetical-rank bounds and the proof-mirroring decomposition trace."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from edgeideals import bounds, covers, graphs
from edgeideals.graphs import Graph, GraphError, parse_edge_list

import catalog
from conftest import (BOWTIE, TRIANGLE, TRI_2W, WHISKER_P3, branch_oracle,
                      cycle, format_edge_list, fresh, old_big_height,
                      old_cover_stats, old_maximum_covers_avoiding,
                      old_vertex_in_every_maximum_cover, path_graph,
                      relabel, without_edges)


def test_theorem34_bound_values():
    r = bounds.theorem34_bound(BOWTIE)
    assert (r.n_cycles, r.big_height, r.bound) == (2, 4, 6)
    r = bounds.theorem34_bound(cycle(5))
    assert (r.n_cycles, r.big_height, r.bound) == (1, 3, 4)
    r = bounds.theorem34_bound(path_graph(4))
    assert r.n_cycles == 0 and r.bound == r.big_height


def test_bound_requires_cactus():
    k4 = Graph.build([("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                      ("b", "d"), ("c", "d")])
    with pytest.raises(GraphError):
        bounds.theorem34_bound(k4)


def test_open_cycle():
    g = cycle(6)
    (cyc,) = graphs.cycles(g)
    opened = bounds.open_cycle(g, cyc, "c0")
    assert graphs.cycle_count(opened) == 0
    assert len(opened.edges) == len(g.edges)
    bh, bh2 = covers.big_height(g), covers.big_height(opened)
    assert bh <= bh2 <= bh + 1
    with pytest.raises(GraphError):
        bounds.open_cycle(TRI_2W, graphs.cycles(TRI_2W)[0], "a")  # degree 3


def test_fresh_vertex():
    g = parse_edge_list("a b\na' c")
    assert bounds.fresh_vertex(g, "a") == "a''"


def test_corollary41_triangle_two_whiskers():
    r = bounds.corollary41_bound(TRI_2W)
    assert (r.improvement_k, r.bound) == (1, 3)
    assert r.bound == r.big_height


def test_corollary41_c6():
    r = bounds.corollary41_bound(cycle(6))
    assert (r.improvement_k, r.bound) == (1, 4)
    assert r.bound == r.big_height == 4


def test_corollary41_requires_consecutive_high_vertices():
    # C6 with two opposite whiskered vertices: no improvement.
    g = cycle(6).with_edges([("c0", "w0"), ("c3", "w3")])
    assert bounds.corollary41_bound(g).improvement_k == 0
    # Adjacent whiskered vertices keep the improvement.
    g = cycle(6).with_edges([("c0", "w0"), ("c1", "w1")])
    assert bounds.corollary41_bound(g).improvement_k == 1


def test_whisker_recognizers():
    # fully whiskered: every vertex lies on a terminal edge
    assert graphs._on_terminal_edges(WHISKER_P3.masks) == \
        (1 << len(WHISKER_P3.vertices)) - 1
    assert graphs._on_terminal_edges(TRI_2W.masks) != \
        (1 << len(TRI_2W.vertices)) - 1
    ok, base = graphs.is_whisker_graph(WHISKER_P3)
    assert ok and set(base.vertices) == {"a", "b", "c"}
    assert not graphs.is_whisker_graph(TRIANGLE)[0]
    assert not graphs.is_whisker_graph(Graph.build([("a", "b")]))[0]


def test_proposition42_bound():
    base = parse_edge_list("a b")
    r, g = bounds.proposition42_bound(base, {"a": graphs.WHISKER, "b": 5})
    assert r.stci and r.bound == covers.height(g) == covers.big_height(g)
    r, g = bounds.proposition42_bound(base, {"a": graphs.WHISKER, "b": 4})
    assert not r.stci and r.bound == covers.big_height(g) + 1


def test_trace_base_cases():
    t = bounds.theorem34_trace(Graph.build([("a", "b")]))
    assert t.case_tag == "Base-SingleEdge"
    t = bounds.theorem34_trace(WHISKER_P3)
    assert t.case_tag == "Base-FullyWhiskered"
    t = bounds.theorem34_trace(Graph.build(isolated="z"))
    assert t.bound == 0


def test_trace_open_cycle_first():
    t = bounds.theorem34_trace(cycle(5))
    assert t.case_tag == "OpenCycle"
    assert t.bound == 4


def test_trace_disconnected_components():
    g = Graph.build([("a", "b"), ("c", "d")])
    t = bounds.theorem34_trace(g)
    assert t.case_tag == "Components"
    assert len(t.children) == 2


def test_trace_keeps_its_input_when_nothing_is_isolated():
    # with no isolated vertex the trace replays the input graph itself, so
    # the masks and cycles it has cached carry over
    for g in (TRI_2W, BOWTIE, cycle(5), path_graph(4)):
        assert g.drop_isolated() is g
        assert bounds.theorem34_trace(g).graph is g
    readme = parse_edge_list("a b\nb c\nc a\na aw\nz")
    t = bounds.theorem34_trace(readme)
    assert t.graph.vertices == ("a", "aw", "b", "c")
    assert t.graph == readme.drop_isolated() and t.graph is not readme
    assert t.bound == bounds.theorem34_bound(readme).bound


def test_trace_bound_matches_closed_form():
    for g in (BOWTIE, TRI_2W, cycle(5), cycle(6), WHISKER_P3):
        assert bounds.theorem34_trace(g).bound == \
            bounds.theorem34_bound(g).bound


def test_trace_budget_holds_at_every_node():
    t = bounds.theorem34_trace(BOWTIE)
    for node in t.walk():
        assert sum(c.bound for c in node.children) <= node.bound


def test_trace_split_cases_record_cover_numbers():
    # A graph that is not fully whiskered and has no open cycles after
    # preprocessing exercises the split; check the recorded numbers.
    g = parse_edge_list("a b\nb c\nc a\na w\nb v\nv u")
    t = bounds.theorem34_trace(g)
    for node in t.walk():
        if node.case_tag.startswith("Case"):
            n = node.cover_numbers
            assert n["b"] <= n["b1"] + n["b2"]


def test_trace_to_data_is_json_shaped():
    import json
    t = bounds.theorem34_trace(BOWTIE)
    json.dumps(t.to_data())


def test_trace_random_cacti():
    for g in catalog.random_cacti(seed=7, count=25, max_vertices=10):
        t = bounds.theorem34_trace(g)
        assert t.bound == bounds.theorem34_bound(g).bound


def test_bound_report_invariant():
    with pytest.raises(AssertionError):
        bounds.BoundReport(TRIANGLE, 1, 2, 99)


def test_split_pass_guards():
    # the split pass rejects a graph that is not a connected cactus, and
    # checks the big height handed down
    diamond = Graph.build([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                           ("a", "c")])
    two_paths = path_graph(3).union(path_graph(3, prefix="q"))
    for g in (diamond, two_paths):
        with pytest.raises(GraphError, match="not a connected cactus"):
            bounds._split(g, 0, covers.big_height(g), [])
    p5 = path_graph(5)
    with pytest.raises(bounds.TraceInvariantError, match="handed down"):
        bounds._split(p5, 2, covers.big_height(p5) + 1, [])
    # with no big height handed down, the split takes it from its pass
    assert bounds._split(p5, 2, None, []).bound == covers.big_height(p5)


def test_trace_matches_the_list_based_cover_path(monkeypatch):
    rng = random.Random(2026)
    cacti = [catalog.random_cactus(rng, rng.randint(3, 14)) for _ in range(40)]

    def replay():
        # fresh copies, so no number kept on a graph by an earlier replay
        # is read
        return [(bounds.theorem34_trace(g).to_data(),
                 covers.cover_stats(g).all_covers) for g in fresh(cacti)]

    dp_path = replay()
    real_pass = covers._cactus_numbers
    # With the unrooted DP switched off, every number outside the split
    # passes comes from the enumeration.
    unrooted = []
    with monkeypatch.context() as m:
        m.setattr(covers, "_cactus_numbers", lambda g, x=-1: real_pass(g, x)
                  if x >= 0 else unrooted.append(g))
        assert replay() == dp_path
    assert unrooted

    # With the list-based path swapped in, the split passes give only the
    # branches (masks and kinds): each part is built as a graph and its
    # numbers come from old_cover_stats, as does every other number.
    calls = dict.fromkeys(("cover_stats", "big_height",
                           "maximum_covers_avoiding", "_joined",
                           "_without_root"), 0)
    split = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def avoiding(g, x, bh):
        # the trace hands down the big height of G2 from its split pass
        assert bh == old_big_height(g)
        return old_maximum_covers_avoiding(g, x)

    def split_pass(g, x=-1):
        assert x >= 0, "an unrooted DP pass ran on the list-based path"
        split["g"], split["x"] = g, x
        return real_pass(g, x)

    def joined(branches, leaves=0):
        g, xi = split["g"], split["x"]
        x, mask = g.vertices[xi], sum(br.mask for br in branches) | 1 << xi
        part = g.induced(v for j, v in enumerate(g.vertices) if mask >> j & 1)
        for _ in range(leaves):
            part = part.with_edges([(x, bounds.fresh_vertex(part, "leaf"))])
        stats = old_cover_stats(part)
        return (stats.height, stats.big_height,
                not old_vertex_in_every_maximum_cover(part, x))

    def without_root(branch):
        g = split["g"]
        stats = old_cover_stats(g.induced(
            v for j, v in enumerate(g.vertices) if branch.mask >> j & 1))
        return stats.height, stats.big_height

    monkeypatch.setattr(covers, "_cactus_numbers", split_pass)
    monkeypatch.setattr(covers, "_joined", counted("_joined", joined))
    monkeypatch.setattr(covers, "_without_root",
                        counted("_without_root", without_root))
    monkeypatch.setattr(covers, "cover_stats",
                        counted("cover_stats", old_cover_stats))
    monkeypatch.setattr(covers, "big_height",
                        counted("big_height", old_big_height))
    monkeypatch.setattr(covers, "maximum_covers_avoiding",
                        counted("maximum_covers_avoiding", avoiding))
    assert replay() == dp_path
    # the trace reads its covers through every swapped-in function
    assert all(calls.values()), calls
    # every split case is replayed, Case 1.2a (which reports a cover and so
    # depends on the cover order) included
    tags = {node.case_tag for g in cacti
            for node in bounds.theorem34_trace(g).walk()}
    assert {"Case1.1", "Case1.2a", "Case1.2b", "Case2"} <= tags


# -- the trace pinned byte for byte -----------------------------------


def _disconnected_cacti(seed, count):
    """Pairs of disjoint random cacti plus an isolated vertex "z"."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a, b = (catalog.random_cactus(rng, max_vertices=8) for _ in range(2))
        g = relabel(a, {v: "a" + v for v in a.vertices}).union(
            relabel(b, {v: "b" + v for v in b.vertices}))
        out.append(g.union(Graph.build(isolated=["z"])))
    return out


TRACE_CORPUS = (catalog.random_cacti(seed=19, count=200, max_vertices=16)
                + _disconnected_cacti(seed=19, count=30))

# sha256 of the sorted-key JSON of every trace of TRACE_CORPUS, recorded
# before the trace carried cycles and degrees down its recursion
TRACE_DIGEST = ("5f282c43564195a4e6f2d1e59446e320"
                "f4ad6d4bc4093eb27de71e508032f34a")


def test_trace_matches_the_recorded_digest():
    data = [bounds.theorem34_trace(g).to_data() for g in TRACE_CORPUS]
    digest = hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert digest == TRACE_DIGEST


def test_bound_trace_does_not_depend_on_the_hash_seed(tmp_path):
    # a disconnected cactus with an isolated vertex whose trace splits
    g = next(g for g in TRACE_CORPUS[200:] if any(
        node.case_tag.startswith("Case")
        for node in bounds.theorem34_trace(g).walk()))
    f = tmp_path / "cacti.txt"
    f.write_text(format_edge_list(g))
    src = Path(bounds.__file__).resolve().parents[1]
    outs = []
    for seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        outs.append(subprocess.run(
            [sys.executable, "-m", "edgeideals.cli", "bound", "--trace",
             str(f)], capture_output=True, text=True, check=True,
            env=env).stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["trace"]["case"] == "Components"


# -- oracles for what the trace derives at each step ------------------


def test_every_trace_node_bound_is_bight_plus_cycles():
    for g in TRACE_CORPUS[:80] + TRACE_CORPUS[-10:]:
        for node in bounds.theorem34_trace(g).walk():
            if node.graph.edges:
                assert node.bound == covers.big_height(node.graph) + \
                    graphs.cycle_count(node.graph)


def test_split_pass_matches_branches_and_enumeration():
    # At every vertex on no terminal edge (where the trace may split): the
    # branch records of the pass rooted there are the branches of the
    # networkx oracle, and every part the split step reads (G, each branch,
    # and with each branch as G2: G1, G'1 and G2bar) has the height, big
    # height and forced flag of that part built as a graph and enumerated.
    known = {}

    def old(h, x=None):
        if (h, x) not in known:
            stats = old_cover_stats(h)
            known[h, x] = (stats.height, stats.big_height) if x is None \
                else (stats.height, stats.big_height,
                      not old_vertex_in_every_maximum_cover(h, x))
        return known[h, x]

    seen = set()
    comps = [c for g in TRACE_CORPUS + list(catalog.unicyclic_upto(8))
             for c in g.drop_isolated().component_graphs()]
    for g in comps:
        vs = g.vertices
        off = ((1 << len(vs)) - 1) & ~graphs._on_terminal_edges(g.masks)
        for xi in graphs._bits(off):
            x = vs[xi]
            h, bh, branches = covers._cactus_numbers(g, xi)
            assert (h, bh, covers._joined(branches)[2]) == old(g, x)
            parts = {tuple(v for j, v in enumerate(vs)
                           if (br.mask | 1 << xi) >> j & 1): br
                     for br in branches}
            expected = branch_oracle(g, x)
            assert sorted((s, 2 if br.two else 1)
                          for s, br in parts.items()) == expected
            for s, into in expected:
                br = parts[s]
                g2 = g.induced(s)
                rest = [r for r in branches if r is not br]
                ys = sorted(g2.neighbors(x))
                g1 = without_edges(g, g2.edges).drop_isolated()
                g1p = g1.with_edges((x, y) for y in ys)
                g2bar = without_edges(g2, ((x, y) for y in ys)).drop_isolated()
                assert covers._joined([br]) == old(g2, x)
                assert covers._joined(rest) == old(g1, x)
                assert covers._joined(rest, len(ys)) == old(g1p, x)
                assert covers._without_root(br) == old(g2bar)
                seen.add((br.two, into, len(ys)))
    assert seen == {(False, 1, 1), (True, 2, 2)}


# The Bron-Kerbosch runs and the DP passes that the first 100 and the last
# 10 traces of TRACE_CORPUS make, on fresh graphs.  Before the DP, these
# traces ran 943 full enumerations; now only Case 1.2 enumerates, and only
# the maximal independent sets of G2 through x.  The split passes (rooted at
# the split vertex, one per split step) are counted apart from the others,
# which a graph gets only when its big height is not handed down and it
# does not split.
TRACE_ENUMERATIONS = 96
TRACE_DP_PASSES = 288
TRACE_SPLIT_PASSES = 194


def test_trace_enumeration_count_is_pinned(monkeypatch):
    # the trace asks for covers in a fixed order, so on fresh graphs the
    # number of enumerations and passes that really run is fixed too
    counts = {"full": 0, "all": 0, "dp": 0, "split": 0}
    real_pass, real_independent = covers._cactus_numbers, \
        covers._maximal_independent

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def dp_pass(g, x=-1):
        counts["split" if x >= 0 else "dp"] += 1
        return real_pass(g, x)

    def independent(masks, *drop):
        # a call with no vertex dropped is a full enumeration
        counts["full"] += not drop
        return real_independent(masks, *drop)

    monkeypatch.setattr(covers, "_maximal_independent", independent)
    monkeypatch.setattr(covers, "bron_kerbosch",
                        counted("all", covers.bron_kerbosch))
    monkeypatch.setattr(covers, "_cactus_numbers", dp_pass)
    for g in fresh(TRACE_CORPUS[:100] + TRACE_CORPUS[-10:]):
        bounds.theorem34_trace(g)
    assert counts == {"full": 0, "all": TRACE_ENUMERATIONS,
                      "dp": TRACE_DP_PASSES, "split": TRACE_SPLIT_PASSES}


def test_no_graph_gets_two_dp_passes_in_one_trace(monkeypatch):
    # a graph's big height is handed down or taken from the one pass its
    # own step makes, so within one trace no graph value is passed twice
    real_pass = covers._cactus_numbers
    passes = []
    monkeypatch.setattr(covers, "_cactus_numbers",
                        lambda g, x=-1: passes.append(g) or real_pass(g, x))
    total = 0
    for g in fresh(TRACE_CORPUS):
        del passes[:]
        bounds.theorem34_trace(g)
        assert len(set(passes)) == len(passes)
        total += len(passes)
    assert total > len(TRACE_CORPUS)


def test_open_cycle_check_runs_after_the_recursion(monkeypatch):
    # The opened graph's big height is read off its trace node, so the
    # "within +1" check runs after the recursion; it must still fire when
    # every graph with a cycle opened (a primed vertex) reads two more.
    # Each opened graph here is fully whiskered, so no split check sees
    # the wrong number first; the bowtie's inner opening sees it on both
    # sides and passes, and its outer one fires.
    real_pass = covers._cactus_numbers

    def inflated(g, x=-1):
        dp = real_pass(g, x)
        if dp is not None and any(v.endswith("'") for v in g.vertices):
            dp = (dp[0], dp[1] + 2) + dp[2:]
        return dp

    monkeypatch.setattr(covers, "_cactus_numbers", inflated)
    for g in fresh((TRIANGLE, TRI_2W, BOWTIE)):
        with pytest.raises(bounds.TraceInvariantError, match="within \\+1"):
            bounds.theorem34_trace(g)


def test_open_cycle_matches_the_edge_edit():
    opened = 0
    for g in TRACE_CORPUS[:80] + TRACE_CORPUS[-10:]:
        for cyc in graphs.cycles(g):
            for v in cyc:
                if g.degree(v) != 2:
                    continue
                xs = min(w for w in g.neighbors(v) if w in cyc)
                y = v + "'"
                while y in g.vertices:
                    y += "'"
                assert bounds.open_cycle(g, cyc, v) == \
                    without_edges(g, [(xs, v)]).with_edges([(xs, y)])
                opened += 1
    assert opened > 100
