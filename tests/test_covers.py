"""Minimal-cover enumeration against a brute-force subset oracle, plus the
two cover-combination lemmas and the redundancy remark."""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from edgeideals import covers, graphs
from edgeideals.graphs import Graph, GraphError, parse_edge_list

import catalog
from conftest import (BOWTIE, TRIANGLE, TRI_2W, WHISKER_P3,
                      brute_force_minimal_covers, cycle, fresh, induced_cover,
                      is_minimal_cover, is_redundant_neighbor, lemma26_check,
                      lemma27_union, maximal_independent_sets,
                      maximum_minimal_covers, old_cover_stats,
                      old_maximum_covers_avoiding, path_graph,
                      redundancy_remark_check, relabel, with_edges)

SMALL = [TRIANGLE, TRI_2W, BOWTIE, WHISKER_P3, cycle(4), cycle(5), cycle(7),
         path_graph(2), path_graph(5), path_graph(6),
         Graph.build([("a", "b"), ("c", "d")]),
         Graph.build([("a", "b")], isolated="z")]


def _dp_forced(g, x):
    """Whether x lies in every maximum minimal cover of the cactus g, as the
    trace's split step reads it: x is not isolated and lies in no smallest
    maximal independent set of the DP pass rooted at x, whose branch
    records `covers._joined` combines."""
    i = g.vertices.index(x)
    branches = covers._cactus_numbers(g, i)[2]
    return bool(g.masks[i]) and not covers._joined(branches)[1]


@pytest.mark.parametrize("g", SMALL, ids=lambda g: ",".join(
    "%s%s" % e for e in g.sorted_edges()))
def test_enumeration_matches_brute_force(g):
    got = sorted((c.vertices for c in covers.cover_stats(g).all_covers),
                 key=sorted)
    assert got == brute_force_minimal_covers(g)


def test_known_heights():
    assert covers.height(cycle(3)) == covers.big_height(cycle(3)) == 2
    assert covers.height(cycle(4)) == covers.big_height(cycle(4)) == 2
    assert covers.height(cycle(5)) == covers.big_height(cycle(5)) == 3
    assert covers.height(cycle(7)) == covers.big_height(cycle(7)) == 4
    # Triangle with two whiskers is mixed: {a, b} and {a, c, bw}.
    stats = covers.cover_stats(TRI_2W)
    assert (stats.height, stats.big_height, stats.unmixed) == (2, 3, False)


def test_edgeless_graph_has_empty_cover():
    g = Graph.build(isolated=["a", "b"])
    (c,) = covers.cover_stats(g).all_covers
    assert c.vertices == frozenset()
    assert covers.cover_stats(g).unmixed


def test_isolated_vertices_never_in_covers():
    g = parse_edge_list("a b\nz")
    for c in covers.cover_stats(g).all_covers:
        assert "z" not in c.vertices


def test_enumeration_guard(monkeypatch):
    big = Graph.build(("v%d" % i, "v%d" % (i + 1)) for i in range(30))
    with pytest.raises(covers.CoverSizeError):
        covers.cover_stats(big)
    # Only non-isolated vertices count against the guard.
    sparse = Graph.build([("a", "b")], isolated=["z%d" % i for i in range(30)])
    assert covers.height(sparse) == 1
    monkeypatch.setattr(covers, "DEFAULT_VERTEX_LIMIT", 40)
    assert covers.height(big) == 15


def _counted(monkeypatch):
    """Record every full enumeration (its masks) and every DP pass (its
    graph and root) that `covers` runs from here on."""
    enumerated, passes = [], []
    real, dp = covers._maximal_independent, covers._cactus_numbers
    monkeypatch.setattr(covers, "_maximal_independent",
                        lambda masks: enumerated.append(masks) or real(masks))
    monkeypatch.setattr(covers, "_cactus_numbers",
                        lambda g, x=-1: passes.append((g, x)) or dp(g, x))
    return enumerated, passes


def test_each_graph_object_is_computed_once(monkeypatch):
    enumerated, passes = _counted(monkeypatch)
    path, ring = path_graph(7, prefix="once"), cycle(9, prefix="once")
    diamond = parse_edge_list("a b\nb c\nc d\nd a\na c")
    for _ in range(3):
        # the enumeration answers every number of a cactus: no DP pass
        assert covers.cover_stats(path) is covers.cover_stats(path)
        assert (covers.height(path), covers.big_height(path)) == (3, 4)
        # one DP pass answers every number of the cycle
        assert (covers.height(ring), covers.big_height(ring)) == (5, 6)
        # a graph that is no cactus tries one pass, which finds none, and
        # its one enumeration then answers every number
        assert (covers.height(diamond), covers.big_height(diamond)) == (2, 3)
        assert covers.cover_stats(diamond).unmixed is False
    assert enumerated == [path.masks, diamond.masks]
    assert passes == [(ring, -1), (diamond, -1)]


def test_equal_graphs_built_apart_are_computed_apart(monkeypatch):
    enumerated, passes = _counted(monkeypatch)
    ring = cycle(9, prefix="apart")
    twin = Graph.build(reversed(ring.sorted_edges()))
    assert twin == ring and twin is not ring
    assert covers.big_height(ring) == covers.big_height(twin) == 6
    assert passes == [(ring, -1), (twin, -1)]
    assert passes[0][0] is ring and passes[1][0] is twin
    assert covers.cover_stats(ring) == covers.cover_stats(twin)
    assert covers.cover_stats(ring) is not covers.cover_stats(twin)
    assert enumerated == [ring.masks, twin.masks]


def test_a_graph_is_freed_with_its_cover_numbers():
    # A Graph takes no weak reference, so a probe kept in its instance dict
    # tells when it is freed: with the collector off, only reference
    # counting frees it, which a cycle back to the graph would stop.
    class Probe:
        pass

    probe = Probe()
    alive = weakref.ref(probe)
    gc.disable()
    try:
        for g in [cycle(9, prefix="freed"), _theta(8, "freed")]:
            covers.cover_stats(g).all_covers
            covers.height(g)
            g.__dict__["probe"] = probe
        del g, probe
        assert alive() is None
    finally:
        gc.enable()


def test_cover_results_are_not_shared_lists():
    g = cycle(6, prefix="mut")
    expected = covers.cover_stats(g).all_covers
    assert isinstance(expected, tuple)   # a caller cannot change it
    maxima = maximum_minimal_covers(g)
    maxima.clear()
    assert covers.cover_stats(g).all_covers == expected
    assert maximum_minimal_covers(g) == [c for c in expected
                                                if len(c) == 4]


def _theta(n, prefix):
    """A path of n vertices plus two chords that close two triangles on a
    shared edge: not a cactus, so its numbers come from enumeration."""
    return with_edges(path_graph(n, prefix=prefix),
                      [(prefix + "0", prefix + "2"),
                       (prefix + "1", prefix + "3")])


def test_cover_size_error_is_never_cached(monkeypatch):
    big = _theta(31, "guard")
    assert not graphs.is_cactus(big)
    for _ in range(2):
        with pytest.raises(covers.CoverSizeError):
            covers.cover_stats(big)
        with pytest.raises(covers.CoverSizeError):
            covers.big_height(big)
        with pytest.raises(covers.CoverSizeError):
            maximum_minimal_covers(big)
    # The enumeration is kept on the graph: once the guard is back, what
    # was computed under the raised guard must not be handed out.
    with monkeypatch.context() as m:
        m.setattr(covers, "DEFAULT_VERTEX_LIMIT", 40)
        assert covers.height(big) == 16
    for read in (covers.cover_stats, covers.height, covers.big_height,
                 maximum_minimal_covers):
        with pytest.raises(covers.CoverSizeError):
            read(big)
    with pytest.raises(covers.CoverSizeError):
        covers.maximum_covers_avoiding(big, "guard0", 16)
    # A forest or cactus of that size gets its numbers from the DP, which
    # has no guard; only its enumeration is guarded.
    path = path_graph(31, prefix="guard")
    assert (covers.height(path), covers.big_height(path)) == (15, 20)
    assert not _dp_forced(path, "guard0")
    with pytest.raises(covers.CoverSizeError):
        covers.cover_stats(path)


def test_is_minimal_cover():
    assert is_minimal_cover(TRIANGLE, {"a", "b"})
    assert not is_minimal_cover(TRIANGLE, {"a"})
    assert not is_minimal_cover(TRIANGLE, {"a", "b", "c"})


def test_maximum_covers_and_forcing():
    maxima = maximum_minimal_covers(TRI_2W)
    assert all(len(c) == 3 for c in maxima)
    # In C5 every vertex is avoided by some maximum cover.
    assert not _dp_forced(cycle(5), "c0")
    # In a triangle whose other two vertices are whiskered, the bare vertex
    # lies in every maximum minimal cover.
    g = parse_edge_list("a b\nb x\na x\na aw\nb bw")
    assert _dp_forced(g, "x")
    assert not _dp_forced(g, "a")


def test_vertex_in_every_maximum_cover_matches_its_definition():
    rng = random.Random(19)
    corpus = [catalog.random_cactus(rng, rng.randint(2, 12))
              for _ in range(60)] + SMALL
    for g in corpus:
        g = g.union(Graph.build(isolated=["zz"]))
        maxima = maximum_minimal_covers(g)
        for x in g.vertices:
            expected = bool(g.neighbors(x)) and \
                all(x in c.vertices for c in maxima)
            assert _dp_forced(g, x) == expected
        assert not _dp_forced(g, "zz")


def test_redundant_neighbor_definition():
    g = WHISKER_P3
    (c,) = [c for c in covers.cover_stats(g).all_covers
            if c.vertices == frozenset({"a", "b", "c"})]
    # aw is outside; its neighbour a has all other neighbours (b) in c.
    assert is_redundant_neighbor(g, c, "aw", "a")
    with pytest.raises(GraphError):
        is_redundant_neighbor(g, c, "a", "b")  # a lies in the cover


@pytest.mark.parametrize("g", [TRIANGLE, TRI_2W, WHISKER_P3, cycle(5)],
                         ids=["tri", "tri2w", "wp3", "c5"])
def test_redundancy_remark(g):
    """y redundant in c <=> c - y is a minimal cover of g - xy, always."""
    for c in covers.cover_stats(g).all_covers:
        outside = [v for v in g.non_isolated if v not in c.vertices]
        for x in outside:
            for y in g.neighbors(x):
                assert redundancy_remark_check(g, c, x, y)


def test_induced_cover():
    c = maximum_minimal_covers(WHISKER_P3)[0]
    sub = Graph.build([("a", "b"), ("a", "aw")])
    assert induced_cover(WHISKER_P3, c, sub) <= c.vertices
    with pytest.raises(GraphError):
        induced_cover(WHISKER_P3, c, TRIANGLE)


def test_lemma26_at_a_forced_vertex():
    # g1: triangle a, b, x with whiskers at a and b — x is in every maximum
    # minimal cover of g1; g2: a triangle hanging from x.
    g1 = parse_edge_list("a b\nb x\na x\na aw\nb bw")
    g2 = parse_edge_list("x d\nd e\ne x")
    g = g1.union(g2)
    assert lemma26_check(g, g1, "x")


def test_lemma26_hypothesis_enforced():
    # In C5 glued from two paths at c0, c0 is not forced in the part.
    g = cycle(5)
    g1 = Graph.build([("c0", "c1"), ("c1", "c2")])
    with pytest.raises(GraphError):
        lemma26_check(g, g1, "c0")


def test_lemma27_union_cases():
    tri = TRIANGLE
    tri2 = Graph.build([("a", "d"), ("d", "e"), ("e", "a")])
    got = lemma27_union(tri, tri2, "a", "ii")
    assert len(got) == covers.big_height(tri.union(tri2))
    # Parts that both force x: triangles with the other two vertices
    # whiskered.
    f1 = parse_edge_list("a b\nb x\na x\na aw\nb bw")
    f2 = parse_edge_list("c d\nd x\nc x\nc cw\nd dw")
    got = lemma27_union(f1, f2, "x", "i")
    assert len(got) == covers.big_height(f1.union(f2))
    with pytest.raises(GraphError):
        lemma27_union(tri, tri2, "a", "i")
    with pytest.raises(GraphError):
        lemma27_union(tri, tri2, "b", "ii")  # wrong overlap


@st.composite
def small_graphs(draw, max_n=6):
    n = draw(st.integers(min_value=2, max_value=max_n))
    labels = ["v%d" % i for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = [p for p in pairs if draw(st.booleans())]
    return Graph.build(chosen, isolated=labels)


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=8))
def test_covers_match_brute_force_random(g):
    got = sorted((c.vertices for c in covers.cover_stats(g).all_covers),
                 key=sorted)
    assert got == brute_force_minimal_covers(g)
    independent = maximal_independent_sets(g)
    assert independent == sorted(independent, key=sorted)
    active = frozenset(g.non_isolated)
    assert sorted((active - s for s in independent), key=sorted) == got


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_heights_are_relabeling_invariant(g, rng):
    perm = list(g.vertices)
    rng.shuffle(perm)
    mapping = dict(zip(g.vertices, perm))
    h = relabel(g, mapping)
    assert covers.height(h) == covers.height(g)
    assert covers.big_height(h) == covers.big_height(g)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_every_enumerated_cover_is_minimal(g):
    for c in covers.cover_stats(g).all_covers:
        assert is_minimal_cover(g, c.vertices) or not g.edges


@settings(max_examples=80, deadline=None)
@given(small_graphs(max_n=8))
def test_forced_vertices_match_brute_force(g):
    g = g.union(Graph.build(isolated=["zz"]))
    brute = brute_force_minimal_covers(g)
    top = max(len(c) for c in brute)
    bh = covers.big_height(g)
    cactus = graphs.is_cactus(g)
    for x in g.vertices:
        expected = all(x in c for c in brute if len(c) == top)
        if g.adj[x]:
            # Case 1.2 asks for the maximum covers that avoid x
            avoiding = covers.maximum_covers_avoiding(g, x, bh)
            assert (not avoiding) == expected
        if cactus:
            assert _dp_forced(g, x) == expected


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=8))
def test_all_covers_are_ordered_by_their_independent_sets(g):
    # the order of all_covers decides which avoiding cover Case 1.2a reports
    stats = covers.cover_stats(g)
    active = frozenset(g.non_isolated)
    keys = [sorted(active - c.vertices) for c in stats.all_covers]
    assert keys == sorted(keys)
    assert sorted((c.vertices for c in stats.all_covers), key=sorted) == \
        brute_force_minimal_covers(g)
    assert stats.all_covers is covers.cover_stats(g).all_covers


# -- the dynamic program on cacti and forests, against enumeration -----


def _dp_answers(g):
    """Height, big height, unmixedness and the vertices in every maximum
    cover, all from DP passes (one per non-isolated vertex, whose root flag
    `covers._joined` reads off its branch records)."""
    h, bh = covers._cactus_numbers(g)[:2]
    forced = []
    for i, v in enumerate(g.vertices):
        if g.masks[i]:
            dp = covers._cactus_numbers(g, i)
            assert dp[:2] == (h, bh)
            if not covers._joined(dp[2])[1]:
                forced.append(v)
    return h, bh, h == bh, forced


def _enumerated_answers(g):
    stats = old_cover_stats(g)
    maxima = [c for c in stats.all_covers if len(c) == stats.big_height]
    forced = [v for v in g.vertices
              if g.adj[v] and all(v in c.vertices for c in maxima)]
    return stats.height, stats.big_height, stats.unmixed, forced


def _public_answers(g):
    return (covers.height(g), covers.big_height(g),
            covers.height(g) == covers.big_height(g))


def _random_cacti_and_forests(seed, count):
    """Random cacti of 3-20 vertices; a quarter of them joined to a second
    (disjoint) cactus or tree, and a quarter given an isolated vertex."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = catalog.random_cactus(rng, rng.randint(3, 20),
                                  rng.choice([(3, 4, 5, 6), ()]))
        if rng.random() < 0.25:
            h = catalog.random_cactus(rng, rng.randint(2, 8))
            g = g.union(relabel(h, {v: "b" + v for v in h.vertices}))
        if rng.random() < 0.25:
            g = g.union(Graph.build(isolated=["zz"]))
        out.append(g)
    return out


@pytest.mark.parametrize("corpus", ["trees10", "unicyclic8", "random3000"])
def test_dp_matches_enumeration(corpus, monkeypatch):
    graphs_ = {"trees10": lambda: catalog.trees_upto(10),
               "unicyclic8": lambda: catalog.unicyclic_upto(8),
               "random3000": lambda: _random_cacti_and_forests(2026, 3000),
               }[corpus]()
    for g in graphs_:
        assert _dp_answers(g) == _enumerated_answers(g), g.sorted_edges()
    # The public functions answer each cactus from one DP pass, with no
    # enumeration.
    enumerated, passes = _counted(monkeypatch)
    some = fresh(graphs_[:300])
    for g in some:
        assert _public_answers(g) == _enumerated_answers(g)[:3]
    assert enumerated == []
    assert passes == [(g, -1) for g in some]


@st.composite
def cacti_and_forests(draw):
    """Grown from vertex 0 up to 20 vertices: each step hangs a whisker or a
    cycle of length 3-6 on an earlier vertex, or starts a new component;
    isolated vertices may follow."""
    count, edges = 1, []
    starts = [0]
    for step in draw(st.lists(st.sampled_from(["new", 2, 2, 3, 4, 5, 6]),
                              max_size=12)):
        if step != "new" and count + step - 1 > 20:
            continue
        if step == "new":
            starts.append(count)
            count += 1
            continue
        root = draw(st.integers(min_value=starts[-1], max_value=count - 1))
        ring = [root] + list(range(count, count + step - 1))
        count += step - 1
        edges += [(ring[i - 1], ring[i])
                  for i in range(1 if step == 2 else 0, step)]
    isolated = draw(st.integers(min_value=0, max_value=2))
    return Graph.build((("v%d" % a, "v%d" % b) for a, b in edges),
                       isolated=["v%d" % i for i in range(count)]
                       + ["z%d" % i for i in range(isolated)])


@settings(max_examples=150, deadline=None)
@given(cacti_and_forests())
def test_dp_matches_enumeration_random(g):
    assert graphs.is_cactus(g)
    assert _dp_answers(g) == _enumerated_answers(g)


@pytest.mark.parametrize("g", [
    Graph.build([(a, b) for a in "abcd" for b in "abcd" if a < b]),
    parse_edge_list("a b\nb c\nc d\nd a\na c"),
    parse_edge_list("a b\nb c\nc d\nd a\na c\nc e\ne f\nf c\nz"),
], ids=["K4", "C4+chord", "C4+chord+triangle"])
def test_non_cacti_fall_back_to_enumeration(g, monkeypatch):
    assert covers._cactus_numbers(g) is None
    assert covers._cactus_numbers(g, 1) is None
    (g,) = fresh([g])
    enumerated, passes = _counted(monkeypatch)
    assert _public_answers(g) == _enumerated_answers(g)[:3]
    assert enumerated == [g.masks]
    assert passes == [(g, -1)]


def test_dp_answers_far_above_the_guard():
    # A whiskered path is unmixed: every maximal independent set takes, at
    # each base vertex, the vertex or its whisker.
    n = 500
    g = Graph.build([("p%d" % i, "p%d" % (i + 1)) for i in range(n - 1)]
                    + [("p%d" % i, "w%d" % i) for i in range(n)])
    assert (covers.height(g), covers.big_height(g)) == (n, n)
    assert not _dp_forced(g, "p7")
    # A star: the centre alone is the smallest maximal independent set, so
    # the leaves form the one maximum cover.
    star = Graph.build(("c", "leaf%d" % i) for i in range(1000))
    assert (covers.height(star), covers.big_height(star)) == (1, 1000)
    assert _dp_forced(star, "leaf7")
    assert not _dp_forced(star, "c")
    # A cycle of length 3m: alpha = floor(3m/2) and i = m.
    c = cycle(3000, prefix="big")
    assert (covers.height(c), covers.big_height(c)) == (1500, 2000)
    with pytest.raises(covers.CoverSizeError):
        covers.cover_stats(c)


# -- the maximum covers that avoid a vertex (Theorem 3.4, Case 1.2) ----


def test_maximum_covers_avoiding_matches_the_filtered_cover_list():
    rng = random.Random(21)
    corpus = SMALL + [catalog.random_cactus(rng, rng.randint(3, 14))
                      for _ in range(120)] + [
        parse_edge_list("a b\nb c\nc d\nd a\na c\nc e\ne f")]
    seen = 0
    for g in corpus:
        for x in g.non_isolated:
            got = covers.maximum_covers_avoiding(g, x, covers.big_height(g))
            assert got == old_maximum_covers_avoiding(g, x)
            if graphs.is_cactus(g):
                assert bool(got) == (not _dp_forced(g, x))
            seen += len(got)
    assert seen > 500


def test_maximum_covers_avoiding_is_guarded():
    g = path_graph(40, prefix="avoid")
    assert covers.big_height(g) == 26
    with pytest.raises(covers.CoverSizeError):
        covers.maximum_covers_avoiding(g, "avoid0", 26)
