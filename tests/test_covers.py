"""Minimal-cover enumeration against a brute-force subset oracle, plus the
two cover-combination lemmas and the redundancy remark."""

import pytest
from hypothesis import given, settings, strategies as st

from edgeideals import covers
from edgeideals.graphs import Graph, GraphError, parse_edge_list

from conftest import (BOWTIE, TRIANGLE, TRI_2W, WHISKER_P3,
                      brute_force_minimal_covers, cycle, induced_cover,
                      is_minimal_cover, lemma26_check, lemma27_union,
                      maximal_independent_sets, path_graph,
                      redundancy_remark_check)

SMALL = [TRIANGLE, TRI_2W, BOWTIE, WHISKER_P3, cycle(4), cycle(5), cycle(7),
         path_graph(2), path_graph(5), path_graph(6),
         Graph.build([("a", "b"), ("c", "d")]),
         Graph.build([("a", "b")], isolated="z")]


@pytest.mark.parametrize("g", SMALL, ids=lambda g: ",".join(
    "%s%s" % e for e in g.sorted_edges()))
def test_enumeration_matches_brute_force(g):
    got = sorted((c.vertices for c in covers.enumerate_minimal_covers(g)),
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
    (c,) = covers.enumerate_minimal_covers(g)
    assert c.vertices == frozenset()
    assert covers.cover_stats(g).unmixed


def test_isolated_vertices_never_in_covers():
    g = parse_edge_list("a b\nz")
    for c in covers.enumerate_minimal_covers(g):
        assert "z" not in c.vertices


def test_enumeration_guard(monkeypatch):
    big = Graph.build(("v%d" % i, "v%d" % (i + 1)) for i in range(30))
    with pytest.raises(covers.CoverSizeError):
        covers.enumerate_minimal_covers(big)
    # Only non-isolated vertices count against the guard.
    sparse = Graph.build([("a", "b")], isolated=["z%d" % i for i in range(30)])
    assert covers.height(sparse) == 1
    monkeypatch.setattr(covers, "DEFAULT_VERTEX_LIMIT", 40)
    assert covers.height(big) == 15


def test_cover_stats_memo_is_by_value(monkeypatch):
    enumerated = []
    real = covers._independent_masks
    monkeypatch.setattr(covers, "_independent_masks",
                        lambda g: enumerated.append(g) or real(g))
    covers._cover_stats.cache_clear()
    g1 = path_graph(7, prefix="memo")
    g2 = Graph.build(reversed(g1.sorted_edges()))
    assert g1 == g2 and g1 is not g2
    assert covers.cover_stats(g1) == covers.cover_stats(g2)
    assert covers.big_height(g2) == 4
    assert covers.height(g1) == 3
    assert len(covers.maximum_minimal_covers(g2)) == 6
    assert enumerated == [g1]


def test_memo_results_are_not_shared_lists():
    g = cycle(6, prefix="mut")
    first = covers.enumerate_minimal_covers(g)
    expected = list(first)
    first.clear()
    assert covers.enumerate_minimal_covers(g) == expected
    maxima = covers.maximum_minimal_covers(g)
    maxima.clear()
    assert covers.cover_stats(g).all_covers == tuple(expected)
    assert covers.maximum_minimal_covers(g) == [c for c in expected
                                                if len(c) == 4]


def test_cover_size_error_is_never_cached(monkeypatch):
    big = path_graph(31, prefix="guard")
    for _ in range(2):
        with pytest.raises(covers.CoverSizeError):
            covers.cover_stats(big)
        with pytest.raises(covers.CoverSizeError):
            covers.big_height(big)
        with pytest.raises(covers.CoverSizeError):
            covers.maximum_minimal_covers(big)
    # The memo is keyed by the graph alone: once the guard is back, the
    # entry computed under the raised guard must not be handed out.
    with monkeypatch.context() as m:
        m.setattr(covers, "DEFAULT_VERTEX_LIMIT", 40)
        assert covers.height(big) == 15
    for read in (covers.cover_stats, covers.height,
                 covers.enumerate_minimal_covers,
                 covers.maximum_minimal_covers):
        with pytest.raises(covers.CoverSizeError):
            read(big)
    with pytest.raises(covers.CoverSizeError):
        covers.vertex_in_every_maximum_cover(big, "guard0")


def test_is_minimal_cover():
    assert is_minimal_cover(TRIANGLE, {"a", "b"})
    assert not is_minimal_cover(TRIANGLE, {"a"})
    assert not is_minimal_cover(TRIANGLE, {"a", "b", "c"})


def test_maximum_covers_and_forcing():
    maxima = covers.maximum_minimal_covers(TRI_2W)
    assert all(len(c) == 3 for c in maxima)
    # In C5 every vertex is avoided by some maximum cover.
    assert not covers.vertex_in_every_maximum_cover(cycle(5), "c0")
    # In a triangle whose other two vertices are whiskered, the bare vertex
    # lies in every maximum minimal cover.
    g = parse_edge_list("a b\nb x\na x\na aw\nb bw")
    assert covers.vertex_in_every_maximum_cover(g, "x")
    assert not covers.vertex_in_every_maximum_cover(g, "a")


def test_redundant_neighbor_definition():
    g = WHISKER_P3
    (c,) = [c for c in covers.enumerate_minimal_covers(g)
            if c.vertices == frozenset({"a", "b", "c"})]
    # aw is outside; its neighbour a has all other neighbours (b) in c.
    assert covers.is_redundant_neighbor(g, c, "aw", "a")
    with pytest.raises(GraphError):
        covers.is_redundant_neighbor(g, c, "a", "b")  # a lies in the cover


@pytest.mark.parametrize("g", [TRIANGLE, TRI_2W, WHISKER_P3, cycle(5)],
                         ids=["tri", "tri2w", "wp3", "c5"])
def test_redundancy_remark(g):
    """y redundant in c <=> c - y is a minimal cover of g - xy, always."""
    for c in covers.enumerate_minimal_covers(g):
        outside = [v for v in g.non_isolated if v not in c.vertices]
        for x in outside:
            for y in g.neighbors(x):
                assert redundancy_remark_check(g, c, x, y)


def test_induced_cover():
    c = covers.maximum_minimal_covers(WHISKER_P3)[0]
    sub = WHISKER_P3.edge_subgraph([("a", "b"), ("a", "aw")])
    assert induced_cover(c, sub) <= c.vertices
    with pytest.raises(GraphError):
        induced_cover(c, TRIANGLE)


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
    g1 = g.edge_subgraph([("c0", "c1"), ("c1", "c2")])
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
    got = sorted((c.vertices for c in covers.enumerate_minimal_covers(g)),
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
    h = g.relabel(mapping)
    assert covers.height(h) == covers.height(g)
    assert covers.big_height(h) == covers.big_height(g)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_every_enumerated_cover_is_minimal(g):
    for c in covers.enumerate_minimal_covers(g):
        assert is_minimal_cover(g, c.vertices) or not g.edges


@settings(max_examples=80, deadline=None)
@given(small_graphs(max_n=8))
def test_forced_vertices_match_brute_force(g):
    g = g.union(Graph.build(isolated=["zz"]))
    brute = brute_force_minimal_covers(g)
    top = max(len(c) for c in brute)
    for x in g.vertices:
        expected = all(x in c for c in brute if len(c) == top)
        assert covers.vertex_in_every_maximum_cover(g, x) == expected
    assert not covers.vertex_in_every_maximum_cover(g, "zz")
    assert not covers.vertex_in_every_maximum_cover(g, "not-a-vertex")


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
