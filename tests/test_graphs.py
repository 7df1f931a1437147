"""Structural graph machinery: construction, cactus decomposition, cliques,
chordality, whisker recognizers, and the edge-list text format."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from edgeideals import graphs
from edgeideals.graphs import Cycle, Graph, GraphError, edge, parse_edge_list

import catalog
from conftest import (BOWTIE, TRIANGLE, WHISKER_P3,
                      brute_force_maximal_cliques, cactus_oracle,
                      chordal_oracle, cycle, cycle_subgraph_oracle,
                      format_edge_list, induced_cycles_oracle, path_graph,
                      to_networkx, whisker_tree_oracle)


def test_build_canonicalizes_edges():
    g = Graph.build([("b", "a"), ("a", "b"), ("b", "c")])
    assert g.vertices == ("a", "b", "c")
    assert g.sorted_edges() == [("a", "b"), ("b", "c")]


def test_loops_and_bad_labels_rejected():
    with pytest.raises(GraphError):
        Graph.build([("a", "a")])
    with pytest.raises(GraphError):
        Graph.build([("a", "b c")])
    with pytest.raises(GraphError):
        Graph.build([("a", "")])


def test_degree_neighbors_terminal():
    g = WHISKER_P3
    assert g.degree("b") == 3
    assert g.degree("aw") == 1
    assert g.neighbors("c") == frozenset({"b", "cw"})
    assert edge("a", "aw") in g.terminal_edges()
    assert edge("a", "b") not in g.terminal_edges()


def test_isolated_vertices():
    g = Graph.build([("a", "b")], isolated=["z"])
    assert "z" in g.vertices
    assert g.non_isolated == ("a", "b")
    assert g.drop_isolated().vertices == ("a", "b")


def test_derived_graphs():
    g = TRIANGLE
    assert g.without_vertex("a").sorted_edges() == [("b", "c")]
    assert g.induced({"a", "b"}).sorted_edges() == [("a", "b")]
    with pytest.raises(GraphError):
        g.without_edges([("a", "z")])
    h = g.with_edges([("c", "d")])
    assert h.has_edge("c", "d") and h.has_edge("a", "b")


def test_components_and_connectivity():
    g = Graph.build([("a", "b"), ("c", "d")])
    assert len(g.components()) == 2
    assert not g.is_connected()
    assert all(c.is_connected() for c in g.component_graphs())


def test_cactus_recognition():
    assert graphs.is_cactus(TRIANGLE)
    assert graphs.is_cactus(BOWTIE)
    assert graphs.is_cactus(path_graph(5))
    k4 = Graph.build([("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                      ("b", "d"), ("c", "d")])
    assert not graphs.is_cactus(k4)
    # Two triangles sharing an edge are not a cactus.
    diamond = Graph.build([("a", "b"), ("b", "c"), ("c", "a"), ("b", "d"),
                           ("d", "c")])
    assert not graphs.is_cactus(diamond)


def test_cycles_and_cycle_count():
    assert graphs.cycle_count(BOWTIE) == 2
    cyc = graphs.cycles(BOWTIE)
    assert [c.length for c in cyc] == [3, 3]
    assert graphs.cycle_count(path_graph(4)) == 0
    assert graphs.cycles(cycle(6))[0].length == 6
    with pytest.raises(GraphError):
        graphs.cycles(Graph.build([("a", "b"), ("b", "c"), ("c", "a"),
                                   ("b", "d"), ("d", "c")]))


def test_cycle_edge_list_closes_the_walk():
    (cyc,) = graphs.cycles(cycle(5))
    assert len(cyc.edge_list()) == 5
    assert set(cyc.edge_list()) == cycle(5).edges


def test_cactus_pass_is_kept_on_the_graph():
    g = parse_edge_list("a b\nb c\nc a\nc d\nd e\ne c\ne f")
    assert "_cactus_cycles" not in vars(g)
    assert graphs.is_cactus(g)
    kept = vars(g)["_cactus_cycles"]
    assert isinstance(kept, tuple)
    found = graphs.cycles(g)
    found.clear()   # a caller's list is its own
    assert graphs.cycle_count(g) == 2
    assert len(graphs.branches_at(g, "c")) == 2
    assert vars(g)["_cactus_cycles"] is kept
    assert [c.vertices for c in graphs.cycles(g)] == [("a", "b", "c"),
                                                      ("c", "d", "e")]


def test_branches_at():
    # Bowtie: the shared vertex c has two 2-branches.
    brs = graphs.branches_at(BOWTIE, "c")
    assert len(brs) == 2
    assert all(b.kind == graphs.TWO_BRANCH for b in brs)
    # A whiskered path at b: whisker is a 1-branch.
    brs = graphs.branches_at(WHISKER_P3, "b")
    kinds = sorted(b.kind for b in brs)
    assert kinds == [graphs.ONE_BRANCH] * 3


def test_maximal_cliques_and_simplexes():
    cliques = graphs.maximal_cliques(TRIANGLE)
    assert cliques == [frozenset({"a", "b", "c"})]
    assert graphs.simplicial_vertices(TRIANGLE) == frozenset("abc")
    assert graphs.simplexes(BOWTIE) == [frozenset({"a", "b", "c"}),
                                        frozenset({"c", "d", "e"})]


def test_chordality():
    assert graphs.is_chordal(TRIANGLE)
    assert graphs.is_chordal(BOWTIE)
    assert not graphs.is_chordal(cycle(4))
    assert graphs.is_chordal(path_graph(6))


def test_cycle_subgraph_screen():
    assert graphs.has_cycle_subgraph(cycle(4), 4)
    assert not graphs.has_cycle_subgraph(TRIANGLE, 4)
    assert graphs.has_cycle_subgraph(cycle(5), 5)
    k4 = Graph.build([("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                      ("b", "d"), ("c", "d")])
    assert graphs.has_cycle_subgraph(k4, 4)  # non-induced C4
    with pytest.raises(GraphError):
        graphs.has_cycle_subgraph(TRIANGLE, 6)


def test_induced_short_cycles():
    c6 = cycle(6)
    assert graphs.induced_cycles_shorter_than(c6, 6) == []
    assert len(graphs.induced_cycles_shorter_than(cycle(5), 6)) == 1
    chord = c6.with_edges([("c0", "c3")])
    assert graphs.induced_cycles_shorter_than(chord, 6) != []
    # Two disjoint triangles: six vertices of degree 2 but two cycles.
    two = Graph.build([("a", "b"), ("b", "c"), ("c", "a"),
                       ("d", "e"), ("e", "f"), ("f", "d")])
    assert graphs.induced_cycles_shorter_than(two, 7) == [
        Cycle(("a", "b", "c")), Cycle(("d", "e", "f"))]


def test_parse_edge_list_format():
    g = parse_edge_list("# comment\na b\nb c\n\nz\n")
    assert g.sorted_edges() == [("a", "b"), ("b", "c")]
    assert "z" in g.vertices and g.degree("z") == 0
    with pytest.raises(GraphError):
        parse_edge_list("a a")
    with pytest.raises(GraphError):
        parse_edge_list("a b c")


def test_format_round_trip():
    for g in (TRIANGLE, WHISKER_P3, Graph.build([("a", "b")], isolated="z")):
        assert parse_edge_list(format_edge_list(g)) == g


@st.composite
def random_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = ["v%d" % i for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = [p for p in pairs if draw(st.booleans())]
    return Graph.build(chosen, isolated=labels)


@given(random_graphs())
def test_round_trip_is_identity(g):
    assert parse_edge_list(format_edge_list(g)) == g


@given(random_graphs())
def test_degree_sum_is_twice_edges(g):
    assert sum(g.degree(v) for v in g.vertices) == 2 * len(g.edges)


@given(random_graphs())
def test_relabel_preserves_structure(g):
    mapping = {v: "w_%s" % v for v in g.vertices}
    h = g.relabel(mapping)
    assert len(h.edges) == len(g.edges)
    assert sorted(h.degree(mapping[v]) for v in g.vertices) == \
        sorted(g.degree(v) for v in g.vertices)


@settings(deadline=None)
@given(random_graphs(max_n=8))
def test_cycle_subgraph_screen_matches_oracle(g):
    for length in (4, 5):
        assert graphs.has_cycle_subgraph(g, length) == \
            cycle_subgraph_oracle(g, length)


@settings(deadline=None)
@given(random_graphs(max_n=8))
def test_induced_cycles_match_oracle(g):
    for k in range(3, 8):
        assert graphs.induced_cycles_shorter_than(g, k) == \
            induced_cycles_oracle(g, k)


@settings(deadline=None)
@given(random_graphs(max_n=8))
def test_maximal_cliques_match_oracle(g):
    assert graphs.maximal_cliques(g) == brute_force_maximal_cliques(g)


@settings(deadline=None)
@given(random_graphs(max_n=8))
def test_maximal_cliques_match_networkx(g):
    assert graphs.maximal_cliques(g) == sorted(
        (frozenset(c) for c in nx.find_cliques(to_networkx(g))), key=sorted)


def test_bron_kerbosch_returns_masks():
    # a triangle 0-1-2 with a pendant 3 at 2: cliques {0,1,2} and {2,3}
    masks = (0b0110, 0b0101, 0b1011, 0b0100)
    assert sorted(graphs.bron_kerbosch(masks, 0b1111)) == [0b0111, 0b1100]
    # bits outside the candidates are never visited
    assert graphs.bron_kerbosch(masks, 0b1100) == [0b1100]
    assert graphs.bron_kerbosch(masks, 0) == [0]


@st.composite
def sparse_graphs(draw, max_n=9):
    """Graphs with at most a few edges more than vertices, so that cacti and
    near-cacti come up often."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = ["v%d" % i for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=n + 3)) \
        if pairs else []
    return Graph.build(chosen, isolated=labels)


@st.composite
def cactus_unions(draw):
    """Two disjoint random cacti, sometimes joined by a few edges."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    a, b = (catalog.random_cactus(rng, max_vertices=9) for _ in range(2))
    g = a.relabel({v: "a" + v for v in a.vertices}).union(
        b.relabel({v: "b" + v for v in b.vertices}))
    bridges = draw(st.integers(min_value=0, max_value=3))
    return g.with_edges(("a" + rng.choice(a.vertices),
                         "b" + rng.choice(b.vertices))
                        for _ in range(bridges))


def _assert_cactus_matches_oracle(g):
    cactus, cycles = cactus_oracle(g)
    assert graphs.is_cactus(g) == cactus
    if cactus:
        assert graphs.cycles(g) == cycles
        assert graphs.cycle_count(g) == len(cycles)
    else:
        with pytest.raises(GraphError):
            graphs.cycles(g)
        with pytest.raises(GraphError):
            graphs.cycle_count(g)


@settings(deadline=None)
@given(st.one_of(random_graphs(max_n=9), sparse_graphs(), cactus_unions()))
def test_cactus_and_cycles_match_oracle(g):
    _assert_cactus_matches_oracle(g)


@settings(deadline=None)
@given(st.one_of(random_graphs(max_n=9), sparse_graphs(), cactus_unions()))
def test_chordality_matches_oracle(g):
    assert graphs.is_chordal(g) == chordal_oracle(g)


@settings(deadline=None)
@given(st.one_of(random_graphs(max_n=9), sparse_graphs(), cactus_unions()))
def test_components_and_non_isolated_match_networkx(g):
    nxg = to_networkx(g)
    assert g.components() == sorted(
        map(frozenset, nx.connected_components(nxg)), key=min)
    assert g.non_isolated == tuple(v for v in g.vertices if nxg.degree(v))


@settings(deadline=None)
@given(st.one_of(random_graphs(max_n=9), sparse_graphs(), cactus_unions()),
       st.randoms(use_true_random=False))
def test_component_walk_matches_networkx_on_subsets(g, rng):
    w = rng.getrandbits(len(g.vertices))
    inside = [v for i, v in enumerate(g.vertices) if w >> i & 1]
    expected = sorted(map(frozenset, nx.connected_components(
        to_networkx(g).subgraph(inside))), key=min)
    assert [frozenset(g.vertices[i] for i in range(len(g.vertices))
                      if c >> i & 1)
            for c in graphs._components(g.masks, w)] == expected


def test_is_connected_on_empty_and_isolated_graphs():
    assert Graph().is_connected()
    assert Graph.build(isolated=["a"]).is_connected()
    assert not Graph.build(isolated=["a", "b"]).is_connected()
    assert not Graph.build([("a", "b")], isolated=["c"]).is_connected()


@settings(deadline=None)
@given(st.one_of(random_graphs(max_n=9), sparse_graphs(), cactus_unions()))
def test_is_connected_matches_networkx(g):
    assert g.is_connected() == nx.is_connected(to_networkx(g))


def test_branches_at_match_networkx_components():
    for g in catalog.random_cacti(12, 40):
        nxg = to_networkx(g)
        for x in g.vertices:
            expected = []
            for comp in nx.connected_components(
                    nxg.subgraph(set(g.vertices) - {x})):
                into = sum(y in comp for y in nxg[x])
                kind = {1: graphs.ONE_BRANCH, 2: graphs.TWO_BRANCH}[into]
                expected.append((kind, x, g.induced(comp | {x})))
            assert [(b.kind, b.root, b.subgraph)
                    for b in graphs.branches_at(g, x)] \
                == sorted(expected, key=lambda b: b[2].vertices)


@given(random_graphs())
def test_adj_matches_the_edge_set(g):
    expected = {v: set() for v in g.vertices}
    for u, v in g.edges:
        expected[u].add(v)
        expected[v].add(u)
    assert g.adj == expected


@settings(deadline=None)
@given(st.one_of(random_graphs(max_n=8), sparse_graphs()))
def test_simplicial_vertices_match_pairwise_check(g):
    assert graphs.simplicial_vertices(g) == {
        v for v in g.vertices
        if all(g.has_edge(a, b) for a in g.neighbors(v)
               for b in g.neighbors(v) if a < b)}


def test_recognizers_match_oracles_on_connected_graphs():
    for g in catalog.connected_graphs_upto(7):
        _assert_cactus_matches_oracle(g)
        assert graphs.is_chordal(g) == chordal_oracle(g)


def test_whisker_tree_matches_oracle():
    corpus = catalog.connected_graphs_upto(7) + catalog.trees_upto(9)
    assert sum(graphs.is_whisker_tree(g)[0] for g in corpus) > 0
    for g in corpus:
        assert graphs.is_whisker_tree(g) == whisker_tree_oracle(g)
