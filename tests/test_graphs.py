"""Structural graph machinery: construction, cactus decomposition, cliques,
chordality, whisker recognizers, and the edge-list text format."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from edgeideals import graphs
from edgeideals.covers import _cactus_numbers
from edgeideals.graphs import Graph, GraphError, edge, parse_edge_list

import catalog
from conftest import (BOWTIE, TRIANGLE, WHISKER_P3, branch_oracle,
                      brute_force_maximal_cliques, cactus_oracle,
                      chordal_oracle, cycle, cycle_subgraph_oracle,
                      format_edge_list, induced_cycles_oracle, path_graph,
                      relabel, simplex_oracle, to_networkx,
                      whisker_tree_oracle, with_edges)


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


def test_labels_with_whitespace_are_rejected_on_every_code_point():
    # a label is rejected exactly when it holds a whitespace character
    rejected = set()
    for c in map(chr, range(0x110000)):
        for label in ("a" + c + "b", c):
            try:
                graphs._check_label(label)
            except GraphError:
                rejected.add(label)
    spaces = {c for c in map(chr, range(0x110000)) if c.isspace()}
    assert spaces and rejected == spaces | {"a" + c + "b" for c in spaces}
    for label in ("", None, 7, b"ab", ("a",)):
        with pytest.raises(GraphError, match="bad vertex label"):
            graphs._check_label(label)


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


@pytest.mark.parametrize("vertices, edges", [
    (("a", "a", "b"), {("a", "b")}),
    (("b", "a", "c"), {("a", "b"), ("a", "c")}),
    (("b", "a", "c"), {("b", "a"), ("c", "a")}),
    (("a", "b", "c"), {("b", "a")}),
    (("a", "b"), {("a", "a")}),
    (("a", "b"), {("a", "z")}),
], ids=["repeated-vertex", "unsorted-vertices", "unsorted-both",
        "unsorted-edge", "loop", "unknown-endpoint"])
def test_graph_rejects_values_that_are_not_canonical(vertices, edges):
    # Graph(...) takes its fields as given, so a repeated or unsorted vertex
    # or an unsorted pair would break the masks, edge lookups and equality
    with pytest.raises(GraphError):
        Graph(vertices, frozenset(edges))


def test_derived_graphs():
    g = TRIANGLE
    assert g.induced({"a", "b"}).sorted_edges() == [("a", "b")]
    h = with_edges(g, [("c", "d")])
    assert edge("c", "d") in h.edges and edge("a", "b") in h.edges


def test_with_edges_checks_labels_as_build_does():
    g = parse_edge_list("a b")
    # a label with a space would write an edge list that does not parse
    with pytest.raises(GraphError, match="bad vertex label"):
        with_edges(g, [("a", "x y")])
    with pytest.raises(GraphError, match="bad vertex label"):
        with_edges(g, [("a", 3)])


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
    assert [len(c) for c in cyc] == [3, 3]
    assert graphs.cycle_count(path_graph(4)) == 0
    assert len(graphs.cycles(cycle(6))[0]) == 6
    with pytest.raises(GraphError):
        graphs.cycles(Graph.build([("a", "b"), ("b", "c"), ("c", "a"),
                                   ("b", "d"), ("d", "c")]))


def test_cycles_are_plain_label_tuples():
    assert type(graphs.cycles(BOWTIE)[0]) is tuple


def test_cycle_edge_list_closes_the_walk():
    (cyc,) = graphs.cycles(cycle(5))
    assert graphs.cycle_graph(cyc).edges == cycle(5).edges


def test_cactus_pass_is_kept_on_the_graph():
    g = parse_edge_list("a b\nb c\nc a\nc d\nd e\ne c\ne f")
    assert "_cactus_cycles" not in vars(g)
    assert graphs.is_cactus(g)
    kept = vars(g)["_cactus_cycles"]
    assert isinstance(kept, tuple)
    found = graphs.cycles(g)
    found.clear()   # a caller's list is its own
    assert graphs.cycle_count(g) == 2
    assert graphs.is_chordal(g)   # reads the kept cycles: two triangles
    assert vars(g)["_cactus_cycles"] is kept
    assert graphs.cycles(g) == [("a", "b", "c"), ("c", "d", "e")]


def _branch_records(g, x):
    """The branches at x that the split pass rooted there records, in the
    form of `branch_oracle`."""
    xi = g.vertices.index(x)
    return sorted((tuple(v for j, v in enumerate(g.vertices)
                         if (br.mask | 1 << xi) >> j & 1), 2 if br.two else 1)
                  for br in _cactus_numbers(g, xi)[2])


def test_branches_at():
    # Bowtie: the shared vertex c has two 2-branches.
    assert _branch_records(BOWTIE, "c") == [(("a", "b", "c"), 2),
                                            (("c", "d", "e"), 2)]
    # A whiskered path at b: each side and the whisker is a 1-branch.
    assert _branch_records(WHISKER_P3, "b") == [
        (("a", "aw", "b"), 1), (("b", "bw"), 1), (("b", "c", "cw"), 1)]


def _maximal_cliques(g):
    """Every maximal clique of g from the Bron-Kerbosch kernel, as sorted
    vertex sets."""
    full = (1 << len(g.vertices)) - 1
    return graphs._vertex_sets(g.vertices, graphs.bron_kerbosch(g.masks, full))


def _simplicial(g):
    """The vertices whose neighbourhood mask is a clique (`_is_clique`), as
    `simplexes` picks them."""
    return {v for v, m in zip(g.vertices, g.masks)
            if graphs._is_clique(g.masks, m)}


def test_maximal_cliques_and_simplexes():
    assert _maximal_cliques(TRIANGLE) == [frozenset({"a", "b", "c"})]
    assert _simplicial(TRIANGLE) == set("abc")
    assert graphs.simplexes(BOWTIE) == [frozenset({"a", "b", "c"}),
                                        frozenset({"c", "d", "e"})]


def test_simplexes_are_read_off_the_simplicial_vertices(monkeypatch):
    # the closed neighbourhood of a simplicial vertex is the one maximal
    # clique holding it, so no clique is enumerated
    def refuse(*args):
        raise AssertionError("simplexes enumerated cliques")

    monkeypatch.setattr(graphs, "bron_kerbosch", refuse)
    triangle_z = parse_edge_list("a b\nb c\nc a\nz")
    corpus = [*catalog.connected_graphs_upto(7),
              *catalog.random_cacti(seed=29, count=40, max_vertices=10),
              triangle_z, Graph.build(isolated="abc"), Graph()]
    for g in corpus:
        assert graphs.simplexes(g) == simplex_oracle(g)
    assert graphs.simplexes(triangle_z) == [frozenset("abc"), frozenset("z")]
    assert graphs.simplexes(Graph()) == []


def test_chordality():
    assert graphs.is_chordal(TRIANGLE)
    assert graphs.is_chordal(BOWTIE)
    assert not graphs.is_chordal(cycle(4))
    assert graphs.is_chordal(path_graph(6))


def test_cycle_subgraph_screen():
    assert graphs.has_cycle_subgraph(cycle(4), (4,))
    assert not graphs.has_cycle_subgraph(TRIANGLE, (4,))
    assert not graphs.has_cycle_subgraph(TRIANGLE, (4, 5))
    assert graphs.has_cycle_subgraph(TRIANGLE, (3, 4, 5))
    assert graphs.has_cycle_subgraph(cycle(5), (4, 5))
    assert not graphs.has_cycle_subgraph(cycle(5), (3, 4))
    k4 = Graph.build([("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                      ("b", "d"), ("c", "d")])
    assert graphs.has_cycle_subgraph(k4, (4,))  # non-induced C4
    for lengths in ((6,), (4, 6), (2, 3), ()):
        with pytest.raises(GraphError):
            graphs.has_cycle_subgraph(TRIANGLE, lengths)


def test_induced_short_cycles():
    # The girth screen of Cor 6.1: a shortest cycle has no chord, so some
    # induced cycle is shorter than 6 iff some cycle is.
    c6 = cycle(6)
    assert not graphs.has_cycle_subgraph(c6, (3, 4, 5))
    assert graphs.has_cycle_subgraph(cycle(5), (3, 4, 5))
    chord = with_edges(c6, [("c0", "c3")])
    assert graphs.has_cycle_subgraph(chord, (3, 4, 5))
    # Two disjoint triangles: six vertices of degree 2 but two cycles.
    two = Graph.build([("a", "b"), ("b", "c"), ("c", "a"),
                       ("d", "e"), ("e", "f"), ("f", "d")])
    assert graphs.has_cycle_subgraph(two, (3, 4, 5))


def test_parse_edge_list_format():
    g = parse_edge_list("# comment\na b\nb c\n\nz\n")
    assert g.sorted_edges() == [("a", "b"), ("b", "c")]
    assert "z" in g.vertices and g.degree("z") == 0
    with pytest.raises(GraphError):
        parse_edge_list("a a")
    with pytest.raises(GraphError):
        parse_edge_list("a b c")


def test_parse_edge_list_comments_start_at_a_token():
    g = parse_edge_list("a b # an edge\nz\t#isolated\n  # indented\n"
                        "c#d e#\n#a q\nq #r s\n")
    assert g.sorted_edges() == [("a", "b"), ("c#d", "e#")]
    assert set(g.vertices) == {"a", "b", "c#d", "e#", "q", "z"}
    with pytest.raises(GraphError, match="line 2"):
        parse_edge_list("a b\na b c # three tokens before the comment")


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
    h = relabel(g, mapping)
    assert len(h.edges) == len(g.edges)
    assert sorted(h.degree(mapping[v]) for v in g.vertices) == \
        sorted(g.degree(v) for v in g.vertices)


@settings(deadline=None)
@given(random_graphs(max_n=8))
def test_cycle_subgraph_screen_matches_oracle(g):
    for lengths in ((3,), (4,), (5,), (4, 5), (3, 4, 5)):
        assert graphs.has_cycle_subgraph(g, lengths) == \
            any(cycle_subgraph_oracle(g, k) for k in lengths)


@settings(deadline=None)
@given(random_graphs(max_n=8))
def test_induced_cycles_match_oracle(g):
    # The girth screen against induced (chordless) cycles found by brute
    # force.
    assert graphs.has_cycle_subgraph(g, (3, 4, 5)) == \
        bool(induced_cycles_oracle(g, 6))


@settings(deadline=None)
@given(random_graphs(max_n=8))
def test_maximal_cliques_match_oracle(g):
    assert _maximal_cliques(g) == brute_force_maximal_cliques(g)


@settings(deadline=None)
@given(random_graphs(max_n=8))
def test_maximal_cliques_match_networkx(g):
    assert _maximal_cliques(g) == sorted(
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
    g = relabel(a, {v: "a" + v for v in a.vertices}).union(
        relabel(b, {v: "b" + v for v in b.vertices}))
    bridges = draw(st.integers(min_value=0, max_value=3))
    return with_edges(g, (("a" + rng.choice(a.vertices),
                           "b" + rng.choice(b.vertices))
                          for _ in range(bridges)))


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


# Non-cacti that every run checks, whatever the draws: two cycles sharing
# one edge, K4, a theta of three length-2 paths, and a second component
# (after a cactus and an isolated vertex) where two cycles share a path.
NON_CACTI = [parse_edge_list("a b\nb c\nc a\nc d\nd a"),
             parse_edge_list("a b\na c\na d\nb c\nb d\nc d"),
             parse_edge_list("u a\na w\nu b\nb w\nu c\nc w"),
             parse_edge_list("a b\nb c\nc a\nm\nq r\nr s\ns t\nt q\n"
                             "r u\nu v\nv s")]


def test_non_cacti_match_oracle():
    for g in NON_CACTI:
        assert cactus_oracle(g)[0] is False
        _assert_cactus_matches_oracle(g)


def _starts(g):
    """Every start the cactus pass takes: none, then each vertex index."""
    return [-1] + list(range(len(g.vertices)))


def _least_rotation(walk):
    """The least tuple among the rotations of a cyclic walk and of its
    reverse."""
    turns = [walk, walk[::-1]]
    return min(tuple(w[i:] + w[:i]) for w in turns for i in range(len(w)))


def test_cactus_dfs_rejects_non_cacti_from_every_start():
    others = [g for g in catalog.connected_graphs_upto(6)
              if not cactus_oracle(g)[0]]
    assert len(others) > 50
    for g in NON_CACTI + others:
        for first in _starts(g):
            assert graphs._cactus_dfs(g.masks, first) is None


def _cacti_with_isolated_vertices():
    return catalog.random_cacti(seed=11, count=40, max_vertices=12) + \
        list(catalog.unicyclic_upto(7)) + \
        [parse_edge_list("m\na b\nb c\nc a\nz\nq r"),
         Graph.build(isolated=["a"])]


def test_cactus_dfs_post_order_finishes_children_first():
    for g in _cacti_with_isolated_vertices():
        active = [i for i, m in enumerate(g.masks) if m]
        for first in _starts(g):
            post, parent, _, _ = graphs._cactus_dfs(g.masks, first)
            assert sorted(post) == active
            at = {v: n for n, v in enumerate(post)}
            for v in post:
                p = parent[v]
                assert p == -1 or (g.masks[v] >> p & 1 and at[v] < at[p])
            roots = [v for v in post if parent[v] == -1]
            if first in at:
                # the tree of `first` is walked, so finished, first
                assert roots[0] == first


def test_cactus_dfs_chains_are_the_cycles_from_every_start():
    for g in _cacti_with_isolated_vertices():
        for first in _starts(g):
            _, parent, chains, on_cycle = graphs._cactus_dfs(g.masks, first)
            walks, lower_ends = [], []   # lower ends of cycle tree edges
            for top, found in chains.items():
                for chain in found:
                    # the chain climbs the tree from its bottom to below top
                    assert [parent[u] for u in chain] == chain[1:] + [top]
                    lower_ends += chain
                    walks.append(_least_rotation(chain + [top]))
            assert len(set(lower_ends)) == len(lower_ends)
            assert on_cycle == sum(1 << u for u in lower_ends)
            assert sorted(walks) == list(g._cactus_cycles)


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
    # each record of the pass rooted at x, with x, is a component of g - x
    # with x, and it is a 2-branch exactly when two edges enter it
    for g in catalog.random_cacti(12, 40):
        for x in g.vertices:
            assert _branch_records(g, x) == branch_oracle(g, x)


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
    assert _simplicial(g) == {
        v for v in g.vertices
        if all(edge(a, b) in g.edges for a in g.neighbors(v)
               for b in g.neighbors(v) if a < b)}


def test_recognizers_match_oracles_on_connected_graphs():
    for g in catalog.connected_graphs_upto(7):
        _assert_cactus_matches_oracle(g)
        assert graphs.is_chordal(g) == chordal_oracle(g)


def test_short_cycle_recognizers_on_cacti_and_other_graphs():
    # is_chordal and has_cycle_subgraph read a cactus's cycles and search
    # any other graph; both paths against the oracles, with both answers
    cacti = catalog.random_cacti(seed=5, count=60, max_vertices=10) + \
        list(catalog.unicyclic_upto(7)) + [BOWTIE]
    others = [g for g in catalog.connected_graphs_upto(6)
              if not graphs.is_cactus(g)]
    answers = set()
    for group, cactus in ((cacti, True), (others, False)):
        for g in group:
            assert graphs.is_cactus(g) == cactus
            chordal = graphs.is_chordal(g)
            assert chordal == chordal_oracle(g)
            has = {k: cycle_subgraph_oracle(g, k) for k in (3, 4, 5)}
            for lengths in ((3,), (4,), (5,), (4, 5), (3, 4, 5)):
                assert graphs.has_cycle_subgraph(g, lengths) == \
                    any(has[k] for k in lengths)
            answers.add((cactus, chordal, has[4]))
    # (cactus, chordal, has a C4): a chordal cactus has only triangles, and
    # a chordal graph with two cycles sharing an edge has a diamond
    assert answers == {(True, True, False), (True, False, True),
                       (True, False, False), (False, True, True),
                       (False, False, True), (False, False, False)}


def test_whisker_tree_matches_oracle():
    corpus = catalog.connected_graphs_upto(7) + catalog.trees_upto(9)
    assert sum(graphs.is_whisker_tree(g) for g in corpus) > 0
    for g in corpus:
        assert graphs.is_whisker_tree(g) == whisker_tree_oracle(g)


def _random_forests(seed, count):
    """Disjoint unions of K2s, isolated vertices, trees of at most 6
    vertices and whisker trees over trees of at most 4 vertices."""
    rng = random.Random(seed)
    trees = catalog.trees_upto(6)
    small = catalog.trees_upto(4)
    out = []
    for _ in range(count):
        edges, isolated = [], []
        for k in range(rng.randint(1, 4)):
            pick = rng.randrange(4)
            if pick == 0:
                part = Graph.build([("a", "b")])
            elif pick == 1:
                part = Graph.build(isolated=["a"])
            elif pick == 2:
                part = rng.choice(trees)
            else:
                base = rng.choice(small)
                part, _ = graphs.build_attached_graph(
                    base, dict.fromkeys(base.vertices, graphs.WHISKER))
            part = relabel(part, {v: "c%d_%s" % (k, v) for v in part.vertices})
            edges += part.edges
            isolated += part.vertices
        out.append(Graph.build(edges, isolated))
    return out


def test_whisker_base_is_the_forest_test():
    # On a forest the kernel holds iff every component with an edge is a
    # single edge or a whisker tree.
    corpus = [*catalog.trees_upto(9), *_random_forests(9, 400)]
    answers = set()
    for g in corpus:
        expected = all(len(h.edges) == 1 or whisker_tree_oracle(h)
                       for h in g.component_graphs() if h.edges)
        assert (graphs._whisker_base(g.masks) is not None) == expected
        answers.add(expected)
    assert answers == {True, False}


def test_whisker_tree_builds_no_subgraph(monkeypatch):
    corpus = [*catalog.trees_upto(9), *_random_forests(9, 400),
              *catalog.connected_graphs_upto(6)]
    expected = [whisker_tree_oracle(g) for g in corpus]

    def refuse(*args):
        raise AssertionError("is_whisker_tree built a subgraph")

    monkeypatch.setattr(Graph, "induced", refuse)
    assert [graphs.is_whisker_tree(g) for g in corpus] == expected
    assert sum(expected) > 0
