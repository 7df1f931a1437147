"""Hochster-formula projective-dimension oracle, checked against textbook
homology ranks, the height/big-height inequality chain, and an independent
test-local Hochster oracle."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideals import covers, homology
from edgeideals.graphs import Graph, parse_edge_list

from conftest import BOWTIE, TRIANGLE, TRI_2W, WHISKER_P3, cycle, path_graph


def faces_by_cardinality(g):
    """The faces of Ind(g) as bitmask levels, as projective_dimension lists
    them for W = V (bit i is g.vertices[i])."""
    nbr = {1 << i: m for i, m in enumerate(g.masks)}
    return homology._independent_faces(nbr, (1 << len(g.vertices)) - 1)


def test_independence_complex_of_path():
    # P3 a-b-c: maximal independent sets {a, c} and {b}.
    assert set(covers.maximal_independent_sets(path_graph(3))) == {
        frozenset({"p0", "p2"}), frozenset({"p1"})}


def test_faces_closed_under_subsets():
    faces = {f for level in faces_by_cardinality(cycle(5)) for f in level}
    assert len(faces) == 1 + 5 + 5   # the empty face, vertices, non-edges
    for f in faces:
        for i in range(5):
            if f >> i & 1:
                assert f ^ (1 << i) in faces


def test_homology_of_circle():
    # The independence complex of C5 is a 5-cycle (circle): H0~ = 0, H1 = 1.
    ranks = homology._reduced_ranks(faces_by_cardinality(cycle(5)))
    assert ranks == {1: 1}


def test_homology_of_two_points():
    # C4's maximal independent sets {c0, c2} and {c1, c3} are two disjoint
    # 1-simplices, so H0~ = 1.
    ranks = homology._reduced_ranks(faces_by_cardinality(cycle(4)))
    assert ranks == {0: 1}


def test_homology_of_simplex_is_trivial():
    simplex = [[sum(1 << i for i in f)
                for f in itertools.combinations(range(3), k)]
               for k in range(4)]
    assert homology._reduced_ranks(simplex) == {}


def test_empty_complex_has_degree_minus_one_rank():
    assert homology._reduced_ranks([[0]]) == {-1: 1}


def test_pd_known_values():
    assert homology.projective_dimension(Graph.build([("a", "b")]))[0] == 1
    assert homology.projective_dimension(cycle(5))[0] == 3
    assert homology.projective_dimension(cycle(4))[0] == 3
    assert homology.projective_dimension(cycle(7))[0] == 5
    assert homology.projective_dimension(TRIANGLE)[0] == 2


def test_pd_cm_iff_height():
    # C5 is CM: pd = hgt = 3.  C4 is not: pd 3 > hgt 2.
    assert homology.projective_dimension(cycle(5))[0] == \
        covers.height(cycle(5))
    assert homology.projective_dimension(cycle(4))[0] > \
        covers.height(cycle(4))


def test_pd_respects_inequality_chain():
    for g in (TRIANGLE, TRI_2W, BOWTIE, WHISKER_P3, cycle(6), path_graph(6)):
        pd, _ = homology.projective_dimension(g)
        assert covers.height(g) <= covers.big_height(g) <= pd


def test_pd_ignores_isolated_vertices():
    g = parse_edge_list("a b\nz")
    assert homology.projective_dimension(g)[0] == 1


def test_edgeless_graph():
    pd, table = homology.projective_dimension(Graph.build(isolated="ab"))
    assert pd == 0 and table.entries == {}


def test_betti_table_shape():
    pd, table = homology.projective_dimension(cycle(5))
    assert table.pd == pd
    data = table.to_data()
    assert data["pd"] == pd
    assert all(len(row) == 3 for row in data["betti"])
    # beta_{1, 2} counts the edges.
    assert table.entries[(1, 2)] == 5


def test_size_guard():
    big = Graph.build(("u%d" % i, "v%d" % i) for i in range(8))
    with pytest.raises(homology.SizeGuardError):
        homology.projective_dimension(big)


def test_pd_at_the_guard_edge():
    # A 14-vertex tree (a heap-shaped binary tree): exactly MAX_VERTICES
    # non-isolated vertices, and pd = big height on trees.
    g = Graph.build(("t%d" % i, "t%d" % ((i - 1) // 2)) for i in range(1, 14))
    assert len(g.non_isolated) == homology.MAX_VERTICES
    assert homology.projective_dimension(g)[0] == covers.big_height(g)


# -- independent oracle -------------------------------------------------
#
# Hochster's formula by the book: every nonempty W (isolated vertices of
# G[W] included), faces as frozensets, dense 0/1 boundary matrices reduced
# by list-of-lists Gaussian elimination over F2.


def _oracle_f2_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def oracle_reduced_ranks(g, w):
    """{degree: rank} of the reduced F2 homology of Ind(G[W])."""
    by_card = [[frozenset(s) for s in itertools.combinations(sorted(w), k)
                if not any(g.adj[v] & set(s) for v in s)]
               for k in range(len(w) + 1)]
    by_card = [faces for faces in by_card if faces]
    boundary = [0] * (len(by_card) + 1)
    for k in range(1, len(by_card)):
        boundary[k] = _oracle_f2_rank(
            [[int(low <= up) for low in by_card[k - 1]] for up in by_card[k]])
    ranks = {}
    for k, faces in enumerate(by_card):
        r = len(faces) - boundary[k] - boundary[k + 1]
        if r:
            ranks[k - 1] = r
    return ranks


def oracle_betti(g):
    entries = {}
    active = g.non_isolated
    for k in range(1, len(active) + 1):
        for w in itertools.combinations(active, k):
            for deg, r in oracle_reduced_ranks(g, w).items():
                i = k - deg - 1
                if i >= 1:
                    entries[(i, k)] = entries.get((i, k), 0) + r
    return entries


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph.build((("v%d" % u, "v%d" % v)
                        for (u, v), k in zip(pairs, keep) if k),
                       isolated=["v%d" % i for i in range(n)])


def test_oracle_matches_textbook_ranks():
    assert oracle_reduced_ranks(cycle(5), cycle(5).vertices) == {1: 1}
    assert oracle_reduced_ranks(cycle(4), cycle(4).vertices) == {0: 1}


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_betti_table_matches_oracle(g):
    assert homology.projective_dimension(g)[1].entries == oracle_betti(g)


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_isolated_vertex_subsets_have_no_homology(g):
    # Justifies skipping every W whose induced graph has an isolated vertex.
    active = g.non_isolated
    for k in range(1, len(active) + 1):
        for w in itertools.combinations(active, k):
            if any(not g.adj[v] & set(w) for v in w):
                assert oracle_reduced_ranks(g, w) == {}
