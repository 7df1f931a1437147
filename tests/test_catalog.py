"""Exhaustive and randomized graph corpora."""

import pytest

from edgeideals import graphs
from edgeideals.graphs import Graph

import catalog


def test_connected_counts_match_oeis():
    # Numbers of connected graphs on 1..7 vertices: 1, 1, 2, 6, 21, 112, 853
    # (cumulative 996).
    assert len(catalog.connected_graphs_upto(4)) == 1 + 1 + 2 + 6
    assert len(catalog.connected_graphs_upto(7)) == 996


def test_tree_counts():
    # Trees on 2..9 vertices: 1, 1, 2, 3, 6, 11, 23, 47.
    assert len(catalog.trees_upto(6)) == 1 + 1 + 2 + 3 + 6
    assert len(catalog.trees_upto(9)) == 94
    for t in catalog.trees_upto(6):
        assert t.is_connected()
        assert len(t.edges) == len(t.vertices) - 1


def test_unicyclic_counts():
    # Connected unicyclic graphs on 3..8 vertices: 1, 2, 5, 13, 33, 89.
    got = catalog.unicyclic_upto(8)
    assert len(got) == 143
    for g in got:
        assert g.is_connected()
        assert len(g.edges) == len(g.vertices)
        assert len(graphs.cycles(g)) == 1


def test_atlas_bound_enforced():
    with pytest.raises(ValueError):
        catalog.connected_graphs_upto(8)


def test_girth6_family():
    fam = catalog.girth_at_least_6_upto(8)
    for g in fam:
        assert g.is_connected()
        assert not graphs.has_cycle_subgraph(g, (3, 4, 5))
    # Contains the theta(3,3,3) graph on 8 vertices (two degree-3 hubs).
    assert any(len(g.vertices) == 8 and len(g.edges) == 9 for g in fam)
    with pytest.raises(ValueError):
        catalog.girth_at_least_6_upto(9)


def test_random_cacti_are_cacti():
    for g in catalog.random_cacti(seed=3, count=40, max_vertices=12):
        assert graphs.is_cactus(g)
        assert g.is_connected()
        assert len(g.vertices) <= 12
        assert g.edges


def test_random_cacti_deterministic():
    a = catalog.random_cacti(seed=11, count=10)
    b = catalog.random_cacti(seed=11, count=10)
    assert a == b
    c = catalog.random_cacti(seed=12, count=10)
    assert a != c


def test_from_networkx():
    import networkx as nx
    g = catalog.from_networkx(nx.path_graph(3))
    assert isinstance(g, Graph)
    assert len(g.edges) == 2
