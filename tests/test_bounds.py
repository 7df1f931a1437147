"""Arithmetical-rank bounds and the proof-mirroring decomposition trace."""

import random

import pytest

from edgeideals import bounds, covers, graphs
from edgeideals.graphs import Graph, GraphError, parse_edge_list

import catalog
from conftest import (BOWTIE, TRIANGLE, TRI_2W, WHISKER_P3, cycle,
                      old_cover_stats, old_maximum_minimal_covers,
                      old_vertex_in_every_maximum_cover, path_graph)


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
    assert graphs.is_fully_whiskered(WHISKER_P3)
    assert not graphs.is_fully_whiskered(TRI_2W)
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


def test_trace_matches_the_list_based_cover_path(monkeypatch):
    rng = random.Random(2026)
    cacti = [catalog.random_cactus(rng, rng.randint(3, 14)) for _ in range(40)]

    def replay():
        return [(bounds.theorem34_trace(g).to_data(),
                 covers.cover_stats(g).all_covers) for g in cacti]

    mask_path = replay()
    monkeypatch.setattr(covers, "_cover_stats", old_cover_stats)
    monkeypatch.setattr(covers, "maximum_minimal_covers",
                        old_maximum_minimal_covers)
    monkeypatch.setattr(covers, "vertex_in_every_maximum_cover",
                        old_vertex_in_every_maximum_cover)
    assert replay() == mask_path
    # every split case is replayed, Case 1.2a (which reports a cover and so
    # depends on the cover order) included
    tags = {node.case_tag for g in cacti
            for node in bounds.theorem34_trace(g).walk()}
    assert {"Case1.1", "Case1.2a", "Case1.2b", "Case2"} <= tags
