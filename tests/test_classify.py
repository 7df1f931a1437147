"""Cohen-Macaulay / STCI classification: the unicyclic five-case theorem,
the two corollary equivalences, and the dispatcher."""

import pytest

from edgeideals import classify, graphs
from edgeideals.classify import CM, NOT_CM, UNKNOWN, HypothesisError
from edgeideals.graphs import Graph, GraphError, parse_edge_list

from conftest import BOWTIE, TRIANGLE, TRI_2W, WHISKER_P3, cycle, path_graph


def test_is_whisker_tree():
    ok, dec = graphs.is_whisker_tree(WHISKER_P3)
    assert ok and set(dec["base"].vertices) == {"a", "b", "c"}
    assert dec["whiskers"] == {"a": "aw", "b": "bw", "c": "cw"}
    assert not graphs.is_whisker_tree(Graph.build([("a", "b")]))[0]
    # P4 is the whisker tree over a single edge; P5 is not a whisker tree
    # (its middle vertex has no pendant neighbour).
    assert graphs.is_whisker_tree(path_graph(4))[0]
    assert not graphs.is_whisker_tree(path_graph(5))[0]
    assert not graphs.is_whisker_tree(TRIANGLE)[0]
    # Two whiskers on one base vertex disqualify.
    g = parse_edge_list("a b\na u\na v\nb bw")
    assert not graphs.is_whisker_tree(g)[0]


def test_simplex_partition():
    ok, part = classify.simplex_partition_check(WHISKER_P3)
    assert ok and len(part) == 3
    ok, _ = classify.simplex_partition_check(path_graph(5))
    assert not ok
    ok, part = classify.simplex_partition_check(TRIANGLE)
    assert ok and part == [frozenset({"a", "b", "c"})]


def test_unicyclic_case1():
    for ell in (3, 5):
        v = classify.classify_unicyclic(cycle(ell))
        assert (v.status, v.stci, v.case_tag) == \
            (CM, "Yes", "Thm 5.1 case 1")


def test_unicyclic_c4_c7_not_cm():
    for ell in (4, 7):
        v = classify.classify_unicyclic(cycle(ell))
        assert v.status == NOT_CM
        assert v.evidence.get("excluded_cycle")


def test_unicyclic_mixed_graphs_not_cm():
    # Triangle with whiskers at two vertices is mixed (covers {a,b} and
    # {a, c, bw}), hence not Cohen-Macaulay.
    v = classify.classify_unicyclic(TRI_2W)
    assert v.status == NOT_CM
    assert v.evidence["height"] < v.evidence["big_height"]


def test_unicyclic_case2_whisker_graph():
    g = TRIANGLE.with_edges([("a", "aw"), ("b", "bw"), ("c", "cw")])
    v = classify.classify_unicyclic(g)
    assert (v.status, v.case_tag) == (CM, "Thm 5.1 case 2")


def test_unicyclic_case3():
    # Triangle, one vertex of degree 2, a whisker tree hanging off.
    g = parse_edge_list("a b\nb c\nc a\na d\nd e\nd dw\ne ew")
    v = classify.classify_unicyclic(g)
    assert (v.status, v.case_tag) == (CM, "Thm 5.1 case 3")


def test_unicyclic_case5():
    # C4 with single edges at two adjacent vertices forming a whisker tree
    # across the bridge.
    g = parse_edge_list("x1 x2\nx2 x3\nx3 x4\nx4 x1\nx1 u\nx2 v")
    v = classify.classify_unicyclic(g)
    assert (v.status, v.case_tag) == (CM, "Thm 5.1 case 5")


def test_classify_unicyclic_input_checks():
    with pytest.raises(GraphError):
        classify.classify_unicyclic(path_graph(3))  # no cycle
    with pytest.raises(GraphError):
        classify.classify_unicyclic(BOWTIE)  # two cycles
    with pytest.raises(GraphError):
        classify.classify_unicyclic(Graph.build([("a", "b"), ("c", "d"),
                                                 ("d", "e"), ("e", "c")]))


def test_corollary44():
    v = classify.corollary44(TRIANGLE)
    assert v.status == CM and v.stci == "Yes"
    v = classify.corollary44(path_graph(5))
    assert v.status == NOT_CM
    v = classify.corollary44(WHISKER_P3)
    assert v.status == CM
    with pytest.raises(HypothesisError):
        classify.corollary44(cycle(5))  # C5 subgraph, not chordal


def test_corollary61():
    v = classify.corollary61(cycle(6))
    assert v.status == NOT_CM
    whiskered_c6 = cycle(6).with_edges(
        ("c%d" % i, "w%d" % i) for i in range(6))
    v = classify.corollary61(whiskered_c6)
    assert v.status == CM and v.stci == "Yes"
    with pytest.raises(HypothesisError):
        classify.corollary61(cycle(7))
    with pytest.raises(HypothesisError):
        classify.corollary61(Graph.build([("a", "b")]))
    with pytest.raises(HypothesisError):
        classify.corollary61(cycle(5))  # girth below 6


def test_stci_verdict_dispatch():
    assert classify.stci_verdict(cycle(5)).case_tag == "Thm 5.1 case 1"
    # Bowtie is chordal, so the chordal equivalence settles it (mixed).
    v = classify.stci_verdict(BOWTIE)
    assert (v.status, v.case_tag) == (NOT_CM, "Cor 4.4")
    v = classify.stci_verdict(TRIANGLE)
    assert v.status == CM


def test_stci_verdict_prop42_tail():
    base = parse_edge_list("a b\nb c\nc a")
    g, _ = graphs.build_attached_graph(base, {"a": 5, "b": 5, "c": 5})
    v = classify.stci_verdict(g)
    assert (v.status, v.stci, v.case_tag) == (CM, "Yes", "Prop 4.2 tail")


def test_stci_verdict_unknown_fallthrough():
    # C4 with one C4 attached at each vertex: not unicyclic, not chordal,
    # contains C4 (fails both corollary hypotheses), cycles of length 4 in
    # the tail recognizer are not in {whisker, 3, 5}.
    base = cycle(4)
    g, _ = graphs.build_attached_graph(base, {v: 4 for v in base.vertices})
    v = classify.stci_verdict(g)
    assert v.status == UNKNOWN


def test_verdict_invariants():
    with pytest.raises(AssertionError):
        classify.CmVerdict(NOT_CM, stci="Yes", case_tag="Cor 4.4")
    with pytest.raises(AssertionError):
        classify.CmVerdict(CM, stci="Yes", case_tag="none")
