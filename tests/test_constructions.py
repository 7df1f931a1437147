"""Explicit generator constructions: every family verifies, counts match the
stated formulas, and hypothesis violations are loud errors."""

import pytest

from edgeideals import constructions as cons
from edgeideals import covers
from edgeideals.certificates import verify_certificate
from edgeideals.constructions import ConstructionError
from edgeideals.graphs import Graph, parse_edge_list

from conftest import WHISKER_P3, cycle, path_graph


def _check(gs, cert):
    v = verify_certificate(gs, cert)
    assert v.ok, v.reason
    return gs


def test_gens_cycle_counts():
    for ell, count in ((3, 2), (4, 3), (5, 3)):
        gs = _check(*cons.gens_cycle(ell))
        assert len(gs) == count
        assert len(gs) >= covers.big_height(gs.graph)


def test_gens_cycle_c4_exceeds_bight_by_one():
    gs, _ = cons.gens_cycle(4)
    assert len(gs) == covers.big_height(gs.graph) + 1


def test_gens_cycle_custom_labels():
    gs = _check(*cons.gens_cycle(5, labels=("p", "q", "r", "s", "t")))
    assert set(gs.graph.vertices) == {"p", "q", "r", "s", "t"}


def test_gens_cycle_unsupported_length():
    with pytest.raises(ConstructionError):
        cons.gens_cycle(6)


@pytest.mark.parametrize("r,s", [(0, 0), (1, 0), (0, 1), (2, 1), (1, 3)])
def test_gens_lemma52(r, s):
    gs = _check(*cons.gens_lemma52(r, s))
    assert len(gs) == r + s + 3
    stats = covers.cover_stats(gs.graph)
    assert stats.height == stats.big_height == r + s + 3


def test_lemma52_graph_shape():
    g = cons.lemma52_graph(r_paths=[("a1", "b1")], s_paths=[("c1", "d1")])
    assert g.degree("x1") == 3 and g.degree("x3") == 3
    assert g.degree("b1") == 1 and g.degree("d1") == 1


def test_gens_whisker_tree_count_and_anchor():
    gs, cert = cons.gens_whisker_tree(WHISKER_P3, ("a", "b"))
    _check(gs, cert)
    nonterm = sum(1 for v in WHISKER_P3.vertices
                  if WHISKER_P3.degree(v) > 1)
    assert len(gs) == nonterm == covers.big_height(WHISKER_P3)
    # The anchor edge is a standalone monomial generator.
    anchored = [p for p in gs.polys
                if p.single_term is not None
                and p.single_term[0].as_dict() == {"a": 1, "b": 1}]
    assert anchored


def test_gens_whisker_tree_rejects_non_whisker_tree():
    with pytest.raises(ConstructionError):
        cons.gens_whisker_tree(path_graph(4), ("p0", "p1"))


def test_sv_layer_search_basics():
    res = cons.sv_layer_search(WHISKER_P3, max_layers=3)
    assert res is not None
    _check(*res)
    assert len(res[0]) == 3
    # Infeasible budget: C5 needs 3 layers.
    assert cons.sv_layer_search(cycle(5), max_layers=2) is None


def test_sv_layer_search_pinned_first():
    res = cons.sv_layer_search(WHISKER_P3, max_layers=3, first=("a", "b"))
    assert res is not None
    gs, cert = res
    _check(gs, cert)
    assert gs.polys[0].single_term[0].as_dict() == {"a": 1, "b": 1}


def test_sv_layer_search_budget_limits_starts():
    # budget = 0 leaves no candidate bottom layers; the search reports
    # absence rather than raising.
    assert cons.sv_layer_search(WHISKER_P3, max_layers=3, budget=0) is None
    with pytest.raises(cons.ConstructionError):
        cons.sv_layer_search(Graph.build(isolated="z"))
    with pytest.raises(cons.ConstructionError):
        cons.sv_layer_search(WHISKER_P3, first=("a", "c"))  # not an edge


def test_sv_layer_search_rejects_a_cap_below_one():
    for cap in (0, -1):
        with pytest.raises(cons.ConstructionError):
            cons.sv_layer_search(path_graph(4), max_layers=cap)


def test_build_attached_graph():
    base = parse_edge_list("a b")
    g, labels = cons.build_attached_graph(base, {"a": cons.WHISKER, "b": 3})
    assert g.degree("a") == 2  # base edge + whisker
    assert g.degree("b") == 3  # base edge + two cycle edges
    assert set(labels) == {"a", "b"}
    with pytest.raises(ConstructionError):
        cons.build_attached_graph(base, {"a": cons.WHISKER})  # b uncovered


def test_gens_prop42_counts():
    base = parse_edge_list("a b\nb c")
    menu = {"a": cons.WHISKER, "b": 3, "c": 5}
    gs = _check(*cons.gens_prop42(base, menu))
    assert len(gs) == 1 + 2 + 3  # a_i = 1 (whisker), 2 (C3), 3 (C5)
    stats = covers.cover_stats(gs.graph)
    assert stats.unmixed and len(gs) == stats.height


def test_gens_prop42_c4_attachment():
    base = parse_edge_list("a b")
    gs = _check(*cons.gens_prop42(base, {"a": cons.WHISKER, "b": 4}))
    assert len(gs) == 1 + 3  # a_i = 1 for the whisker, 3 for the C4
    assert len(gs) == covers.big_height(gs.graph)


def test_gens_lemma53_empty_matches_lemma52():
    gs_a, _ = cons.gens_lemma53(2, 1)
    gs_b, _ = cons.gens_lemma52(2, 1)
    assert len(gs_a) == len(gs_b)


def test_gens_lemma53_case_a():
    att = parse_edge_list("x3 e\ne f\ne ew\nf fw")
    gs = _check(*cons.gens_lemma53(1, 1, [], [att]))
    assert len(gs) == covers.big_height(gs.graph)


def test_gens_lemma53_case_b():
    # Attachment whose whole body is a whisker tree hanging from the root.
    att = parse_edge_list("x1 e\ne f\nf g\ng h")
    gs = _check(*cons.gens_lemma53(1, 0, [att], []))
    assert len(gs) == covers.big_height(gs.graph)


def test_gens_lemma53_rejects_bad_attachment():
    att = parse_edge_list("x3 e\ne f\ne g\nf fw\ng gw")  # e has no whisker
    with pytest.raises(ConstructionError):
        cons.gens_lemma53(0, 0, [], [att])
    with pytest.raises(ConstructionError):
        cons.gens_lemma53(0, 0, [parse_edge_list("a b")], [])  # no root


def test_gens_lemma54():
    h1 = parse_edge_list("x1 y1\nx1 z\nz zw")
    h2 = parse_edge_list("x2 y2\nx2 w\nw ww")
    gs = _check(*cons.gens_lemma54(h1, h2))
    stats = covers.cover_stats(gs.graph)
    assert stats.unmixed and len(gs) == stats.height


def test_gens_lemma54_hypothesis_checked():
    h1 = parse_edge_list("x1 y1\nx1 z")  # bridge union is not a whisker tree
    h2 = parse_edge_list("x2 y2")
    with pytest.raises(ConstructionError):
        cons.gens_lemma54(h1, h2)


def test_all_verified_sets_meet_krull_bound(certificate_corpus):
    for name, gs, cert in certificate_corpus:
        assert len(gs) >= covers.big_height(gs.graph), name
