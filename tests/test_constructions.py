"""Explicit generator constructions: every family verifies, counts match the
stated formulas, and hypothesis violations are loud errors.  The mask layer
search returns exactly what the old Monomial-level search returned."""

import collections
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from edgeideals import constructions as cons
from edgeideals import covers
from edgeideals.certificates import verify_certificate
from edgeideals.constructions import ConstructionError
from edgeideals.graphs import Graph, parse_edge_list
from edgeideals.polynomials import Monomial

import catalog
from conftest import WHISKER_P3, cycle, layer_search_mismatches, path_graph


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


def _random_graph(rng, labels, count):
    pairs = list(itertools.combinations(labels, 2))
    return Graph.build(rng.sample(pairs, count))


def test_edge_monomials_follow_sort_key_order():
    # Mask bit i is the i-th edge monomial, and the least witness is the
    # lowest set bit, so the list must be in sort_key order.
    labels = ["a", "B", "a1", "a10", "a2", "aa", "b", "x_1", "Z9", "\u00e9"]
    rng = random.Random(5)
    for _ in range(50):
        g = _random_graph(rng, labels, rng.randint(1, 20))
        mons = cons._edge_monomials(g)
        assert mons == sorted(mons, key=Monomial.sort_key)
        assert len(set(mons)) == len(g.edges)


def test_witness_masks_are_the_dividing_edges():
    rng = random.Random(6)
    for _ in range(20):
        g = _random_graph(rng, "abcdefg", rng.randint(1, 12))
        mons = cons._edge_monomials(g)
        table = cons._witness_table(mons)
        for (i, e), (j, f) in itertools.product(enumerate(mons), repeat=2):
            assert table[i][j] == sum(1 << k for k, d in enumerate(mons)
                                      if d.divides(e * f))


def _tree_cases(short):
    for t in catalog.trees_upto(9):
        cap = covers.big_height(t) - short
        if cap >= 1:
            yield t, {"max_layers": cap}


@pytest.mark.parametrize("short", [0, 1], ids=["big-height", "one-less"])
def test_mask_search_matches_the_old_search_on_trees(short):
    assert layer_search_mismatches(_tree_cases(short)) == []


def test_mask_search_matches_the_old_search_on_pinned_starts():
    trees = [t for t in catalog.trees_upto(8) if len(t.vertices) == 8]
    cases = [(t, {"max_layers": covers.big_height(t), "first": e})
             for t in trees[::4] for e in t.sorted_edges()]
    cases += [(t, {"max_layers": covers.big_height(t) - short,
                   "budget": budget})
              for t in trees[::2] for short in (0, 1) for budget in (1, 3)]
    cases += [(cycle(5), {"first": ("c0", "c1"), "budget": 1}),
              (WHISKER_P3, {"budget": 0})]
    assert layer_search_mismatches(cases) == []


def test_mask_search_matches_the_old_search_on_cacti_under_hash_seed_4():
    # Pivot ties follow string-hash order in both searches, so they agree
    # under every seed, not just the one this process runs with.  The
    # default cap is the edge count.
    tests = Path(__file__).resolve().parent
    src = Path(cons.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED="4")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), str(tests), env.get("PYTHONPATH")) if p)
    script = ("import catalog, conftest\n"
              "cases = [(g, {}) for g in catalog.random_cacti(2026, 40, 10)]\n"
              "print(conftest.layer_search_mismatches(cases))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env=env, cwd=tests).stdout
    assert out.strip() == "[]"


def test_layer_search_enumerates_each_remaining_mask_once(monkeypatch):
    # The cliques of a remaining mask are enumerated once per search and
    # shared by every start; searches capped one below big height fail, so
    # every start runs to exhaustion.
    calls = collections.Counter()
    enumerate_cliques = cons._compatible_cliques

    def counted(remaining, *args):
        calls[remaining] += 1
        return enumerate_cliques(remaining, *args)

    monkeypatch.setattr(cons, "_compatible_cliques", counted)
    trees = [t for t in catalog.trees_upto(9) if len(t.vertices) == 9]
    for g, cap in [(t, covers.big_height(t) - 1) for t in trees[::8]] + \
            [(g, None) for g in catalog.random_cacti(7, 5, 9)]:
        calls.clear()
        cons.sv_layer_search(g, max_layers=cap)
        assert calls and max(calls.values()) == 1, g.sorted_edges()


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
