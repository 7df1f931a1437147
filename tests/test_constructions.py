"""Explicit generator constructions: every family verifies, counts match the
stated formulas, and hypothesis violations are loud errors.  The mask layer
search returns exactly what the old Monomial-level search returned."""

import collections
import itertools
import random
import time

import pytest

from edgeideals import constructions as cons
from edgeideals import covers
from edgeideals.certificates import verify_certificate
from edgeideals.constructions import ConstructionError, SearchBudgetError
from edgeideals.graphs import Graph, GraphError, is_cactus, parse_edge_list
from edgeideals.polynomials import Monomial, Polynomial

import catalog
from conftest import (WHISKER_P3, cycle, layer_search_mismatches, path_graph,
                      run_under_hash_seed, whisker_graph_cases,
                      with_edges)


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


def test_gens_cycle_unsupported_length():
    for length in (0, 1, 2, 6):
        with pytest.raises(ConstructionError, match="got %d" % length):
            cons.gens_cycle(length)


@pytest.mark.parametrize("r,s", [(0, 0), (1, 0), (0, 1), (2, 1), (1, 3)])
def test_gens_lemma52(r, s):
    gs = _check(*cons.gens_lemma52(r, s))
    assert len(gs) == r + s + 3
    stats = covers.cover_stats(gs.graph)
    assert stats.height == stats.big_height == r + s + 3


def test_gens_lemma52_input_checks():
    with pytest.raises(ConstructionError,
                       match="^r and s must be nonnegative$"):
        cons.gens_lemma52(0, -1)
    with pytest.raises(ConstructionError, match="^path label count mismatch$"):
        cons.gens_lemma52(1, 0, r_paths=[])
    with pytest.raises(ConstructionError, match="^path labels collide$"):
        cons.gens_lemma52(2, 0, r_paths=[("a1", "b1"), ("a1", "b2")])


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


def test_gens_whisker_tree_rejects_a_graph_that_is_not_a_whisker_tree():
    with pytest.raises(ConstructionError,
                       match="^graph is not a whisker tree$"):
        cons.gens_whisker_tree(path_graph(3), ("p0", "p1"))


def _check_whisker_tree(base, anchor):
    # One generator per base vertex: the big height of the whisker tree.
    t = with_edges(base, ((v, v + "_w") for v in base.vertices))
    gs = _check(*cons.gens_whisker_tree(t, anchor))
    assert len(gs) == len(base.vertices)
    assert gs.polys[0].single_term == (Monomial.of(*anchor), 1)


def test_gens_whisker_tree_at_every_anchor_of_small_trees():
    start = time.perf_counter()
    anchors = 0
    for base in catalog.trees_upto(8):
        for anchor in base.sorted_edges():
            _check_whisker_tree(base, anchor)
            anchors += 1
    assert anchors == 278
    assert time.perf_counter() - start < 5


def test_gens_whisker_tree_on_random_trees_of_up_to_300_vertices():
    rng = random.Random(16)
    for size in (2, 3, 10, 40, 100, 300):
        base = Graph.build(("v%d" % rng.randrange(i), "v%d" % i)
                           for i in range(1, size))
        anchor = rng.choice(base.sorted_edges())
        _check_whisker_tree(base, anchor)
        _check_whisker_tree(base, anchor[::-1])


def test_gens_whisker_tree_does_not_depend_on_the_hash_seed(tmp_path):
    # The generators must not follow the string-hash order of the labels.
    base = "v0 v1\nv0 v3\nv0 v5\nv1 v2\nv3 v4\n"
    f = tmp_path / "whisker.txt"
    f.write_text(base + "".join("v%d v%d_w\n" % (i, i) for i in range(6)))
    outs = {run_under_hash_seed(seed, "gens", "--family", "whisker", str(f),
                                "--anchor", "v1", "v2") for seed in range(5)}
    assert len(outs) == 1


def test_sv_layer_search_basics():
    res = cons.sv_layer_search(WHISKER_P3, max_layers=3)
    assert res is not None
    _check(*res)
    assert len(res[0]) == 3
    # Infeasible budget: C5 needs 3 layers.
    assert cons.sv_layer_search(cycle(5), max_layers=2) is None


def test_sv_layer_search_rejects_edgeless_graphs_and_non_edge_starts():
    with pytest.raises(cons.ConstructionError):
        cons.sv_layer_search(Graph.build(isolated="z"))
    with pytest.raises(cons.ConstructionError, match="not an edge"):
        cons.gens_whisker_tree(WHISKER_P3, ("a", "c"))  # pins its anchor


def test_sv_layer_search_rejects_a_cap_below_one():
    for cap in (0, -1):
        with pytest.raises(cons.ConstructionError):
            cons.sv_layer_search(path_graph(4), max_layers=cap)


def _random_graph(rng, labels, count):
    pairs = list(itertools.combinations(labels, 2))
    return Graph.build(rng.sample(pairs, count))


def test_edge_monomials_follow_sort_key_order():
    # Mask bit i is the i-th edge monomial, and the least witness is the
    # lowest set bit, so the list must be in the polynomial term order.
    labels = ["a", "B", "a1", "a10", "a2", "aa", "b", "x_1", "Z9", "\u00e9"]
    rng = random.Random(5)
    for _ in range(50):
        g = _random_graph(rng, labels, rng.randint(1, 20))
        mons = cons._edge_monomials(g)
        assert mons == [m for m, _ in Polynomial.of(*mons).terms]
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


def test_mask_search_matches_the_old_search_on_cacti_under_hash_seed_4():
    # Pivot ties follow string-hash order in both searches, so they agree
    # under every seed, not just the one this process runs with.  The
    # default cap is the edge count.
    script = ("import catalog, conftest\n"
              "cases = [(g, {}) for g in catalog.random_cacti(2026, 40, 10)]\n"
              "print(conftest.layer_search_mismatches(cases))\n")
    assert run_under_hash_seed(4, script=script).strip() == "[]"


def test_mask_search_matches_the_old_search_on_non_cactus_whisker_graphs():
    # The graphs gens_prop42 searches, under this process's hash seed and
    # under seed 4.  Their bases have cycles that share edges, unlike the
    # trees and cacti above.  Each gets a layering of n layers.
    cases = list(whisker_graph_cases())
    assert not any(is_cactus(g) for g, _ in cases)
    assert layer_search_mismatches(cases) == []
    for g, kw in cases:
        assert len(_check(*cons.sv_layer_search(g, **kw))) == kw["max_layers"]
    script = ("import conftest\n"
              "cases = list(conftest.whisker_graph_cases())\n"
              "print(conftest.layer_search_mismatches(cases))\n")
    assert run_under_hash_seed(4, script=script).strip() == "[]"


def _no_floor(monkeypatch):
    """Turn the big-height floor of sv_layer_search off: every start runs,
    and a cap below big height is searched."""
    monkeypatch.setattr(covers, "big_height", lambda g: 1)


def test_layer_search_enumerates_each_remaining_mask_once(monkeypatch):
    # The cliques of a remaining mask are enumerated once per search and
    # shared by every start.  With the floor off, searches capped one below
    # big height fail, so every start runs to exhaustion.
    calls = collections.Counter()
    enumerate_cliques = cons._compatible_cliques

    def counted(remaining, *args):
        calls[remaining] += 1
        return enumerate_cliques(remaining, *args)

    trees = [t for t in catalog.trees_upto(9) if len(t.vertices) == 9]
    cases = [(t, covers.big_height(t) - 1) for t in trees[::8]] + \
        [(g, None) for g in catalog.random_cacti(7, 5, 9)]
    monkeypatch.setattr(cons, "_compatible_cliques", counted)
    _no_floor(monkeypatch)
    for g, cap in cases:
        calls.clear()
        cons.sv_layer_search(g, max_layers=cap)
        assert calls and max(calls.values()) == 1, g.sorted_edges()


def _floor_cases():
    for t in catalog.trees_upto(8):
        bh = covers.big_height(t)
        for cap in (bh, bh - 1, None):
            if cap is None or cap >= 1:
                yield t, cap
    for g in catalog.random_cacti(13, 6, 9):
        yield g, None


def test_floor_changes_no_answer(monkeypatch):
    # The oracle in conftest carries the floor too, so this compares the
    # search with and without it directly.
    cases = list(_floor_cases())
    floored = [cons.sv_layer_search(g, max_layers=cap) for g, cap in cases]
    _no_floor(monkeypatch)
    for (g, cap), res in zip(cases, floored):
        unfloored = cons.sv_layer_search(g, max_layers=cap)
        assert unfloored == res, (g.sorted_edges(), cap)
        if unfloored is not None:
            # Layers >= ara >= pd >= big height.
            assert len(unfloored[0]) >= covers.cover_stats(g).big_height


def test_cap_below_big_height_builds_no_clique(monkeypatch):
    calls = []
    monkeypatch.setattr(cons, "_compatible_cliques",
                        lambda *args: calls.append(args))
    for t in catalog.trees_upto(9):
        for cap in range(1, covers.big_height(t)):
            assert cons.sv_layer_search(t, max_layers=cap) is None
    assert cons.sv_layer_search(cycle(5), max_layers=2) is None
    assert calls == []


def _recorded_starts(monkeypatch, g):
    """The (start, depth, layer count) of every _search_layers call that
    sv_layer_search(g) makes."""
    starts = []
    search = cons._search_layers

    def recorded(n, p0, depth, cliques):
        layers = search(n, p0, depth, cliques)
        starts.append((p0, depth, None if layers is None else len(layers)))
        return layers

    with monkeypatch.context() as m:
        m.setattr(cons, "_search_layers", recorded)
        res = cons.sv_layer_search(g)
    return res, starts


def test_search_stops_at_the_first_start_of_big_height(monkeypatch):
    # The floored starts are the unfloored ones up to and including the
    # first that finds a layering of big height.
    stopped_early = 0
    for g in [t for t in catalog.trees_upto(8) if len(t.vertices) >= 5] + \
            catalog.random_cacti(17, 6, 9):
        bh = covers.big_height(g)
        res, floored = _recorded_starts(monkeypatch, g)
        with monkeypatch.context() as m:
            _no_floor(m)
            res_all, unfloored = _recorded_starts(m, g)
        assert res == res_all
        hit = [k for k, (_, _, count) in enumerate(unfloored) if count == bh]
        assert floored == unfloored[:hit[0] + 1 if hit else None]
        stopped_early += len(floored) < len(unfloored)
    assert stopped_early


def test_errors_come_before_the_floor(monkeypatch):
    def unread(g):
        raise AssertionError("big height read before the argument checks")

    monkeypatch.setattr(covers, "big_height", unread)
    with pytest.raises(ConstructionError, match="no edges"):
        cons.sv_layer_search(Graph.build(isolated="z"), max_layers=0)
    with pytest.raises(ConstructionError, match="not an edge"):
        cons.gens_whisker_tree(WHISKER_P3, ("a", "c"))
    with pytest.raises(ConstructionError, match="at least 1"):
        cons.sv_layer_search(WHISKER_P3, max_layers=0)


def test_search_above_the_cover_guard_has_floor_one(monkeypatch):
    # A non-cactus above the guard has no big height, so every start runs.
    # The unfloored search took over 30 s on each non-cactus of 27-28
    # vertices tried (K_{2,25}, 7 K4s, 7 diamonds, a diamond plus 23
    # leaves), so the guard is lowered below this diamond plus two edges.
    g = parse_edge_list("a b\nb c\nc d\nd a\na c\ne f\ng h")
    floored = cons.sv_layer_search(g)
    with monkeypatch.context() as m:
        m.setattr(covers, "DEFAULT_VERTEX_LIMIT", 6)
        with pytest.raises(covers.CoverSizeError):
            covers.big_height(g)
        res, starts = _recorded_starts(m, g)
    assert len(starts) == len(g.edges)
    assert res == floored
    _check(*res)
    assert len(res[0]) == covers.big_height(g) == 5
    # 28 vertices: a forest gets its real floor from the DP at any size, so
    # the search stops at the first start of 14 layers.
    g = Graph.build(("a%d" % i, "b%d" % i) for i in range(14))
    assert len(g.vertices) > covers.DEFAULT_VERTEX_LIMIT
    assert covers.big_height(g) == 14
    gs, cert = cons.sv_layer_search(g)
    _check(gs, cert)
    assert len(gs) == 14
    assert len(_recorded_starts(monkeypatch, g)[1]) == 1


def test_build_attached_graph():
    base = parse_edge_list("a b")
    g, labels = cons.build_attached_graph(base, {"a": cons.WHISKER, "b": 3})
    assert g.degree("a") == 2  # base edge + whisker
    assert g.degree("b") == 3  # base edge + two cycle edges
    assert set(labels) == {"a", "b"}
    with pytest.raises(GraphError, match="one attachment per base vertex"):
        cons.build_attached_graph(base, {"a": cons.WHISKER})  # b uncovered


def test_gens_prop42_counts():
    base = parse_edge_list("a b\nb c")
    menu = {"a": cons.WHISKER, "b": 3, "c": 5}
    gs = _check(*cons.gens_prop42(base, menu))
    assert len(gs) == 1 + 2 + 3  # a_i = 1 (whisker), 2 (C3), 3 (C5)
    stats = covers.cover_stats(gs.graph)
    assert stats.unmixed and len(gs) == stats.height


def test_gens_prop42_rejects_an_unsupported_cycle_length():
    with pytest.raises(ConstructionError, match=r"^cycle length 6 not "
                       r"supported \(only 3, 4, 5\)$"):
        cons.gens_prop42(parse_edge_list("a b"), {"a": cons.WHISKER, "b": 6})


def test_gens_prop42_on_the_whiskered_c5_exceeds_the_search_budget():
    # ROADMAP item 13c: the whiskered C5 has no 5-layer layering, so the
    # family fails until it builds power and linear steps.
    base = cycle(5)
    with pytest.raises(SearchBudgetError, match="^no 5-layer generator set "
                       "found for the whisker graph$"):
        cons.gens_prop42(base, dict.fromkeys(base.vertices, cons.WHISKER))


def test_gens_prop42_c4_attachment():
    base = parse_edge_list("a b")
    gs = _check(*cons.gens_prop42(base, {"a": cons.WHISKER, "b": 4}))
    assert len(gs) == 1 + 3  # a_i = 1 for the whisker, 3 for the C4
    assert len(gs) == covers.big_height(gs.graph)


def test_gens_lemma53_empty_matches_lemma52():
    # (0, 2) takes the mirrored path of the 5-cycle family.
    for r, s in ((0, 0), (2, 1), (1, 0), (0, 2)):
        assert cons.gens_lemma53(r, s) == cons.gens_lemma52(r, s), (r, s)


def test_gens_lemma53_case_a():
    att = parse_edge_list("x3 e\ne f\ne ew\nf fw")
    gs = _check(*cons.gens_lemma53(1, 1, [], [att]))
    assert len(gs) == covers.big_height(gs.graph)


def test_gens_lemma53_case_b():
    # The root is joined to a whisker tip of the tree hanging from it, at x1
    # and at x3, with paths on both sides and next to a case-A attachment.
    def at(root, text):
        return parse_edge_list(text.replace("R", root))

    case_b = "R R_e\nR_e R_f\nR_f R_g\nR_g R_h"
    case_a = "R R_p\nR_p R_q\nR_p R_pw\nR_q R_qw"
    for r, s, at1, at3 in (
            (1, 0, [at("x1", case_b)], []),
            (0, 0, [], [at("x3", case_b)]),
            (1, 2, [], [at("x3", case_b)]),
            (2, 1, [at("x1", case_b)], [at("x3", case_b)]),
            (1, 1, [at("x1", case_a), at("x1", case_b.replace("R_", "Rb"))],
             [at("x3", case_b), at("x3", case_a.replace("R_", "Ra"))])):
        gs = _check(*cons.gens_lemma53(r, s, at1, at3))
        assert len(gs) == covers.big_height(gs.graph), (r, s)


def _whiskered(base, prefix=""):
    """The whisker graph of base with vertex v renamed prefix+v and its
    whisker prefix+v+"w"."""
    return Graph.build([(prefix + u, prefix + v) for u, v in base.edges] +
                       [(prefix + v, prefix + v + "w") for v in base.vertices])


def test_gens_lemma53_case_b_at_every_whisker_tip_of_small_trees():
    start = time.perf_counter()
    attachments = 0
    for base in catalog.trees_upto(7):
        tree = _whiskered(base, "x1_")
        for v in sorted(base.vertices):
            att = with_edges(tree, [("x1", "x1_%sw" % v)])
            gs = _check(*cons.gens_lemma53(0, 0, [att], []))
            assert len(gs) == covers.big_height(gs.graph), (base.edges, v)
            attachments += 1
    assert attachments == 141
    assert time.perf_counter() - start < 5


# The lemma 5.3 case-B attachment of the CLI tests: a whiskered path on
# v3-v2-v1-v0-v4-v5-v6 with x1 joined to the whisker tip of v3.  Its big
# height is 8, and gens_lemma53 reaches it without search.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the dead set of "
                   "_search_layers prunes a mask that failed at a smaller "
                   "depth; keyed by depth, the search finds 8 layers")
def test_sv_layer_search_reaches_the_big_height_of_a_case_b_attachment():
    base = parse_edge_list("v3 v2\nv2 v1\nv1 v0\nv0 v4\nv4 v5\nv5 v6")
    att = with_edges(_whiskered(base, "x1_"), [("x1", "x1_v3w")])
    assert covers.big_height(att) == 8
    assert cons.sv_layer_search(att, max_layers=8) is not None


def test_gens_lemma53_case_b_does_not_depend_on_the_hash_seed(tmp_path):
    base = parse_edge_list("v0 v1\nv0 v3\nv1 v2")
    f = tmp_path / "att.txt"
    f.write_text("".join("%s %s\n" % e for e in
                         with_edges(_whiskered(base), [("x1", "v1w")]).edges))
    outs = {run_under_hash_seed(seed, "gens", "--family", "lemma53",
                                "--attach-x1", str(f)) for seed in range(5)}
    assert len(outs) == 1


def test_gens_lemma53_rejects_bad_attachment():
    att = parse_edge_list("x3 e\ne f\ne g\nf fw\ng gw")  # e has no whisker
    with pytest.raises(ConstructionError):
        cons.gens_lemma53(0, 0, [], [att])
    with pytest.raises(ConstructionError):
        cons.gens_lemma53(0, 0, [parse_edge_list("a b")], [])  # no root
    with pytest.raises(ConstructionError, match="nonnegative"):
        cons.gens_lemma53(-1, 0)


def test_gens_lemma53_rejects_a_root_with_two_neighbours():
    att = parse_edge_list("x1 e\nx1 f\ne ew\nf fw")
    with pytest.raises(ConstructionError, match="^root must have exactly one "
                       "neighbour in the attachment$"):
        cons.gens_lemma53(0, 0, [att])


def test_gens_lemma53_rejects_overlapping_attachments():
    # With an overlap the generators would outnumber the big height.
    att = parse_edge_list("x1 e\ne f\ne ew\nf fw")
    uses_a1 = parse_edge_list("x1 a1\na1 b1\na1 a1w\nb1 b1w")
    same_at_x3 = parse_edge_list("x3 e\ne f\ne ew\nf fw")
    shares_x2 = parse_edge_list("x3 e\ne f\ne x2\nf fw")
    for r, at1, at3 in ((0, [att, att], []), (1, [uses_a1], []),
                        (0, [att], [same_at_x3]), (0, [], [shares_x2])):
        with pytest.raises(ConstructionError, match="labels collide"):
            cons.gens_lemma53(r, 0, at1, at3)


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


def test_gens_lemma54_input_checks():
    h1 = parse_edge_list("x1 y1")
    with pytest.raises(ConstructionError, match="^attachment at 'x2' must be "
                       "a non-empty graph containing it$"):
        cons.gens_lemma54(h1, parse_edge_list("x2"))
    with pytest.raises(ConstructionError,
                       match="^attached trees must be vertex-disjoint$"):
        cons.gens_lemma54(h1, parse_edge_list("x2 y1"))
    with pytest.raises(ConstructionError,
                       match="^x3/x4 cannot appear in the attachments$"):
        cons.gens_lemma54(h1, parse_edge_list("x2 x3"))


def test_each_whisker_tree_hypothesis_is_checked_once(monkeypatch):
    # Checked where the input enters: once per lemma53 attachment, once for
    # lemma54's G - {x3, x4} and once for a raw whisker tree; the emitter
    # checks nothing again.
    calls = []
    real = cons.is_whisker_tree

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(cons, "is_whisker_tree", counted)

    def at(root, text):
        return parse_edge_list(text.replace("R", root))

    case_a = "R R_p\nR_p R_q\nR_p R_pw\nR_q R_qw"
    case_b = "R R_e\nR_e R_f\nR_f R_g\nR_g R_h"
    b1, a3, b3 = (at("x1", case_b), at("x3", case_a),
                  at("x3", case_b.replace("R_", "Rb")))
    for at1, at3 in (([], []), ([at("x1", case_a)], []), ([b1], [a3, b3])):
        calls.clear()
        _check(*cons.gens_lemma53(1, 1, at1, at3))
        assert len(calls) == len(at1) + len(at3)
    for h1, h2, tree in (("x1 y1\nx1 z\nz zw\nz u\nu uw",
                          "x2 y2\nx2 w\nw ww\nw t\nt tw", True),
                         ("x1 y1", "x2 y2", True),
                         ("x1 y1\nx1 z", "x2 y2", False)):
        calls.clear()
        if tree:
            _check(*cons.gens_lemma54(parse_edge_list(h1),
                                      parse_edge_list(h2)))
        else:
            with pytest.raises(ConstructionError, match="hypothesis fails"):
                cons.gens_lemma54(parse_edge_list(h1), parse_edge_list(h2))
        assert calls == [parse_edge_list("%s\nx1 x2\n%s" % (h1, h2))]
    calls.clear()
    _check(*cons.gens_whisker_tree(WHISKER_P3, ("a", "b")))
    assert calls == [WHISKER_P3]


def test_all_verified_sets_meet_krull_bound(certificate_corpus):
    for name, gs, cert in certificate_corpus:
        assert len(gs) >= covers.big_height(gs.graph), name


# Every family through one fixed corpus, hashed under PYTHONHASHSEED=0.  The
# digest pins the certificate bytes: a change to the order of generators or
# steps, or to any ref, changes it.  The benchmark's recorded references pin
# the lemma52 and prop42 bytes too, so a change to those re-records both
# together or neither; the other entries may be re-recorded alone.
_GUARD_SCRIPT = r"""
import hashlib, json
from edgeideals import constructions as cons
from edgeideals.certificates import certified_set_to_data
from edgeideals.graphs import parse_edge_list as g

results = [cons.gens_lemma52(r, s)
           for r, s in ((0, 0), (2, 0), (0, 2), (2, 1))]
results += [
    cons.gens_lemma53(1, 0, [g("x1 e\ne f\ne ew\nf fw\nf h\nh hw")], []),
    cons.gens_lemma53(0, 1, [], [g("x3 e\ne f\ne ew\nf fw")]),
    cons.gens_lemma53(1, 1, [g("x1 e\ne f\nf k\nk m")], []),
    cons.gens_lemma54(g("x1 y1\nx1 z\nz zw\nz u\nu uw"),
                      g("x2 y2\nx2 w\nw ww\nw t\nt tw")),
    cons.gens_prop42(g("a b\nb c\nc d\nb d"),
                     {"a": cons.WHISKER, "b": 3, "c": 4, "d": 5}),
    cons.gens_whisker_tree(g("a b\nb c\nc d\na aw\nb bw\nc cw\nd dw"),
                           ("b", "c")),
]
text = json.dumps([certified_set_to_data(*res) for res in results],
                  sort_keys=True)
print(hashlib.sha256(text.encode()).hexdigest())
"""


def test_certificates_match_the_recorded_digest():
    out = run_under_hash_seed(0, script=_GUARD_SCRIPT)
    assert out.strip() == (
        "797011f7f2fabd4ac0e763df47e94c3b3b48eb5bf2e293c0728e5dd4060dceb2")
