"""Cohen-Macaulay / STCI classification: the unicyclic five-case theorem,
the two corollary equivalences, and the dispatcher."""

import hashlib
import itertools
import json
import random

import pytest

from edgeideals import classify, constructions, covers, graphs
from edgeideals.certificates import verify_certificate
from edgeideals.classify import CM, NOT_CM, UNKNOWN, HypothesisError
from edgeideals.constructions import ConstructionError
from edgeideals.graphs import Graph, GraphError, parse_edge_list

import catalog
from conftest import (BOWTIE, TRIANGLE, TRI_2W, WHISKER_P3,
                      brute_force_minimal_covers, case5_split_oracle, cycle,
                      path_graph, relabel, run_under_hash_seed,
                      simplex_oracle, with_edges)


def test_is_whisker_tree():
    assert graphs.is_whisker_tree(WHISKER_P3) is True
    assert graphs.is_whisker_tree(Graph.build([("a", "b")])) is False
    # P4 is the whisker tree over a single edge; P5 is not a whisker tree
    # (its middle vertex has no pendant neighbour).
    assert graphs.is_whisker_tree(path_graph(4))
    assert not graphs.is_whisker_tree(path_graph(5))
    assert not graphs.is_whisker_tree(TRIANGLE)
    # Two whiskers on one base vertex disqualify.
    g = parse_edge_list("a b\na u\na v\nb bw")
    assert not graphs.is_whisker_tree(g)


def test_simplex_partition():
    ok, part = classify.simplex_partition_check(WHISKER_P3)
    assert ok and len(part) == 3
    ok, _ = classify.simplex_partition_check(path_graph(5))
    assert not ok
    ok, part = classify.simplex_partition_check(TRIANGLE)
    assert ok and part == [frozenset({"a", "b", "c"})]


def test_simplex_partition_enumerates_no_cliques(monkeypatch):
    chordal = [g for g in catalog.connected_graphs_upto(7)
               if graphs.is_chordal(g)]

    def refuse(*args):
        raise AssertionError("the simplex partition enumerated cliques")

    monkeypatch.setattr(graphs, "bron_kerbosch", refuse)
    answers = set()
    for g in chordal:
        simplexes = simplex_oracle(g)
        assert graphs.simplexes(g) == simplexes
        ok, partition = classify.simplex_partition_check(g)
        assert ok == all(sum(v in s for s in simplexes) == 1
                         for v in g.vertices)
        assert partition == (sorted(simplexes, key=sorted) if ok else None)
        # Cor 4.4: on a chordal graph the partition holds iff g is unmixed
        sizes = {len(c) for c in brute_force_minimal_covers(g)}
        assert ok == (len(sizes) == 1)
        answers.add(ok)
    assert answers == {True, False}


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
    g = with_edges(TRIANGLE, [("a", "aw"), ("b", "bw"), ("c", "cw")])
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


def test_case5_and_lemma54_state_one_hypothesis():
    # C4 x1 x2 x3 x4 with a rooted tree of 2-6 vertices hung at x1 and
    # another at x2, over all 64 x 64 pairs: Thm 5.1 case 5 matches as the
    # label-level oracle does, exactly when Lemma 5.4 certifies the graph
    # with height-many generators, and Lemma 5.4 refuses the rest.
    rooted = [(t, r) for t in catalog.trees_upto(6) for r in t.vertices]

    def hang(t, root, x):
        return relabel(t, {v: x if v == root else "%s_%s" % (x, v)
                           for v in t.vertices})

    c4 = graphs.cycle_graph(("x1", "x2", "x3", "x4"))
    matched = 0
    for (t1, r1), (t2, r2) in itertools.product(rooted, repeat=2):
        h1, h2 = hang(t1, r1, "x1"), hang(t2, r2, "x2")
        g = c4.union(h1).union(h2)
        verdict = classify.classify_unicyclic(g)
        expected = case5_split_oracle(g, graphs.cycles(g)[0])
        if expected is None:
            assert (verdict.status, verdict.case_tag) == (NOT_CM, "Thm 5.1")
            with pytest.raises(ConstructionError, match="hypothesis fails"):
                constructions.gens_lemma54(h1, h2)
            continue
        assert (verdict.case_tag, verdict.evidence) == ("Thm 5.1 case 5",
                                                        expected)
        assert {expected["x1"], expected["x2"]} == {"x1", "x2"}
        gs, cert = constructions.gens_lemma54(h1, h2)
        assert verify_certificate(gs, cert).ok
        assert len(gs) == covers.height(g)
        # Named as Lemma 5.4 names the cycle, x4 next to x1 and x3 next to
        # x2, the evidence's h1 and h2 rebuild the relabelled graph.
        x1, x2 = expected["x1"], expected["x2"]
        (x3,), (x4,) = c4.neighbors(x2) - {x1}, c4.neighbors(x1) - {x2}
        names = {x1: "x1", x2: "x2", x3: "x3", x4: "x4"}
        mapping = {v: names.get(v, v) for v in g.vertices}
        gs, cert = constructions.gens_lemma54(relabel(expected["h1"], mapping),
                                              relabel(expected["h2"], mapping))
        assert gs.graph == relabel(g, mapping)
        assert verify_certificate(gs, cert).ok
        matched += 1
    assert matched == 49


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
    whiskered_c6 = with_edges(cycle(6),
                              (("c%d" % i, "w%d" % i) for i in range(6)))
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


def _twins(g, root, kind):
    """Graphs that miss Prop 4.2's shape by one attachment or component:
    two more whiskers on a root, a whisker beside a root's cycle (or a
    triangle beside its whisker), an isolated vertex and a K2 component."""
    other = (with_edges(g, [(root, root + "_t1"), (root + "_t1", root + "_t2"),
                            (root + "_t2", root)]) if kind == graphs.WHISKER
             else with_edges(g, [(root, root + "_x")]))
    return [with_edges(g, [(root, root + "_x"), (root, root + "_y")]), other,
            Graph.build(g.edges, g.vertices + ("zz",)),
            with_edges(g, [("zz_a", "zz_b")])]


def test_prop42_tail_round_trip():
    # Every base with an edge gets seeded attachments; the tail reads back
    # exactly (base, attachments) when Prop 4.2 covers the built graph.
    rng = random.Random(42)
    kinds = (graphs.WHISKER, 3, 4, 5, 6)
    found = 0
    for base in [b for b in catalog.connected_graphs_upto(5) if b.edges]:
        for _ in range(8):
            attachments = {v: rng.choice(kinds) for v in base.vertices}
            g, _ = graphs.build_attached_graph(base, attachments)
            expected = None
            if graphs.is_cactus(g) and all(k in (graphs.WHISKER, 3, 5)
                                           for k in attachments.values()):
                expected = (base, attachments)
                found += 1
            assert classify._prop42_tail(g) == expected
            root = rng.choice(base.vertices)
            for twin in _twins(g, root, attachments[root]):
                assert classify._prop42_tail(twin) is None
    assert found > 15


# the base a b / b c / c d / d a / d e, a triangle at c, whiskers elsewhere
_TAIL_GRAPH = ("a b\nb c\nc d\nd a\nd e\nc c2\nc2 c3\nc3 c\n"
               "a aw\nb bw\nd dw\ne ew\n")


def test_prop42_tail_does_not_depend_on_the_hash_seed():
    script = ("import json, sys\n"
              "from edgeideals import classify, graphs\n"
              "g = graphs.parse_edge_list(sys.argv[1])\n"
              "v = classify.stci_verdict(g)\n"
              "roots = list(v.evidence['attachments'])\n"
              "print(json.dumps([v.case_tag, roots]))")
    for seed in (0, 1):
        out = run_under_hash_seed(seed, _TAIL_GRAPH, script=script)
        assert json.loads(out) == ["Prop 4.2 tail",
                                   ["a", "b", "c", "d", "e"]]


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


# The two corollaries and the dispatcher over every connected graph of at
# most 7 vertices, the girth-6 family and seeded random graphs and cacti.
# The digest pins verdicts, evidence and exception messages: a change to the
# short-cycle screen or to any case matcher that moves one of them moves it.


def _canonical(value):
    if isinstance(value, Graph):
        return [list(e) for e in value.sorted_edges()]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _outcome(result, g):
    try:
        v = result(g)
    except GraphError as exc:
        return [type(exc).__name__, str(exc)]
    return [v.status, v.stci, v.case_tag, _canonical(v.evidence)]


def _random_graph(rng):
    n = rng.randint(4, 12)
    p = rng.choice((0.15, 0.25, 0.4))
    labels = ["v%d" % i for i in range(n)]
    return Graph.build([(u, w) for i, u in enumerate(labels)
                        for w in labels[i + 1:] if rng.random() < p],
                       isolated=labels)


def test_classification_matches_the_recorded_digest():
    rng = random.Random(15)
    corpus = [*catalog.connected_graphs_upto(7),
              *catalog.girth_at_least_6_upto(8),
              *catalog.random_cacti(15, 60, 12),
              *(_random_graph(rng) for _ in range(286))]
    results = [[_outcome(fn, g) for fn in (classify.corollary44,
                                           classify.corollary61,
                                           classify.stci_verdict)]
               for g in corpus]
    text = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3045b9ee18811fc3493ab046cf8968cf1e1fa2b520d808a16a9600bb55247dc5")


def _digest_corpus():
    """The corpus of the recorded digest above."""
    rng = random.Random(15)
    return [*catalog.connected_graphs_upto(7),
            *catalog.girth_at_least_6_upto(8),
            *catalog.random_cacti(15, 60, 12),
            *(_random_graph(rng) for _ in range(286))]


def test_auto_dispatch_never_needs_cor61():
    # Girth at least 6 leaves no C4 or C5 subgraph, so Cor 4.4's hypothesis
    # holds wherever Cor 6.1's does, and Cor 4.4 answers first unless the
    # graph is unicyclic.  All three give one status and one STCI answer.
    answered = 0
    for g in _digest_corpus():
        auto = _outcome(classify.stci_verdict, g)
        assert auto[2:3] != ["Cor 6.1"]
        cor61 = _outcome(classify.corollary61, g)
        if len(cor61) == 4:
            answered += 1
            cor44 = _outcome(classify.corollary44, g)
            assert auto[:2] == cor44[:2] == cor61[:2]
            if not auto[2].startswith("Thm 5.1"):
                assert auto == cor44
    assert answered
