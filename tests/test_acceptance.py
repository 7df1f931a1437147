"""Acceptance criteria.

One test per criterion; each prints a single PASS/FAIL line (visible with
`pytest -v -s`, and mirrored by the per-test PASSED/FAILED verdict lines of
`pytest -v`).  All thresholds are exact unless stated otherwise.
"""

import itertools
import random

from edgeideals import (bounds, classify, constructions as cons, covers,
                        graphs, homology)
from edgeideals.certificates import (certified_set_from_data,
                                     certified_set_to_data,
                                     verify_certificate)
from edgeideals.graphs import parse_edge_list

import catalog
from conftest import TRI_2W, bump_coefficient, coefficient_paths, cycle


def _report(criterion, ok, detail=""):
    line = "ACCEPTANCE %-2s %s%s" % (criterion, "PASS" if ok else "FAIL",
                                     " -- " + detail if detail else "")
    print(line)
    assert ok, line


def test_criterion_01_lemma52_family():
    """gens_lemma52 emits r+s+3 verified polynomials with hgt = bight."""
    failures = []
    for r in range(5):
        for s in range(5 - r):
            gs, cert = cons.gens_lemma52(r, s)
            stats = covers.cover_stats(gs.graph)
            if not (verify_certificate(gs, cert).ok
                    and len(gs) == r + s + 3
                    and stats.height == stats.big_height == r + s + 3):
                failures.append((r, s))
    _report(1, not failures, "lemma 5.2 grid r+s<=4, failures=%s" % failures)


def test_criterion_02_cycle_constructions():
    counts = {}
    ok = True
    for ell, want in ((3, 2), (4, 3), (5, 3)):
        gs, cert = cons.gens_cycle(ell)
        counts[ell] = len(gs)
        ok &= verify_certificate(gs, cert).ok and len(gs) == want
    bights = {ell: covers.big_height(cycle(ell)) for ell in (3, 4, 5)}
    ok &= bights == {3: 2, 4: 2, 5: 3}
    ok &= counts[3] == bights[3] and counts[5] == bights[5]
    ok &= counts[4] == bights[4] + 1  # length 4 = 1 mod 3
    _report(2, ok, "counts=%s bights=%s" % (counts, bights))


def test_criterion_03_theorem34_random_cacti():
    bad = 0
    for g in catalog.random_cacti(seed=2024, count=200, max_vertices=12):
        trace = bounds.theorem34_trace(g)  # raises on any per-node failure
        report = bounds.theorem34_bound(g)
        ok = trace.bound == report.bound == \
            report.big_height + report.n_cycles
        hgt, bight = covers.height(g), covers.big_height(g)
        ok &= hgt <= bight <= report.bound
        if len(g.vertices) <= 10:
            pd, _ = homology.projective_dimension(g)
            ok &= bight <= pd <= report.bound
        bad += not ok
    _report(3, bad == 0, "200 random cacti, failures=%d" % bad)


def test_criterion_04_corollary41():
    r1 = bounds.corollary41_bound(TRI_2W)
    ok = r1.improvement_k == 1 and r1.bound == 3 == r1.big_height
    r2 = bounds.corollary41_bound(cycle(6))
    pd, _ = homology.projective_dimension(cycle(6))
    ok &= r2.improvement_k == 1 and r2.bound == r2.big_height == pd
    _report(4, ok, "tri+2w bound=%d k=%d; C6 bound=%d pd=%d"
            % (r1.bound, r1.improvement_k, r2.bound, pd))


def test_criterion_05_proposition42():
    bases = {
        "edge": parse_edge_list("a b"),
        "P3": parse_edge_list("a b\nb c"),
        "K3": parse_edge_list("a b\nb c\nc a"),
    }
    weights = {cons.WHISKER: 1, 3: 2, 5: 3}
    failures = []
    for name, base in bases.items():
        for menu in itertools.product([cons.WHISKER, 3, 5],
                                      repeat=len(base.vertices)):
            attachments = dict(zip(base.vertices, menu))
            gs, cert = cons.gens_prop42(base, attachments)
            stats = covers.cover_stats(gs.graph)
            if not (stats.height == stats.big_height
                    and verify_certificate(gs, cert).ok
                    and len(gs) == sum(weights[a] for a in menu)):
                failures.append((name, menu))
    # One C4 attachment: bound = bight + 1 and pd <= bound.
    base = bases["edge"]
    report, g = bounds.proposition42_bound(base, {"a": cons.WHISKER, "b": 4})
    pd, _ = homology.projective_dimension(g)
    ok = (not failures and report.bound == report.big_height + 1
          and pd <= report.bound)
    _report(5, ok, "63 menus, failures=%s; C4 case bound=%d pd=%d"
            % (failures, report.bound, pd))


def test_criterion_06_corollary44_chordal():
    checked = 0
    exceptions = []
    for g in catalog.connected_graphs_upto(7):
        if not g.edges:
            continue
        if not graphs.is_chordal(g):
            continue
        checked += 1
        pure = covers.cover_stats(g).unmixed
        part, _ = classify.simplex_partition_check(g)
        if pure != part:
            exceptions.append(g.sorted_edges())
    _report(6, checked > 0 and not exceptions,
            "%d connected chordal graphs <= 7 vertices, exceptions=%d"
            % (checked, len(exceptions)))


def test_criterion_07_theorem51_unicyclic():
    exceptions = []
    for g in catalog.unicyclic_upto(8):
        verdict = classify.classify_unicyclic(g)
        pd, _ = homology.projective_dimension(g)
        if (verdict.status == classify.CM) != (pd == covers.height(g)):
            exceptions.append(g.sorted_edges())
    named_ok = (
        classify.classify_unicyclic(cycle(4)).status == classify.NOT_CM
        and classify.classify_unicyclic(cycle(7)).status == classify.NOT_CM
        and classify.classify_unicyclic(cycle(3)).case_tag
        == "Thm 5.1 case 1"
        and classify.classify_unicyclic(cycle(5)).case_tag
        == "Thm 5.1 case 1")
    _report(7, not exceptions and named_ok,
            "143 unicyclic graphs <= 8 vertices, exceptions=%d"
            % len(exceptions))


def test_criterion_08_corollary61_girth6():
    checked = 0
    exceptions = []
    for g in catalog.girth_at_least_6_upto(8):
        try:
            verdict = classify.corollary61(g)
        except classify.HypothesisError:
            continue  # single edge / C7, excluded by the statement
        checked += 1
        pure = covers.cover_stats(g).unmixed
        whisker, _ = graphs.is_whisker_graph(g)
        if pure != whisker or (verdict.status == classify.CM) != pure:
            exceptions.append(g.sorted_edges())
    _report(8, checked > 0 and not exceptions,
            "%d girth>=6 graphs <= 8 vertices, exceptions=%d"
            % (checked, len(exceptions)))


def test_criterion_09_certificate_soundness(certificate_corpus):
    rng = random.Random(99)
    pool = []
    for name, gs, cert in certificate_corpus:
        data = certified_set_to_data(gs, cert)
        pool.extend((name, data, path)
                    for path in coefficient_paths(data))
    survived = []
    for _ in range(1000):
        name, data, path = rng.choice(pool)
        tampered = certified_set_from_data(bump_coefficient(data, path))
        if verify_certificate(*tampered).ok:
            survived.append((name, path))
    krull_bad = [name for name, gs, cert in certificate_corpus
                 if not (verify_certificate(gs, cert).ok
                         and len(gs) >= covers.big_height(gs.graph))]
    _report(9, not survived and not krull_bad,
            "1000 tamperings, survivors=%d; count>=bight violations=%s"
            % (len(survived), krull_bad))


def test_criterion_10_forest_check():
    trees = catalog.trees_upto(9)
    pd_bad = []
    hits = 0
    for t in trees:
        bight = covers.big_height(t)
        pd, _ = homology.projective_dimension(t)
        if pd != bight:
            pd_bad.append(t.sorted_edges())
        if cons.sv_layer_search(t, max_layers=bight) is not None:
            hits += 1
    rate = hits / len(trees)
    _report(10, not pd_bad and rate >= 0.95,
            "%d trees <= 9 vertices, pd=bight failures=%d, "
            "search success rate=%.3f" % (len(trees), len(pd_bad), rate))


def test_criterion_11_bound_is_sharp():
    """pd = bight + n on cycles of length 1 mod 3 and their disjoint unions,
    so pd <= ara <= bight + n pins ara at the Thm 3.4 bound: the bound is
    sharp."""
    cases = {"C%d" % k: cycle(k) for k in (4, 7, 10, 13)}
    cases["3xC4"] = cycle(4, "a").union(cycle(4, "b")).union(cycle(4, "c"))
    cases["C4+C7"] = cycle(4, "a").union(cycle(7, "b"))
    cases["C4+C10"] = cycle(4, "a").union(cycle(10, "b"))
    # past the Hochster guard of 14 vertices, by the cactus DP
    cases.update(("C%d" % k, cycle(k)) for k in (16, 19, 22))
    cases["C4+C13"] = cycle(4, "a").union(cycle(13, "b"))
    cases["5xC4"] = cycle(4, "a")
    for prefix in "bcde":
        cases["5xC4"] = cases["5xC4"].union(cycle(4, prefix))
    pds = {name: homology.projective_dimension(g)[0]
           for name, g in cases.items()}
    misses = [name for name, g in cases.items()
              if pds[name] != bounds.theorem34_bound(g).bound]
    ok = not misses and pds == {"C4": 3, "C7": 5, "C10": 7, "C13": 9,
                                "3xC4": 9, "C4+C7": 8, "C4+C10": 10,
                                "C16": 11, "C19": 13, "C22": 15,
                                "C4+C13": 12, "5xC4": 15}
    _report(11, ok, "pd=%s, pd != bight + n on %s" % (pds, misses))
