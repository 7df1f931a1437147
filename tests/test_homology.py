"""Hochster-formula projective-dimension oracle, checked against textbook
homology ranks, the height/big-height inequality chain, and an independent
test-local Hochster oracle."""

import itertools
import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideals import covers, graphs, homology
from edgeideals.graphs import Graph, parse_edge_list

import catalog
from conftest import (BOWTIE, TRIANGLE, TRI_2W, WHISKER_P3, cycle,
                      maximal_independent_sets, path_graph,
                      run_under_hash_seed, with_edges)


def faces_by_cardinality(g):
    """The faces of Ind(g) as bitmask levels, as projective_dimension lists
    them for W = V (bit i is g.vertices[i])."""
    return homology._independent_faces(g.masks, (1 << len(g.vertices)) - 1)


def ranks_by_subset(g):
    """homology's ranks table for g, keyed by vertex tuples W (in the order
    of g.vertices) instead of bitmasks, each read through its entry index."""
    n = len(g.vertices)
    table, entries = homology._ranks_table(g.masks, n)
    assert len(table) == 1 << n
    return {tuple(v for i, v in enumerate(g.vertices) if w >> i & 1):
            entries[e] for w, e in enumerate(table)}


def test_independence_complex_of_path():
    # P3 a-b-c: maximal independent sets {a, c} and {b}.
    assert set(maximal_independent_sets(path_graph(3))) == {
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
    # K4 plus six disjoint edges: 16 vertices, not a cactus, so only the
    # Hochster table can answer, and it is guarded.
    big = with_edges(Graph.build(("u%d" % i, "v%d" % i) for i in range(6)),
                     itertools.combinations("abcd", 2))
    with pytest.raises(homology.SizeGuardError,
                       match=r"^16 non-isolated vertices exceeds the oracle "
                             r"guard \(14\)$"):
        homology.projective_dimension(big)


def test_matching_past_the_guard():
    # Eight disjoint edges are a forest: the cactus DP answers past the
    # guard.  I(8 K2) is a complete intersection of 8 quadrics.
    g = Graph.build(("u%d" % i, "v%d" % i) for i in range(8))
    pd, table = homology.projective_dimension(g)
    assert pd == 8 == covers.big_height(g)
    assert table.entries == {(c, 2 * c): math.comb(8, c)
                             for c in range(1, 9)}


def test_pd_at_the_guard_edge():
    # A 14-vertex tree (a heap-shaped binary tree): exactly MAX_VERTICES
    # non-isolated vertices, and pd = big height on trees.
    g = Graph.build(("t%d" % i, "t%d" % ((i - 1) // 2)) for i in range(1, 14))
    assert len(g.non_isolated) == homology.MAX_VERTICES
    pd, table = homology.projective_dimension(g)
    assert pd == covers.big_height(g)
    assert table.entries == homology._table_betti(g)


def test_pd_at_the_guard_edge_with_a_cycle():
    # The whisker graph of C7: 14 vertices, Cohen-Macaulay (every whisker
    # graph is), so pd = height = 7.
    g = with_edges(cycle(7), (("c%d" % i, "w%d" % i) for i in range(7)))
    assert len(g.non_isolated) == homology.MAX_VERTICES
    assert covers.height(g) == 7
    pd, table = homology.projective_dimension(g)
    assert pd == 7 and table.entries == homology._table_betti(g)


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


# -- the K-polynomial, an oracle of the whole table ---------------------
#
# For R/I(G) on n vertices, sum_{i,j} (-1)^i beta_{i,j} t^j equals
# sum_k f_k t^k (1 - t)^(n - k), where f_k counts the independent sets of k
# vertices: both are the numerator of the Hilbert series of the
# Stanley-Reisner ring of Ind(G).  It reads neither Hochster's formula nor
# a fold rule, holds over every field and at any size, and an isolated
# vertex changes neither side.  Every table this module computes, on either
# path, is checked against it.


def independence_polynomial(masks):
    """[f_0, f_1, ...] of the graph with neighbourhood masks `masks`: one
    component at a time, each by branching on a vertex of most neighbours
    in it (f(C) = f(C - v) + t f(C - N[v])), memoised by component mask."""
    memo = {}

    def connected(c):
        if c not in memo:
            v = max(graphs._bits(c), key=lambda u: (masks[u] & c).bit_count())
            out, inner = of(c & ~(1 << v)), of(c & ~masks[v] & ~(1 << v))
            out += [0] * (len(inner) + 1 - len(out))
            for k, f in enumerate(inner):
                out[k + 1] += f
            memo[c] = out
        return memo[c]

    def of(w):
        out = [1]
        for c in graphs._components(masks, w):
            fc = connected(c)
            prod = [0] * (len(out) + len(fc) - 1)
            for i, a in enumerate(out):
                for j, b in enumerate(fc):
                    prod[i + j] += a * b
            out = prod
        return out

    return of((1 << len(masks)) - 1)


def assert_k_polynomial(masks, entries):
    """The Betti entries {(i, j): rank} of R/I(G), beta_{0,0} = 1 added,
    meet the independence polynomial of G in the identity above."""
    n = len(masks)
    lhs = [1] + [0] * n
    for (i, j), r in entries.items():
        lhs[j] += (-1) ** i * r
    f = independence_polynomial(masks)
    rhs = [sum((-1) ** (j - k) * math.comb(n - k, j - k) * f[k]
               for k in range(min(j, len(f) - 1) + 1)) for j in range(n + 1)]
    assert lhs == rhs, entries


@pytest.fixture(autouse=True, scope="module")
def _every_table_meets_the_k_polynomial():
    cactus_betti, table_betti = homology._cactus_betti, homology._table_betti

    def checked_cactus_betti(masks):
        betti = cactus_betti(masks)
        if betti is not None:
            assert_k_polynomial(masks, betti)
        return betti

    def checked_table_betti(g):
        betti = table_betti(g)
        assert_k_polynomial(g.masks, betti)
        return betti

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_cactus_betti", checked_cactus_betti)
        mp.setattr(homology, "_table_betti", checked_table_betti)
        yield


def test_independence_polynomial_by_brute_force():
    for g in (TRIANGLE, BOWTIE, WHISKER_P3, cycle(6), rp2_complement(),
              Graph.build(isolated="ab")):
        f = independence_polynomial(g.masks)
        want = [sum(1 for s in itertools.combinations(g.vertices, k)
                    if not any(g.adj[v] & set(s) for v in s))
                for k in range(len(g.vertices) + 1)]
        assert f + [0] * (len(want) - len(f)) == want


def test_k_polynomial_on_larger_cacti():
    # Past the Hochster guard nothing else checks the DP's whole table.
    for g in seeded_cacti(50, 12, (30, 80)):
        assert_k_polynomial(g.masks, homology._cactus_betti(g.masks))


def test_k_polynomial_catches_a_wrong_entry():
    entries = dict(homology.projective_dimension(BOWTIE)[1].entries)
    entries[(1, 2)] += 1
    with pytest.raises(AssertionError):
        assert_k_polynomial(BOWTIE.masks, entries)


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
    # The cone case of the fold: an isolated vertex of G[W] leaves no homology.
    active = g.non_isolated
    for k in range(1, len(active) + 1):
        for w in itertools.combinations(active, k):
            if any(not g.adj[v] & set(w) for v in w):
                assert oracle_reduced_ranks(g, w) == {}


# -- fold, split and the ranks table ------------------------------------


@pytest.mark.parametrize("n", [1, homology.MAX_VERTICES])
def test_member_sets(n):
    members, sizes = homology._members(n)
    assert len(members) == n
    for i, m in enumerate(members):
        assert m == int("".join("01"[w >> i & 1]
                                for w in reversed(range(1 << n))), 2)
    assert len(sizes) == n + 1
    for s, m in enumerate(sizes):
        assert m == int("".join("01"[bin(w).count("1") == s]
                                for w in reversed(range(1 << n))), 2)


def random_screen_masks(rng, n):
    """Neighbourhood masks of a random graph on n vertex bits, of a random
    density, with some vertices then made twins of others or isolated."""
    density = rng.choice((0.15, 0.4, 0.7, 0.95))
    pairs = {(i, j) for i, j in itertools.combinations(range(n), 2)
             if rng.random() < density}
    for _ in range(rng.randint(0, 2) if n > 1 else 0):
        a, b = rng.sample(range(n), 2)   # b becomes a twin of a
        pairs = {e for e in pairs if b not in e}
        pairs |= {tuple(sorted((b, x))) for e in pairs if a in e
                  for x in e if x != a}
        if rng.random() < 0.5:
            pairs.add(tuple(sorted((a, b))))
    for c in rng.sample(range(n), rng.randint(0, n // 4)):
        pairs = {e for e in pairs if c not in e}
    masks = [0] * n
    for i, j in pairs:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


@pytest.mark.parametrize("seed", range(40))
def test_screen_matches_each_subset(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    masks = random_screen_masks(rng, n)
    codes = homology._screen(masks, n)
    assert len(codes) == 1 << n
    for w in range(1 << n):
        inside = [i for i in range(n) if w >> i & 1]
        hood = {i: masks[i] & w for i in inside}
        cone = any(not hood[i] for i in inside)
        assert (codes[w] == homology._CONE) == cone, (masks, w)
        if cone:
            continue
        folds = {v for v in inside for u in inside
                 if u != v and not hood[u] & ~hood[v]}
        one_each = all(bin(hood[i]).count("1") == 1 for i in inside)
        assert (codes[w] == homology._MATCHING) == one_each, (masks, w)
        if codes[w] in (homology._SPLIT, homology._MATCHING):
            assert not folds, (masks, w)
        else:
            assert codes[w] - 1 in folds, (masks, w)


def assert_ranks_table_matches_oracle(g):
    for w, ranks in ranks_by_subset(g).items():
        assert ranks == oracle_reduced_ranks(g, w), (sorted(g.edges), w)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_folded_split_ranks_match_oracle(g):
    assert_ranks_table_matches_oracle(g)


@pytest.mark.parametrize("family", [
    lambda: catalog.trees_upto(9),
    lambda: catalog.unicyclic_upto(8),
    lambda: catalog.random_cacti(seed=2027, count=40, max_vertices=9),
], ids=["trees-9", "unicyclic-8", "cacti-9"])
def test_folded_split_ranks_match_oracle_on_catalog(family):
    for g in family():
        assert_ranks_table_matches_oracle(g)


@pytest.mark.parametrize("k, ranks", [(2, {1: 1}), (3, {2: 1})])
def test_matching_complex_is_a_sphere(k, ranks):
    # Ind(K2) is two points, S^0; Ind(kK2) is the join of k copies, S^(k-1).
    g = Graph.build(("a%d" % i, "b%d" % i) for i in range(k))
    assert ranks_by_subset(g)[g.vertices] == ranks
    assert oracle_reduced_ranks(g, g.vertices) == ranks
    # I(kK2) is a complete intersection of k quadrics.
    pd, table = homology.projective_dimension(g)
    assert pd == k and table.entries[(k, 2 * k)] == 1


def induced_matchings(g, c):
    """The number of sets of c edges of g that are induced matchings: 2c
    distinct vertices spanning no edge of g but those c."""
    count = 0
    for m in itertools.combinations(g.edges, c):
        spanned = set().union(*m)
        count += len(spanned) == 2 * c and sum(
            1 for e in g.edges if spanned.issuperset(e)) == c
    return count


@pytest.mark.parametrize("family", [
    lambda: catalog.trees_upto(8),
    lambda: catalog.unicyclic_upto(7),
    lambda: catalog.random_cacti(seed=5, count=40, max_vertices=11),
], ids=["trees-8", "unicyclic-7", "cacti-11"])
def test_betti_c_2c_counts_induced_matchings(family):
    # Katzman (J. Combin. Theory Ser. A 113, 2006): beta_{c,2c} is the
    # number of induced matchings of c edges, over every field.
    for g in family():
        entries = homology.projective_dimension(g)[1].entries
        for c in range(1, len(g.non_isolated) // 2 + 1):
            assert entries.get((c, 2 * c), 0) == induced_matchings(g, c), \
                (sorted(g.edges), c)


# A 12-vertex flag triangulation of RP^2.  Its independence complex is RP^2
# in the complement of its 1-skeleton, whose F2 homology (H~_1 = H~_2 = 1)
# differs from the rational one (zero): the answer must stay over F2 through
# the fold, which is a homotopy equivalence.
RP2_TRIANGLES = ("1 2 3, 1 2 6, 1 3 4, 1 4 7, 1 6 7, 2 3 10, 2 5 8, 2 5 10, "
                 "2 6 8, 3 4 11, 3 9 10, 3 9 11, 4 5 7, 4 5 8, 4 8 12, "
                 "4 11 12, 5 7 9, 5 9 10, 6 7 9, 6 8 12, 6 9 11, 6 11 12")


def rp2_complement():
    skeleton = {frozenset(pair) for t in RP2_TRIANGLES.split(", ")
                for pair in itertools.combinations(t.split(), 2)}
    labels = [str(i) for i in range(1, 13)]
    return Graph.build((u, v) for u, v in itertools.combinations(labels, 2)
                       if frozenset((u, v)) not in skeleton)


def test_rp2_complement_keeps_its_f2_torsion():
    g = rp2_complement()
    assert len(g.vertices) == 12 and len(g.edges) == 33
    assert oracle_reduced_ranks(g, g.vertices) == {1: 1, 2: 1}
    assert ranks_by_subset(g)[g.vertices] == {1: 1, 2: 1}
    pd, table = homology.projective_dimension(g)
    assert pd == 10
    assert table.entries[(10, 12)] == 1 and table.entries[(9, 12)] == 1


def test_table_past_one_byte_of_entries(monkeypatch):
    # RP^2's complement meets 16 distinct entries; past a lowered one-byte
    # limit of 12 the index table becomes a list and gives the same answer.
    g = rp2_complement()
    want = homology.projective_dimension(g)
    monkeypatch.setattr(homology, "_BYTE", 12)
    table, entries = homology._ranks_table(g.masks, 12)
    assert isinstance(table, list) and len(entries) > 12
    assert ranks_by_subset(g)[g.vertices] == {1: 1, 2: 1}
    assert homology.projective_dimension(g) == want


def test_pd_output_does_not_depend_on_the_hash_seed(tmp_path):
    f = tmp_path / "rp2.txt"
    f.write_text("".join("%s %s\n" % e
                         for e in rp2_complement().sorted_edges()))
    outs = [run_under_hash_seed(seed, "pd", str(f)) for seed in (0, 4)]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["pd"] == 10


# -- the cactus DP ----------------------------------------------------------
#
# On a cactus `projective_dimension` reads `_cactus_betti`, which gives the
# whole Betti table in polynomial time; the Hochster table of `_table_betti`
# checks it under the guard, and theorems past it.


def seeded_cacti(seed, count, sizes, cycle_lengths=tuple(range(3, 12))):
    rng = random.Random(seed)
    return [catalog.grown_cactus(rng, rng.randint(*sizes), cycle_lengths)
            for _ in range(count)]


def disjoint_union(parts):
    return Graph.build(("p%d%s" % (i, u), "p%d%s" % (i, v))
                       for i, part in enumerate(parts) for u, v in part.edges)


@pytest.mark.parametrize("family", [
    lambda: catalog.trees_upto(10),
    lambda: catalog.unicyclic_upto(9),
    lambda: seeded_cacti(41, 200, (2, 14)),
    lambda: catalog.random_cacti(seed=43, count=60, max_vertices=14),
    lambda: list(map(disjoint_union, zip(seeded_cacti(45, 40, (2, 7)),
                                         seeded_cacti(46, 40, (2, 7))))),
    lambda: [cycle(k) for k in range(3, 15)],
], ids=["trees-10", "unicyclic-9", "grown-14", "random-14", "unions-14",
        "cycles-14"])
def test_cactus_dp_matches_the_hochster_table(family):
    for g in family():
        assert homology._cactus_betti(g.masks) == homology._table_betti(g), \
            sorted(g.edges)


def test_cactus_dp_declines_non_cacti():
    diamond = parse_edge_list("a b\nb c\nc d\nd a\na c")
    assert homology._cactus_betti(diamond.masks) is None


def test_pd_of_cycles_past_the_guard():
    # pd(C_n) = ceil((2n - 1) / 3) (Jacques, thesis, Sheffield 2004).
    for n in range(3, 61):
        assert homology.projective_dimension(cycle(n))[0] == \
            -(-(2 * n - 1) // 3), n


def test_pd_is_big_height_on_forests_and_3_5_cacti():
    # Forests, and cacti whose cycles all have length 3 or 5, are vertex
    # decomposable (Woodroofe, Proc. AMS 137, 2009), so pd = bight
    # (Morey-Villarreal, 2012).
    rng = random.Random(47)
    cases = []
    for _ in range(4):
        n, k = rng.randint(50, 200), rng.randint(1, 3)
        cases.append(disjoint_union(catalog.grown_cactus(rng, n // k, ())
                                    for _ in range(k)))
    cases += seeded_cacti(48, 4, (50, 200), (3, 5))
    for g in cases:
        assert homology.projective_dimension(g)[0] == covers.big_height(g), \
            sorted(g.edges)


def test_pd_lies_between_big_height_and_the_bound_on_larger_cacti():
    for g in seeded_cacti(49, 12, (30, 60)):
        start = time.perf_counter()
        pd = homology.projective_dimension(g)[0]
        assert time.perf_counter() - start < 2.0
        bight = covers.big_height(g)
        assert bight <= pd <= bight + graphs.cycle_count(g), sorted(g.edges)
