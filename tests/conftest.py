"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own fast paths: minimal
covers, maximal cliques, simplexes and short cycles are re-derived by
brute-force subset enumeration over labels, so agreement with the bitmask kernels (Bron-Kerbosch
and the cycle DFS) is a genuine cross-check.  The cactus, chordality and
branch oracles go through networkx (biconnected blocks, `nx.is_chordal`,
the components of g - x), and the whisker-tree oracle checks the degree
conditions directly; the Thm 5.1 case-5 oracle applies it to the trees
that a 4-cycle carries, on labels.  The paper's cover-combination lemmas and its
redundancy remark are checked here by full cover enumeration; in the
library, `bounds.theorem34_trace` re-verifies the same inequalities on each
proof step.
"""

from __future__ import annotations

import copy
import itertools
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import pytest

import edgeideals
from edgeideals.certificates import CertBuilder
from edgeideals.constructions import sv_layer_search
from edgeideals.covers import (DEFAULT_VERTEX_LIMIT, CoverSizeError,
                               MinimalCover, big_height, cover_stats)
from edgeideals.graphs import (WHISKER, Graph, GraphError, _bits, _vertex_sets,
                               build_attached_graph, cycle_graph, edge,
                               parse_edge_list)
from edgeideals.polynomials import Monomial, Polynomial


def path_graph(n, prefix="p"):
    return Graph.build(("%s%d" % (prefix, i), "%s%d" % (prefix, i + 1))
                       for i in range(n - 1))


def cycle(n, prefix="c"):
    return Graph.build(("%s%d" % (prefix, i), "%s%d" % (prefix, (i + 1) % n))
                       for i in range(n))


def fresh(graphs):
    """Equal copies of graphs, built apart: nothing is computed on them yet,
    so `covers` runs its DP pass or enumeration on each of them again."""
    return [Graph(*g) for g in graphs]


def relabel(g, mapping):
    """g with every vertex v renamed mapping[v]."""
    return Graph.build(((mapping[u], mapping[v]) for u, v in g.edges),
                       isolated=(mapping[v] for v in g.vertices))


def with_edges(g, new_edges):
    """g with the edges `new_edges` added, their labels checked by
    `Graph.build`."""
    return Graph.build([*g.edges, *new_edges], g.vertices)


def without_edges(g, dropped):
    """g with the edges `dropped`, each of which it must have, removed."""
    drop = {edge(u, v) for u, v in dropped}
    assert drop <= g.edges, sorted(drop - g.edges)
    return Graph(g.vertices, g.edges - drop)


def run_under_hash_seed(seed, *argv, script=None):
    """The stdout of `python -m edgeideals.cli *argv`, or of `python -c
    script *argv`, in a fresh interpreter under PYTHONHASHSEED=seed, with
    the package and the test modules importable; a nonzero exit fails."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(edgeideals.__file__).resolve().parents[1]),
                    str(Path(__file__).resolve().parent),
                    env.get("PYTHONPATH")) if p)
    head = ["-c", script] if script is not None else ["-m", "edgeideals.cli"]
    return subprocess.run([sys.executable, *head, *argv], capture_output=True,
                          text=True, check=True, env=env).stdout


def format_edge_list(g):
    """The inverse of parse_edge_list: sorted edges, then isolated vertices."""
    lines = ["%s %s" % e for e in g.sorted_edges()]
    lines += [v for v in g.vertices if not g.adj[v]]
    return "\n".join(lines) + "\n"


TRIANGLE = parse_edge_list("a b\nb c\nc a")
TRI_2W = parse_edge_list("a b\nb c\nc a\na aw\nb bw")
BOWTIE = parse_edge_list("a b\nb c\nc a\nc d\nd e\ne c")
WHISKER_P3 = parse_edge_list("a b\nb c\na aw\nb bw\nc cw")


def brute_force_minimal_covers(g):
    """All minimal vertex covers by subset enumeration (exponential)."""
    active = list(g.non_isolated)
    covers = []
    for k in range(len(active) + 1):
        for vs in itertools.combinations(active, k):
            s = frozenset(vs)
            if all(u in s or v in s for u, v in g.edges):
                if not any(c <= s for c in covers):
                    covers.append(s)
    # A smaller cover found later can never be a subset of an earlier one
    # (enumeration is by increasing size), so the list is exactly minimal.
    return sorted(covers, key=sorted)


def brute_force_maximal_cliques(g):
    """All maximal cliques by subset enumeration (exponential)."""
    cliques = [frozenset(vs)
               for k in range(len(g.vertices) + 1)
               for vs in itertools.combinations(g.vertices, k)
               if all(edge(u, v) in g.edges
                      for u, v in itertools.combinations(vs, 2))]
    return sorted((c for c in cliques if not any(c < d for d in cliques)),
                  key=sorted)


def simplex_oracle(g):
    """The members of `brute_force_maximal_cliques` that hold a vertex
    whose neighbours are pairwise adjacent, in that order."""
    simplicial = {v for v in g.vertices
                  if all(edge(a, b) in g.edges
                         for a, b in itertools.combinations(g.adj[v], 2))}
    return [c for c in brute_force_maximal_cliques(g) if c & simplicial]


def maximal_independent_sets(g):
    """The library's maximal independent sets of the non-isolated part of g
    (the masks `cover_stats` keeps), as sorted vertex sets."""
    return _vertex_sets(g.vertices, cover_stats(g).independent)


def cycle_subgraph_oracle(g, length):
    """Whether some ordering of some `length` vertices is a closed walk of
    edges: C(n, length) * (length - 1)! candidate walks."""
    for vs in itertools.combinations(g.non_isolated, length):
        first, rest = vs[0], vs[1:]
        for perm in itertools.permutations(rest):
            walk = (first,) + perm
            if all(edge(walk[i], walk[(i + 1) % length]) in g.edges
                   for i in range(length)):
                return True
    return False


def cycle_from_vertex_set(g, vset):
    """The canonical cycle tuple through exactly the vertices of vset, which
    must induce a single cycle of g: start at the least vertex and step
    first to its lesser neighbour."""
    start = min(vset)
    walk = [start, min(g.adj[start] & vset)]
    while True:
        (v,) = (g.adj[walk[-1]] & vset) - {walk[-2]}
        if v == start:
            break
        walk.append(v)
    assert len(walk) == len(vset), "vertex set does not induce one cycle"
    return tuple(walk)


def induced_cycles_oracle(g, k):
    """Induced cycles of length < k: every vertex set whose induced subgraph
    is connected and 2-regular, as a canonical cycle tuple."""
    out = []
    for size in range(3, min(k, len(g.vertices) + 1)):
        for vs in itertools.combinations(g.non_isolated, size):
            sub = g.induced(vs)
            if (all(sub.degree(v) == 2 for v in vs)
                    and sub.is_connected()):
                out.append(cycle_from_vertex_set(g, frozenset(vs)))
    return sorted(out)


def to_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(g.edges)
    return nxg


def branch_oracle(g, x):
    """The branches of a connected graph g at the vertex x, through networkx:
    for each component of g - x, its vertices with x as a sorted tuple and
    the number of edges from x into it (1 for a 1-branch, 2 for a 2-branch
    of a cactus), sorted."""
    nxg = to_networkx(g)
    return sorted(
        (tuple(sorted(comp | {x})), sum(y in comp for y in nxg[x]))
        for comp in nx.connected_components(
            nxg.subgraph(set(g.vertices) - {x})))


def cactus_oracle(g):
    """(is_cactus, cycles) from networkx's biconnected blocks: g is a cactus
    when every block is a bridge or a cycle (as many edges as vertices), and
    its cycles are then the cycle blocks, as canonical cycle tuples; None
    for a non-cactus."""
    blocks = [(len(b), frozenset(w for e in b for w in e))
              for b in nx.biconnected_component_edges(to_networkx(g))]
    if any(size > 1 and size != len(vs) for size, vs in blocks):
        return False, None
    return True, sorted(cycle_from_vertex_set(g, vs)
                        for size, vs in blocks if size > 1)


def chordal_oracle(g):
    return nx.is_chordal(to_networkx(g))


def whisker_tree_oracle(g):
    """Whether g is the whisker graph of a tree, by the degree conditions: g
    is a tree in which every non-terminal vertex has exactly one terminal
    neighbour and every terminal vertex has a non-terminal neighbour (a bare
    edge does not qualify)."""
    if not g.vertices or not g.edges:
        return False
    if not g.is_connected() or len(g.edges) != len(g.vertices) - 1:
        return False
    base = [v for v in g.vertices if g.degree(v) > 1]
    if not base:
        return False
    for v in base:
        if sum(g.degree(w) == 1 for w in g.neighbors(v)) != 1:
            return False
    return not any(g.degree(t) == 1 and g.degree(next(iter(g.adj[t]))) == 1
                   for t in g.vertices)


def case5_split_oracle(g, walk):
    """Thm 5.1 case 5 on the labels of a unicyclic g with 4-cycle walk: two
    adjacent cycle vertices x3, x4 of degree 2, and the graphs h1, h2 that
    the other two carry off the cycle, each with an edge and joined across
    their cycle edge x1x2, form a whisker tree.  Returns the evidence of
    `classify._match_case` or None."""
    off_cycle = without_edges(g, cycle_graph(walk).edges)
    comps = off_cycle.components()
    for i in range(4):
        x4, x3 = walk[i], walk[(i + 1) % 4]
        x2, x1 = walk[(i + 2) % 4], walk[(i + 3) % 4]
        if g.degree(x3) != 2 or g.degree(x4) != 2:
            continue
        h1, h2 = (off_cycle.induced(next(c for c in comps if x in c))
                  for x in (x1, x2))
        if not h1.edges or not h2.edges:
            continue
        if whisker_tree_oracle(with_edges(h1.union(h2), [(x1, x2)])):
            return {"x1": x1, "x2": x2, "h1": h1, "h2": h2}
    return None


# -- paper-lemma oracles: Lemmas 2.6 and 2.7, the redundancy remark ----


def maximum_minimal_covers(g):
    """The minimal covers of maximum cardinality, in `all_covers` order."""
    stats = cover_stats(g)
    return [c for c in stats.all_covers if len(c) == stats.big_height]


def is_redundant_neighbor(g, c: MinimalCover, x, y):
    """Def: y (a neighbour of x, with x outside the cover) is redundant in c
    when every neighbour of y other than x lies in c."""
    if x in c.vertices:
        raise GraphError("x must lie outside the cover")
    if y not in g.neighbors(x):
        raise GraphError("y must be a neighbour of x")
    return all(z in c.vertices for z in g.neighbors(y) if z != x)


def is_cover(g, vs):
    return all(u in vs or v in vs for u, v in g.edges)


def is_minimal_cover(g, vs):
    vs = frozenset(vs)
    if not is_cover(g, vs):
        return False
    return all(not is_cover(g, vs - {v}) for v in vs)


def redundancy_remark_check(g, c: MinimalCover, x, y):
    """Oracle for the redundancy remark: y is redundant in c exactly when
    c minus y is a minimal vertex cover of g minus the edge xy.  Returns
    whether the two sides agree (they always should)."""
    lhs = is_redundant_neighbor(g, c, x, y)
    g_minus = without_edges(g, [edge(x, y)])
    rhs = is_minimal_cover(g_minus, c.vertices - {y})
    return lhs == rhs


def induced_cover(g, c: MinimalCover, h: Graph):
    """The (possibly empty, possibly non-minimal) cover induced by c, a
    minimal cover of g, on a subgraph h of g."""
    if not (set(h.vertices) <= set(g.vertices) and h.edges <= g.edges):
        raise GraphError("h is not a subgraph of the cover's graph")
    return frozenset(c.vertices & set(h.vertices))


def _split_overlap(g, g1):
    """Check g1 is a subgraph of g meeting its complement in one vertex x."""
    if not (set(g1.vertices) <= set(g.vertices) and g1.edges <= g.edges):
        raise GraphError("g1 is not a subgraph of g")
    rest = without_edges(g, g1.edges).drop_isolated()
    overlap = set(g1.vertices) & set(rest.vertices)
    if len(overlap) != 1:
        raise GraphError("vertex sets must overlap in exactly one vertex, "
                         "got %s" % sorted(overlap))
    return overlap.pop(), rest


def lemma26_check(g, g1, x):
    """Induced-cover size bound at an articulation vertex.

    With V(g1) and V(g minus g1) meeting exactly in x, and x in every maximum
    minimal cover of g1: for every maximum minimal cover C of g the cover
    induced on g1 has at most b1 elements, with equality when x is in C.
    Verified by enumeration; returns True when every instance checks.
    """
    ov, _ = _split_overlap(g, g1)
    if ov != x:
        raise GraphError("overlap vertex is %r, not %r" % (ov, x))
    if not old_vertex_in_every_maximum_cover(g1, x):
        raise GraphError("hypothesis not satisfied: some maximum minimal "
                         "cover of g1 avoids %r" % (x,))
    b1 = big_height(g1)
    for c in maximum_minimal_covers(g):
        d1 = induced_cover(g, c, g1)
        if len(d1) > b1:
            return False
        if x in c.vertices and len(d1) != b1:
            return False
    return True


def lemma27_union(g1, g2, x, case):
    """Build a maximum minimal cover of g1 union g2 from maximum covers of the
    parts, per the three cover-union cases:

      (i)   x lies in every maximum cover of both parts;
      (ii)  some maximum cover of each part avoids x;
      (iii) x forced in g1, and some maximum cover of g2 avoids x with no
            redundant neighbour of x in it.

    The case hypothesis is checked by full enumeration and a failure is an
    error, never a silent skip.  Returns the union cover (asserted maximum).
    """
    overlap = set(g1.vertices) & set(g2.vertices)
    if overlap != {x}:
        raise GraphError("vertex sets must overlap exactly in {%r}" % (x,))
    max1 = maximum_minimal_covers(g1)
    max2 = maximum_minimal_covers(g2)
    if case == "i":
        if not all(x in c.vertices for c in max1 + max2):
            raise GraphError("case (i) hypothesis not satisfied")
        c1, c2 = max1[0], max2[0]
    elif case == "ii":
        picks1 = [c for c in max1 if x not in c.vertices]
        picks2 = [c for c in max2 if x not in c.vertices]
        if not picks1 or not picks2:
            raise GraphError("case (ii) hypothesis not satisfied")
        c1, c2 = picks1[0], picks2[0]
    elif case == "iii":
        if not all(x in c.vertices for c in max1):
            raise GraphError("case (iii) hypothesis not satisfied on g1")
        picks2 = [c for c in max2
                  if x not in c.vertices
                  and not any(is_redundant_neighbor(g2, c, x, y)
                              for y in g2.neighbors(x))]
        if not picks2:
            raise GraphError("case (iii) hypothesis not satisfied on g2")
        c1, c2 = max1[0], picks2[0]
    else:
        raise GraphError("case must be 'i', 'ii' or 'iii'")
    union_graph = g1.union(g2)
    union_cover = frozenset(c1.vertices | c2.vertices)
    maxima = maximum_minimal_covers(union_graph)
    if union_cover not in {c.vertices for c in maxima}:
        raise GraphError("internal invariant violation: union cover is not a "
                         "maximum minimal cover")
    return MinimalCover(union_cover)


# -- cover statistics as they were before int masks --------------------
#
# A verbatim copy of the list-based path that `covers._cover_stats` used to
# run: Bron-Kerbosch collected index tuples and sorted them, and every cover
# became a MinimalCover at once; maximum covers were filtered from that list
# and the forced-vertex test scanned them.  Patched into `covers`, it must
# give the very same traces and cover lists as the mask path.


def _old_bron_kerbosch(vertices, masks, candidates):
    out = []

    def expand(r, p, x):
        if not p:
            if not x:
                out.append(r)
            return
        pivot = max(_bits(p | x), key=lambda u: (p & masks[u]).bit_count())
        for v in _bits(p & ~masks[pivot]):
            expand(r + (v,), p & masks[v], x & masks[v])
            p ^= 1 << v
            x |= 1 << v

    expand((), candidates, 0)
    return [frozenset(map(vertices.__getitem__, r))
            for r in sorted(map(sorted, out))]


@dataclass(frozen=True)
class OldCoverStats:
    height: int
    big_height: int
    unmixed: bool
    all_covers: tuple


def old_cover_stats(g):
    active = g.non_isolated
    if len(active) > DEFAULT_VERTEX_LIMIT:
        raise CoverSizeError(
            "%d non-isolated vertices exceeds the enumeration guard (%d)"
            % (len(active), DEFAULT_VERTEX_LIMIT))
    active_mask = sum(1 << i for i, m in enumerate(g.masks) if m)
    non_adj = [active_mask & ~m & ~(1 << i) for i, m in enumerate(g.masks)]
    covers = [MinimalCover(frozenset(active) - ind)
              for ind in _old_bron_kerbosch(g.vertices, non_adj, active_mask)]
    sizes = [len(c) for c in covers]
    h, bh = min(sizes), max(sizes)
    return OldCoverStats(height=h, big_height=bh, unmixed=(h == bh),
                         all_covers=tuple(covers))


def old_maximum_minimal_covers(g):
    stats = old_cover_stats(g)
    return [c for c in stats.all_covers if len(c) == stats.big_height]


def old_vertex_in_every_maximum_cover(g, x):
    return all(x in c.vertices for c in old_maximum_minimal_covers(g))


def old_big_height(g):
    return old_cover_stats(g).big_height


def old_maximum_covers_avoiding(g, x):
    """The independent complements of the maximum covers that avoid x, as
    masks, filtered from the full list of covers."""
    index = {v: i for i, v in enumerate(g.vertices)}
    active = frozenset(g.non_isolated)
    return [sum(1 << index[v] for v in active - c.vertices)
            for c in old_maximum_minimal_covers(g) if x not in c.vertices]


# -- the layer search as it was before witness masks -------------------
#
# A verbatim copy of the Monomial-level search that `sv_layer_search` used to
# run: every state rebuilt its compatibility graph by multiplying monomials,
# and the certificate looked each pair's witness up in a dict keyed by
# Monomial pairs.  The mask search must return the very same
# (GeneratorSet, Certificate).  `_sort_key` stands in for the retired
# `Monomial.sort_key`.


def _sort_key(m):
    """The polynomial term order: degree descending, then exps."""
    return (-sum(e for _, e in m.exps), m.exps)


def _old_compatible_cliques(remaining, earlier):
    rem = sorted(remaining, key=_sort_key)
    compat = {m: set() for m in rem}
    for i, e in enumerate(rem):
        for f in rem[i + 1:]:
            if any(d.divides(e * f) for d in earlier):
                compat[e].add(f)
                compat[f].add(e)
    out = []

    def bk(r, p, x):
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda m: len(compat[m] & p))
        for m in sorted(p - compat[pivot], key=_sort_key):
            bk(r | {m}, p & compat[m], x & compat[m])
            p = p - {m}
            x = x | {m}

    bk(frozenset(), frozenset(rem), frozenset())
    return sorted(out, key=len, reverse=True)


def _old_search_layers(monomials, p0, max_layers):
    dead = set()

    def go(remaining, depth):
        if not remaining:
            return []
        if depth == 0 or remaining in dead:
            return None
        earlier = [m for m in monomials if m not in remaining]
        for layer in _old_compatible_cliques(remaining, earlier):
            tail = go(remaining - layer, depth - 1)
            if tail is not None:
                return [sorted(layer, key=_sort_key)] + tail
        dead.add(remaining)
        return None

    rest = go(frozenset(m for m in monomials if m != p0), max_layers - 1)
    if rest is None:
        return None
    return [[p0]] + rest


def _old_layer_witnesses(layers):
    witness = {}
    earlier = []
    for layer in layers:
        for i, e in enumerate(layer):
            for f in layer[i + 1:]:
                witness[(e, f)] = min(
                    (d for d in earlier if d.divides(e * f)),
                    key=_sort_key)
        earlier.extend(layer)
    return witness


def old_sv_layer_search(g, max_layers=None):
    """The pre-mask `sv_layer_search`, for comparison in the tests.  It
    carries the same big-height floor, which cannot change its answers: no
    layering is shorter than big height (tests/test_constructions.py checks
    the floor against the unfloored search on its own)."""
    monomials = [Monomial.of(u, v) for u, v in g.sorted_edges()]
    cap = max_layers if max_layers is not None else len(monomials)
    try:
        floor = big_height(g)
    except CoverSizeError:
        floor = 1
    if cap < floor:
        return None
    best = None
    for p0 in monomials:
        if best is not None and len(best) <= floor:
            break
        depth = (len(best) - 1) if best is not None else cap
        layers = _old_search_layers(monomials, p0, depth)
        if layers is not None and (best is None or len(layers) < len(best)):
            best = layers
    if best is None:
        return None
    return _old_layers_to_certificate(g, best, _old_layer_witnesses(best))


def _old_layers_to_certificate(g, layers, witness):
    b = CertBuilder(g)
    refs = [b.gen(Polynomial.of(*layer)) for layer in layers]
    for layer, ref in zip(layers[1:], refs[1:]):
        _old_emit_layer_steps(b, layer, ref, witness)
    return b.result()


def _old_emit_layer_steps(b, layer, layer_ref, witness):
    if len(layer) == 1:
        return
    if len(layer) == 2:
        e, f = layer
        rho = witness.get((e, f)) or witness.get((f, e))
        b.sv(b.ref(rho), layer_ref)
        return
    for j, mu in enumerate(layer):
        combo = [(Polynomial.term(mu), layer_ref)]
        for k, nu in enumerate(layer):
            if k == j:
                continue
            rho = witness.get((mu, nu)) or witness.get((nu, mu))
            combo.append((-Polynomial.term((mu * nu) / rho), b.ref(rho)))
        b.power(mu, 2, combo)


def layer_search_mismatches(cases):
    """The (edges, options) of every (graph, options) case on which
    sv_layer_search and the old search return different results."""
    return [(g.sorted_edges(), kw) for g, kw in cases
            if sv_layer_search(g, **kw) != old_sv_layer_search(g, **kw)]


# Non-cactus bases of at most 5 vertices.  gens_prop42 runs the layer
# search on the whisker graph of its base (a whisker at every base vertex),
# capped at the base's vertex count.
NON_CACTUS_BASES = {
    "K4": "a b\na c\na d\nb c\nb d\nc d",
    "diamond": "a b\na c\na d\nb c\nb d",
    "K4+pendant": "a b\na c\na d\nb c\nb d\nc d\nd e",
    "diamond+pendant": "a b\na c\na d\nb c\nb d\nd e",
    "house": "a b\nb c\nc d\nd a\nc e\nd e",
    "house+chord": "a b\nb c\nc d\nd a\na c\nc e\nd e",
    "K2,3": "a c\na d\na e\nb c\nb d\nb e",
    "gem": "a b\nb c\nc d\ne a\ne b\ne c\ne d",
    "wheel W4": "a b\nb c\nc d\nd a\na e\nb e\nc e\nd e",
    "K5-e": "a b\na c\na d\na e\nb c\nb d\nb e\nc d\nc e",
    "book B3": "a b\na c\na d\na e\nb c\nb d\nb e",
}


def whisker_graph_cases():
    """(whisker graph, options) of every NON_CACTUS_BASES entry, as
    gens_prop42 searches it."""
    for text in NON_CACTUS_BASES.values():
        base = parse_edge_list(text)
        g, _ = build_attached_graph(base,
                                    dict.fromkeys(base.vertices, WHISKER))
        yield g, {"max_layers": len(base.vertices)}


# -- certificate tampering --------------------------------------------


def coefficient_paths(data):
    """Every coefficient field in a serialized certificate: generator terms
    and power-step combination terms."""
    for gi, poly in enumerate(data["generators"]):
        for ti in range(len(poly)):
            yield ("gen", gi, ti)
    for si, step in enumerate(data["steps"]):
        if step["kind"] == "power":
            for ci, (cp, _ref) in enumerate(step["combination"]):
                for ti in range(len(cp)):
                    yield ("pow", si, ci, ti)


def bump_coefficient(data, path):
    """Increment the absolute value of one coefficient (sign preserved)."""
    d = copy.deepcopy(data)
    if path[0] == "gen":
        term = d["generators"][path[1]][path[2]]
    else:
        term = d["steps"][path[1]]["combination"][path[2]][0][path[3]]
    c = term[1]
    term[1] = c + 1 if c > 0 else c - 1
    return d


@pytest.fixture(scope="session")
def certificate_corpus():
    """Verified (name, GeneratorSet, Certificate) triples spanning every
    construction family."""
    from edgeideals import constructions as cons

    out = []
    for ell in (3, 4, 5):
        out.append(("cycle%d" % ell,) + cons.gens_cycle(ell))
    for r in range(5):
        for s in range(5 - r):
            out.append(("lemma52_%d_%d" % (r, s),) + cons.gens_lemma52(r, s))
    out.append(("whisker_p3",) + cons.gens_whisker_tree(WHISKER_P3,
                                                        ("a", "b")))
    att = parse_edge_list("x3 e\ne f\ne ew\nf fw")
    out.append(("lemma53_caseA",) + cons.gens_lemma53(1, 1, [], [att]))
    h1 = parse_edge_list("x1 y1\nx1 z\nz zw")
    h2 = parse_edge_list("x2 y2\nx2 w\nw ww")
    out.append(("lemma54",) + cons.gens_lemma54(h1, h2))
    base = parse_edge_list("a b\nb c")
    out.append(("prop42",) + cons.gens_prop42(
        base, {"a": cons.WHISKER, "b": 3, "c": 5}))
    return out
