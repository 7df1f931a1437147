"""Cohen-Macaulay and set-theoretic-complete-intersection classification.

Covers the unicyclic characterization (five structural cases), the chordal /
no-C4-C5 equivalence, the girth-at-least-6 characterization, and a dispatcher
that returns the strongest applicable verdict with its citation tag.  The
structural recognizers it applies (cactus, cycles as vertex tuples,
chordality, simplexes, whisker graphs and trees, the short-cycle screen)
live in `graphs`; the case matchers here (`_match_case`, `_prop42_tail`)
combine them.  Cor 4.4's simplexes are the closed neighbourhoods of the
simplicial vertices, so its partition test enumerates no cliques.
"""

from __future__ import annotations

from collections import namedtuple

from . import covers, graphs
from .graphs import WHISKER, GraphError

CM = "CM"
NOT_CM = "NotCM"
UNKNOWN = "Unknown"


class HypothesisError(GraphError):
    """A classification result was invoked outside its hypothesis."""


class CmVerdict(namedtuple("CmVerdict", "status stci case_tag evidence")):
    __slots__ = ()

    def __new__(cls, status, stci=UNKNOWN, case_tag="none", evidence=None):
        if stci == "Yes":  # requires a citation in case_tag
            assert case_tag != "none"
            assert status == CM
        return tuple.__new__(cls, (status, stci, case_tag,
                                   {} if evidence is None else evidence))


def simplex_partition_check(g):
    """True iff every vertex lies in exactly one simplex (a maximal clique
    containing a simplicial vertex); returns (bool, partition)."""
    simplexes = graphs.simplexes(g)
    count = {v: 0 for v in g.vertices}
    for s in simplexes:
        for v in s:
            count[v] += 1
    if all(c == 1 for c in count.values()):
        return True, sorted(simplexes, key=sorted)
    return False, None


def _whisker_trees_and_edges(h):
    """Every component of h is a whisker tree or a single edge.  Isolated
    vertices are permitted: in context they are cycle whiskers, not
    components of their own."""
    return all(len(comp.edges) == 1 or graphs.is_whisker_tree(comp)
               for comp in h.drop_isolated().component_graphs())


def _case5_split(g, walk):
    """Match the length-4 case: two adjacent cycle vertices of degree 2; the
    graphs attached to the other two, joined across their cycle edge, form a
    whisker tree.  Returns evidence or None."""
    off_cycle = g.without_edges(graphs.cycle_graph(walk).edges)
    comps = off_cycle.components()
    for i in range(4):
        x3, x4 = walk[i], walk[(i + 1) % 4]
        x2, x1 = walk[(i + 2) % 4], walk[(i + 3) % 4]
        if g.degree(x3) != 2 or g.degree(x4) != 2:
            continue
        comp1 = next(c for c in comps if x1 in c)
        comp2 = next(c for c in comps if x2 in c)
        h1 = off_cycle.induced(comp1)
        h2 = off_cycle.induced(comp2)
        if not h1.edges or not h2.edges:
            continue
        bridge = h1.union(h2).with_edges([(x1, x2)])
        if graphs.is_whisker_tree(bridge):
            return {"x1": x1, "x2": x2, "h1": h1, "h2": h2}
    return None


def _match_case(g, cycle):
    """Which of the five structural cases an unmixed unicyclic graph falls
    into; returns (tag, evidence) or None.  The structural descriptions are
    faithful only under unmixedness (e.g. a triangle with a single whisker
    fits the wording of case 3 but is mixed, hence not Cohen-Macaulay)."""
    ell = len(cycle)
    on_cycle = set(cycle)
    rest = g.induced(set(g.vertices) - on_cycle)

    if set(g.vertices) == on_cycle and ell in (3, 5):
        return "Thm 5.1 case 1", {"cycle": cycle}

    ok, dec = graphs.is_whisker_graph(g)
    if ok:
        return "Thm 5.1 case 2", {"base": dec}

    if ell == 3 and any(g.degree(v) == 2 for v in on_cycle) \
            and _whisker_trees_and_edges(rest):
        return "Thm 5.1 case 3", {"cycle": cycle}

    if ell == 5 and _whisker_trees_and_edges(rest):
        adjacent_high = any(
            g.degree(cycle[i]) > 2 and g.degree(cycle[(i + 1) % 5]) > 2
            for i in range(5))
        if not adjacent_high:
            return "Thm 5.1 case 4", {"cycle": cycle}

    if ell == 4:
        evidence = _case5_split(g, cycle)
        if evidence is not None:
            return "Thm 5.1 case 5", evidence

    return None


def classify_unicyclic(g):
    """Classify a connected unicyclic graph.  Cohen-Macaulayness is
    equivalent to being pure and different from the 4- and 7-cycles; every
    Cohen-Macaulay graph then matches one of five structural cases, each of
    which is also a set-theoretic complete intersection."""
    if not g.is_connected():
        raise GraphError("graph must be connected")
    cycle_list = graphs.cycles(g)
    if len(cycle_list) != 1:
        raise GraphError("graph must have exactly one cycle")
    (cycle,) = cycle_list
    ell = len(cycle)

    h, bh = covers.height(g), covers.big_height(g)
    if h != bh:
        return CmVerdict(NOT_CM, case_tag="Thm 5.1",
                         evidence={"cycle_length": ell,
                                   "height": h, "big_height": bh})
    if set(g.vertices) == set(cycle) and ell in (4, 7):
        return CmVerdict(NOT_CM, case_tag="Thm 5.1",
                         evidence={"cycle_length": ell,
                                   "excluded_cycle": True})
    matched = _match_case(g, cycle)
    if matched is None:
        raise GraphError("internal invariant violation: a pure unicyclic "
                         "graph other than the 4- and 7-cycles must match "
                         "one of the five structural cases")
    tag, evidence = matched
    return CmVerdict(CM, "Yes", tag, evidence)


def corollary44(g):
    """For chordal graphs, or graphs without C4/C5 subgraphs: purity, CM,
    the simplex partition and STCI are all equivalent."""
    if not graphs.is_chordal(g) and graphs.has_cycle_subgraph(g, (4, 5)):
        raise HypothesisError("hypothesis not met: graph is neither chordal "
                              "nor free of length-4/5 cycle subgraphs")
    h, bh = covers.height(g), covers.big_height(g)
    part_ok, partition = simplex_partition_check(g)
    if (h == bh) != part_ok:
        raise GraphError("internal invariant violation: purity and the "
                         "simplex partition must agree under the hypothesis")
    if part_ok:
        return CmVerdict(CM, "Yes", "Cor 4.4",
                         {"partition": [sorted(s) for s in partition]})
    return CmVerdict(NOT_CM, case_tag="Cor 4.4",
                     evidence={"height": h, "big_height": bh})


def corollary61(g):
    """For connected graphs of girth at least 6 that are neither a single
    edge nor a 7-cycle: pure <=> whisker graph <=> Cohen-Macaulay."""
    if not g.is_connected():
        raise HypothesisError("hypothesis not met: graph must be connected")
    if not g.edges:
        raise HypothesisError("hypothesis not met: graph has no edge")
    if len(g.edges) == 1:
        raise HypothesisError("hypothesis not met: single edge excluded")
    if len(g.vertices) == 7 and len(g.edges) == 7 \
            and all(g.degree(v) == 2 for v in g.vertices):
        raise HypothesisError("hypothesis not met: the 7-cycle is excluded")
    # A chord would split a shortest cycle, so this is the girth test.
    if graphs.has_cycle_subgraph(g, (3, 4, 5)):
        raise HypothesisError("hypothesis not met: graph has a minimal cycle "
                              "of length less than 6")
    h, bh = covers.height(g), covers.big_height(g)
    whisker, base = graphs.is_whisker_graph(g)
    if (h == bh) != whisker:
        raise GraphError("internal invariant violation: purity and the "
                         "whisker decomposition must agree under the "
                         "hypothesis")
    if whisker:
        return CmVerdict(CM, "Yes", "Cor 6.1",
                         {"base_edges": [list(e) for e in
                                         base.sorted_edges()]})
    return CmVerdict(NOT_CM, case_tag="Cor 6.1",
                     evidence={"height": h, "big_height": bh})


def _prop42_tail(g):
    """Recognize g as a base graph with a whisker or a 3-/5-cycle attached to
    every base vertex (in which case the edge ideal is a set-theoretic
    complete intersection).  Returns (base, attachments) or None."""
    if not graphs.is_cactus(g) or not g.edges:
        return None
    degree = {v: m.bit_count() for v, m in zip(g.vertices, g.masks)}
    interiors = {}   # root -> frozenset of attachment-interior vertices
    kinds = {}
    for cyc in graphs.cycles(g):
        contacts = [v for v in cyc if degree[v] > 2]
        if len(contacts) != 1:
            # A cycle touching the rest of the graph in several vertices
            # belongs to the base (every one of its vertices must then
            # carry an attachment of its own).
            continue
        root = contacts[0]
        if root in interiors:
            return None
        interiors[root] = frozenset(cyc) - {root}
        kinds[root] = len(cyc)
    for u, v in g.terminal_edges():
        tip, root = (u, v) if degree[u] == 1 else (v, u)
        if root in interiors or degree[root] == 1:
            return None
        interiors[root] = frozenset([tip])
        kinds[root] = WHISKER
    interior_all = set()
    for s in interiors.values():
        if s & interior_all:
            return None
        interior_all |= s
    base_vs = set(g.vertices) - interior_all
    if base_vs != set(interiors):
        return None
    base = g.induced(base_vs)
    # Reconstruct and compare: interiors may not carry extra edges.
    expected = len(base.edges) + sum(
        1 if kinds[r] == WHISKER else kinds[r] for r in kinds)
    if len(g.edges) != expected:
        return None
    if any(ell not in (WHISKER, 3, 5) for ell in kinds.values()):
        return None
    return base, kinds


def stci_verdict(g):
    """Try each classification result in fixed order and return the strongest
    verdict; Unknown when nothing applies."""
    if g.edges and g.is_connected() and len(g.edges) == len(g.vertices):
        return classify_unicyclic(g)
    try:
        return corollary44(g)
    except HypothesisError:
        pass
    try:
        return corollary61(g)
    except HypothesisError:
        pass
    tail = _prop42_tail(g)
    if tail is not None:
        base, kinds = tail
        if covers.height(g) == covers.big_height(g):
            return CmVerdict(CM, "Yes", "Prop 4.2 tail",
                             {"base_vertices": sorted(base.vertices),
                              "attachments": {r: str(k)
                                              for r, k in kinds.items()}})
    return CmVerdict(UNKNOWN)
