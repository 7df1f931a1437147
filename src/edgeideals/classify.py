"""Cohen-Macaulay and set-theoretic-complete-intersection classification.

Covers the unicyclic characterization (five structural cases), the chordal /
no-C4-C5 equivalence, the girth-at-least-6 characterization, and a dispatcher
that returns the strongest applicable verdict with its citation tag.  The
structural recognizers it applies (cactus, cycles as vertex tuples,
chordality, simplexes, whisker graphs and trees, the short-cycle screen)
live in `graphs`; the case matchers here (`_match_case`, `_prop42_tail`)
combine them on `Graph.masks` and the cactus pass.  Cases 3 and 4 ask the
whisker kernel `graphs._whisker_base` about the graph minus its cycle, and
the Prop 4.2 tail reads its attachments off the degrees and the cycles,
building only the base graph it returns.  Case 5 tests Lemma 5.4's
hypothesis, G - {x3, x4} a whisker tree, as `constructions.gens_lemma54`
does.  Cor 4.4's simplexes are the closed neighbourhoods of the simplicial
vertices, so its partition test enumerates no cliques.  Cor 4.4 and Cor
6.1 share one verdict rule, `_purity_verdict`.
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
    # disjoint exactly when their sizes add up to the size of their union
    if sum(map(len, simplexes)) == len(frozenset().union(*simplexes)) \
            == len(g.vertices):
        return True, simplexes
    return False, None


def _case5_split(g, walk, degree):
    """Match the length-4 case by Lemma 5.4's hypothesis: two adjacent
    cycle vertices x3, x4 of degree 2, the other two, x1 and x2, of degree
    above 2, and G - {x3, x4} a whisker tree.  degree[i] is the degree of
    walk[i].  Returns evidence or None; its h1 and h2 are the sides of that
    tree once the edge x1x2 is cut."""
    for i in range(4):
        x4, x3, x2, x1 = walk[i:] + walk[:i]
        d4, d3, d2, d1 = degree[i:] + degree[:i]
        if not d3 == d4 == 2 < min(d1, d2):
            continue
        bridge = g.induced(set(g.vertices) - {x3, x4})
        if graphs.is_whisker_tree(bridge):
            cut = graphs.Graph(bridge.vertices,
                               bridge.edges - {graphs.edge(x1, x2)})
            h1, h2 = sorted(cut.component_graphs(),
                            key=lambda h: x2 in h.vertices)
            return {"x1": x1, "x2": x2, "h1": h1, "h2": h2}
    return None


def _match_case(g, cycle):
    """Which of the five structural cases an unmixed unicyclic graph falls
    into; returns (tag, evidence) or None.  The structural descriptions are
    faithful only under unmixedness (e.g. a triangle with a single whisker
    fits the wording of case 3 but is mixed, hence not Cohen-Macaulay)."""
    ell = len(cycle)
    masks = g.masks
    (ring_walk,) = g._cactus_cycles
    ring = sum(1 << i for i in ring_walk)
    degree = [masks[i].bit_count() for i in ring_walk]

    if len(masks) == ell and ell in (3, 5):
        return "Thm 5.1 case 1", {"cycle": cycle}

    ok, dec = graphs.is_whisker_graph(g)
    if ok:
        return "Thm 5.1 case 2", {"base": dec}

    # g minus its cycle is a forest, so the kernel decides whether each of
    # its components is a whisker tree or a single edge
    if ell in (3, 5) and graphs._whisker_base(
            [0 if ring >> i & 1 else m & ~ring
             for i, m in enumerate(masks)]) is not None:
        if ell == 3 and 2 in degree:
            return "Thm 5.1 case 3", {"cycle": cycle}
        if ell == 5 and not any(degree[i] > 2 and degree[i - 1] > 2
                                for i in range(5)):
            return "Thm 5.1 case 4", {"cycle": cycle}

    if ell == 4:
        evidence = _case5_split(g, cycle, degree)
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


def _purity_verdict(g, tag, structure, witness):
    """The verdict of a result under which purity holds exactly when the
    structure does: CM and STCI with the structure's witness, or NotCM with
    the cover numbers.  witness is False when the structure fails."""
    h, bh = covers.height(g), covers.big_height(g)
    if (h == bh) != bool(witness):
        raise GraphError("internal invariant violation: purity and the %s "
                         "must agree under the hypothesis" % structure)
    if witness:
        return CmVerdict(CM, "Yes", tag, witness)
    return CmVerdict(NOT_CM, case_tag=tag,
                     evidence={"height": h, "big_height": bh})


def corollary44(g):
    """For chordal graphs, or graphs without C4/C5 subgraphs: purity, CM,
    the simplex partition and STCI are all equivalent."""
    if not graphs.is_chordal(g) and graphs.has_cycle_subgraph(g, (4, 5)):
        raise HypothesisError("hypothesis not met: graph is neither chordal "
                              "nor free of length-4/5 cycle subgraphs")
    ok, partition = simplex_partition_check(g)
    return _purity_verdict(g, "Cor 4.4", "simplex partition", ok and {
        "partition": [sorted(s) for s in partition]})


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
    whisker, base = graphs.is_whisker_graph(g)
    return _purity_verdict(g, "Cor 6.1", "whisker decomposition", whisker and {
        "base_edges": [list(e) for e in base.sorted_edges()]})


def _prop42_tail(g):
    """Recognize g as a base graph with a whisker or a 3-/5-cycle attached to
    every base vertex (in which case the edge ideal is a set-theoretic
    complete intersection).  Returns (base, attachments) or None.

    An attached cycle has exactly one vertex of degree above 2, its root; a
    whisker tip has degree 1 and its neighbour as root.  Each other vertex
    of an attachment has degree 1, or 2 with both edges on its cycle, so the
    attachments are disjoint and hold every edge off the base."""
    cycles = g._cactus_cycles
    if cycles is None or not g.edges:
        return None
    degree = [m.bit_count() for m in g.masks]
    held, kinds = 0, {}   # kinds: root index -> WHISKER or cycle length
    for cyc in cycles:
        roots = [i for i in cyc if degree[i] > 2]
        if len(roots) != 1:   # a cycle of the base
            continue
        (root,) = roots
        if root in kinds:
            return None
        kinds[root] = len(cyc)
        held |= sum(1 << i for i in cyc if i != root)
    for tip, m in enumerate(g.masks):
        if degree[tip] == 1:
            root = m.bit_length() - 1
            if root in kinds:
                return None
            kinds[root] = WHISKER
            held |= 1 << tip
    # the base, what no attachment holds, must be exactly the roots
    if ((1 << len(degree)) - 1) & ~held != sum(1 << r for r in kinds) \
            or any(k not in (WHISKER, 3, 5) for k in kinds.values()):
        return None
    vs = g.vertices
    return (g.induced(vs[r] for r in sorted(kinds)),
            {vs[r]: kinds[r] for r in sorted(kinds)})


def stci_verdict(g):
    """Try each classification result in fixed order (unicyclic, Cor 4.4,
    the Prop 4.2 tail) and return the strongest verdict; Unknown when
    nothing applies.  Cor 6.1 is not asked: girth at least 6 leaves no C4
    or C5 subgraph, so Cor 4.4 answers first wherever Cor 6.1 would."""
    if g.edges and g.is_connected() and len(g.edges) == len(g.vertices):
        return classify_unicyclic(g)
    try:
        return corollary44(g)
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
