"""Arithmetical-rank upper bounds for edge ideals of cactus graphs.

The main bound is ara <= bight + n (n = number of cycles).  Besides the
closed-form bound, `theorem34_trace` replays the inductive proof on a concrete
graph, producing a decomposition tree in which every step's cover-cardinality
inequalities are re-verified on exact cover numbers.  An assertion failure
is a hard error: the inequalities are proved unconditionally, so a violation
means an implementation bug.  The cycles are found once, on the input graph,
and each proof step hands its parts the cycles they keep and their big
heights; degrees and terminal edges are read off the neighbourhood masks.
The numbers come from the linear dynamic program of `covers` (every part of
a cactus is a cactus), at most one pass per graph: a split step makes one
pass rooted at its vertex, takes its own big height from it (or checks the
one handed down) and combines its branch records into the big height of
every part and whether some maximum cover of G1, and of G2, avoids x.  A
graph whose big height is not handed down (the input, each component, each
graph with a cycle opened) and that does not split asks `covers.big_height`
once; an opening step reads its child's big height off the child's node.
Only Case 1.2 enumerates: the maximum covers of G2 that avoid x, under the
cover guard, sized by the big height of G2 that the split already holds.

The structural questions (cactus, cycles) are answered by `graphs`, which
also builds the Prop 4.2 graphs.  The branches at a split vertex are the
records of the `covers` DP pass rooted there, and the fully whiskered base
case reads `graphs._on_terminal_edges`.
"""

from __future__ import annotations

from collections import namedtuple

from . import covers, graphs
from .graphs import (WHISKER, Graph, GraphError, _bits, _on_terminal_edges,
                     build_attached_graph, edge)


class TraceInvariantError(GraphError):
    """A proof-step inequality failed on a concrete instance."""


class BoundReport(namedtuple("BoundReport", "n_cycles big_height bound "
                             "improvement_k source stci")):
    __slots__ = ()

    def __new__(cls, n_cycles, big_height, bound, improvement_k=0,
                source="Thm 3.4", stci=False):
        assert bound == big_height + n_cycles - improvement_k
        assert 0 <= improvement_k <= n_cycles
        return tuple.__new__(cls, (n_cycles, big_height, bound,
                                   improvement_k, source, stci))


def theorem34_bound(g):
    """ara I(G) <= bight I(G) + n for a cactus graph with n cycles."""
    n = graphs.cycle_count(g)
    bh = covers.big_height(g)
    return BoundReport(n, bh, bh + n)


# -- cycle opening ----------------------------------------------------


def fresh_vertex(g, base):
    name = base + "'"
    while name in g.vertices:
        name += "'"
    return name


def open_cycle(g, cycle, v):
    """Open a cycle (a vertex tuple) at a degree-2 vertex v: a fresh vertex
    y replaces v as the endpoint of one cycle edge at v, turning the cycle
    into a path.  The edge count is preserved; ara does not decrease and
    bight increases at most by one, so the bight + n budget is unchanged."""
    on_cycle = set(cycle)
    if v not in on_cycle:
        raise GraphError("%r does not lie on the cycle" % (v,))
    if v not in g.vertices:
        raise GraphError("unknown vertex %r" % (v,))
    vs = g.vertices
    nbrs = g.masks[vs.index(v)]
    if nbrs.bit_count() != 2:
        raise GraphError("%r has degree %d, need 2" % (v, nbrs.bit_count()))
    xs = min(vs[j] for j in _bits(nbrs) if vs[j] in on_cycle)
    y = fresh_vertex(g, v)
    return Graph(tuple(sorted(vs + (y,))),
                 g.edges - {edge(xs, v)} | {edge(xs, y)})


def corollary41_bound(g):
    """Improved bound bight + n - k, where k counts the cycles of length
    divisible by 3 in which all vertices have degree 2 except (at most) two
    consecutive ones."""
    n = graphs.cycle_count(g)  # raises GraphError on a non-cactus
    k = 0
    for walk in g._cactus_cycles:
        if len(walk) % 3 != 0:
            continue
        high = [i for i, v in enumerate(walk) if g.masks[v].bit_count() != 2]
        # two high vertices are consecutive on the cycle, or across its ends
        k += len(high) <= 1 or (len(high) == 2 and
                                high[1] - high[0] in (1, len(walk) - 1))
    bh = covers.big_height(g)
    return BoundReport(n, bh, bh + n - k, improvement_k=k, source="Cor 4.1")


def proposition42_bound(base, attachments):
    """Bound for the graph obtained by attaching a whisker or a cycle to
    every vertex of a base graph: bight + m, where m counts the attached
    cycles of length congruent to 1 mod 3.  When every cycle has length 3
    or 5, hgt = bight and the bound is the height (an STCI witness).

    Returns (BoundReport, constructed graph).
    """
    g, _ = build_attached_graph(base, attachments)
    lengths = [a for a in attachments.values() if a != WHISKER]
    m = sum(1 for ell in lengths if ell % 3 == 1)
    bh = covers.big_height(g)
    stci = all(ell in (3, 5) for ell in lengths)
    if stci and covers.height(g) != bh:
        raise TraceInvariantError(
            "hgt = bight must hold when all cycle lengths are 3 or 5")
    report = BoundReport(len(lengths), bh, bh + m,
                         improvement_k=len(lengths) - m,
                         source="Prop 4.2", stci=stci)
    return report, g


# -- proof-mirroring decomposition trace ------------------------------


class TraceNode(namedtuple("TraceNode", "graph case_tag bound cover_numbers "
                           "detail children")):
    # bound = bight + n of this node's graph; each node has its own dicts
    __slots__ = ()

    def __new__(cls, graph, case_tag, bound, cover_numbers=None, detail=None,
                children=()):
        return tuple.__new__(cls, (
            graph, case_tag, bound,
            {} if cover_numbers is None else cover_numbers,
            {} if detail is None else detail, children))

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

    def to_data(self):
        return {
            "case": self.case_tag,
            "bound": self.bound,
            "edges": [list(e) for e in self.graph.sorted_edges()],
            "cover_numbers": dict(self.cover_numbers),
            "detail": dict(self.detail),
            "children": [c.to_data() for c in self.children],
        }


def _check(cond, msg, **numbers):
    if not cond:
        raise TraceInvariantError(
            "%s (%s)" % (msg, ", ".join("%s=%s" % kv
                                        for kv in sorted(numbers.items()))))


def _budget_check(node):
    total = sum(c.bound for c in node.children)
    _check(total <= node.bound,
           "children exceed the bight + n budget in case %s" % node.case_tag,
           children=total, budget=node.bound)
    return node


def theorem34_trace(g):
    """Replay the inductive proof of the bight + n bound on g.

    The returned tree has one node per proof step: OpenCycle preprocessing,
    the two base cases, and the four split cases at a vertex lying on no
    terminal edge.  Every node records the cover cardinalities
    that the corresponding proof step reasons about, and the step's
    inequalities are asserted.  Isolated vertices are dropped up front
    (they carry no budget).
    """
    cycles = graphs.cycles(g)  # raises GraphError on a non-cactus
    g = g.drop_isolated()
    if not g.is_connected():
        children = tuple(
            _trace(c, [cyc for cyc in cycles if cyc[0] in c.vertices])
            for c in g.component_graphs())
        return _budget_check(TraceNode(g, "Components",
                                       covers.big_height(g) + len(cycles),
                                       children=children))
    return _trace(g, cycles)


def _trace(g, cycles, b=None):
    """The proof step at g, a connected cactus with no isolated vertex.

    `cycles` are g's cycles, vertex tuples in `graphs.cycles` order, handed
    down by the step above: an opened graph drops the opened cycle, G2 keeps
    the cycles inside it, G1 and G'1 keep the rest, and G2bar keeps those of
    G2 that avoid x.  A split step also hands each part its big height b,
    from its DP pass.  When b is not handed down, g's own step finds it: a
    split from its rooted pass, any other step from `covers.big_height`; so
    no graph gets two passes.  Degrees and terminal edges are read off
    `g.masks`.  Every inequality is still checked on exact cover numbers."""
    if len(g.edges) == 1:   # bight 1, no cycle
        return TraceNode(g, "Base-SingleEdge", 1)

    # Preprocessing: open cycles at degree-2 vertices until every cycle
    # vertex has degree > 2.  The child's bight is read off its node, as
    # the child's own step finds it.
    two = {v for v, m in zip(g.vertices, g.masks) if m.bit_count() == 2}
    for cycle in cycles:
        v = min(two.intersection(cycle), default=None)
        if v is not None:
            if b is None:
                b = covers.big_height(g)
            rest = [c for c in cycles if c is not cycle]
            child = _trace(open_cycle(g, cycle, v), rest)
            bh_child = child.bound - len(rest)
            _check(b <= bh_child <= b + 1,
                   "opening a cycle must keep bight within +1",
                   before=b, after=bh_child)
            node = TraceNode(g, "OpenCycle", b + len(cycles),
                             detail={"opened_at": v}, children=(child,))
            return _budget_check(node)

    # Base case when every vertex lies on a terminal edge, else split at the
    # least vertex on none.
    off_terminal = ((1 << len(g.vertices)) - 1) & ~_on_terminal_edges(g.masks)
    if not off_terminal:
        if b is None:
            b = covers.big_height(g)
        return TraceNode(g, "Base-FullyWhiskered", b + len(cycles))
    xi = (off_terminal & -off_terminal).bit_length() - 1
    return _split(g, xi, b, cycles)


def _split(g, xi, b, cycles):
    """One inductive step at x = g.vertices[xi]: pick the branch G2,
    classify by which maximum minimal covers contain x, recurse on the two
    parts.  One DP pass rooted at x gives g's big height (checked against
    b when b is handed down) and the branches at x, and combining their
    records gives the big height of every part (`covers._joined`, and
    `covers._without_root` for G2bar)."""
    x, xbit, full = g.vertices[xi], 1 << xi, (1 << len(g.vertices)) - 1
    dp = covers._cactus_numbers(g, xi)
    if dp is None or sum(br.mask for br in dp[2]) | xbit != full:
        raise GraphError("graph is not a connected cactus")
    _, bg, branches = dp
    _check(b is None or bg == b,
           "the split pass must give the big height handed down",
           handed=b, split=bg)
    b, bound = bg, bg + len(cycles)
    _check(len(branches) >= 2, "split vertex must have at least two branches",
           branches=len(branches))
    for br in branches:
        _check(br.mask.bit_count() > 1, "no branch may be a single edge")

    # G2: a branch avoidable at x if any, by its greatest least vertex (the
    # masks are disjoint and miss x: the greatest sorted index tuple)
    joined = {br: covers._joined([br]) for br in branches}
    g2_branch = max(branches,
                    key=lambda br: (joined[br][1], br.mask & -br.mask))
    b2, avoidable2 = joined[g2_branch]
    mask2, two_branch = g2_branch.mask, g2_branch.two
    rest = [br for br in branches if br is not g2_branch]
    b1, avoidable1 = covers._joined(rest)
    numbers = {"b": b, "b1": b1, "b2": b2}
    vs = g.vertices

    def part(mask, edges):
        return Graph(tuple(map(vs.__getitem__, _bits(mask))), edges)

    in_g2 = set(map(vs.__getitem__, _bits(mask2 | xbit)))
    g2 = part(mask2 | xbit, frozenset(e for e in g.edges
                                      if e[0] in in_g2 and e[1] in in_g2))
    g1 = part(full & ~mask2, g.edges - g2.edges)
    cycles1 = [c for c in cycles if not in_g2.issuperset(c)]
    cycles2 = [c for c in cycles if in_g2.issuperset(c)]
    ys = [vs[j] for j in _bits(g.masks[xi] & mask2)]
    detail = {"x": x, "g2_vertices": list(g2.vertices),
              "branch_kind": "2-branch" if two_branch else "1-branch"}

    def primed_parts():
        """G'1 = G1 plus the pendant edges xy_i; G2bar = G2 minus them
        (and minus the then-isolated x)."""
        pendant = frozenset(edge(x, y) for y in ys)
        g1p = part(full & ~mask2 | g.masks[xi] & mask2, g1.edges | pendant)
        g2bar = part(mask2, g2.edges - pendant)
        b1p = covers._joined(rest, len(ys))[0]
        b2bar = covers._without_root(g2_branch)
        numbers["b1_prime"] = b1p
        numbers["b2_bar"] = b2bar
        cycles2bar = [c for c in cycles2 if x not in c]
        if two_branch:
            _check(b1p <= b1 + 1, "2-branch: b1' <= b1 + 1 fails", **numbers)
            _check(len(cycles2bar) == len(cycles2) - 1,
                   "2-branch removal must open exactly one cycle")
        else:
            _check(b1p == b1, "1-branch: b1' = b1 fails", **numbers)
            _check(len(cycles2bar) == len(cycles2),
                   "1-branch removal must not change the cycle count")
        _check(b2bar <= b2 - 1, "b2bar <= b2 - 1 fails", **numbers)
        return (g1p, cycles1, b1p), (g2bar, cycles2bar, b2bar)

    if not avoidable1:
        if not avoidable2:
            tag = "Case1.1"
            _check(b == b1 + b2 - 1, "Case 1.1: b = b1 + b2 - 1 fails",
                   **numbers)
            children = primed_parts()
        else:
            # Some maximum cover of G2 avoids x; split a) / b) on whether
            # one of them leaves x without redundant neighbours: every
            # neighbour of x keeps a neighbour other than x outside the
            # cover, in its independent complement s.
            avoiding = covers.maximum_covers_avoiding(g2, x, b2)
            _check(bool(avoiding), "unforced branch must have an avoiding "
                                   "maximum cover")
            masks, at = g2.masks, g2.vertices.index
            not_x, ys_bits = ~(1 << at(x)), [at(y) for y in ys]
            clean = next((s for s in avoiding
                          if all(masks[j] & s & not_x for j in ys_bits)),
                         None)
            if clean is not None:
                tag = "Case1.2a"
                _check(b == b1 + b2, "Case 1.2a: b = b1 + b2 fails", **numbers)
                detail["cover_without_redundant"] = [
                    v for j, v in enumerate(g2.vertices)
                    if masks[j] and not clean >> j & 1]
                children = (g1, cycles1, b1), (g2, cycles2, b2)
            else:
                tag = "Case1.2b"
                _check(b <= b1 + b2 - 1, "inequality (3) fails", **numbers)
                children = primed_parts()
                if b == b1 + b2 - 2:
                    _check(two_branch, "b = b1 + b2 - 2 needs a 2-branch",
                           **numbers)
                    _check(numbers["b2_bar"] <= b2 - 2,
                           "final subcase: b2bar <= b2 - 2 fails", **numbers)
    else:
        tag = "Case2"
        _check(avoidable2,
               "Case 2 requires a branch with an avoiding maximum cover")
        _check(b == b1 + b2, "Case 2: b = b1 + b2 fails", **numbers)
        children = (g1, cycles1, b1), (g2, cycles2, b2)

    node = TraceNode(g, tag, bound, cover_numbers=numbers, detail=detail,
                     children=tuple(_trace(*c) for c in children))
    return _budget_check(node)
