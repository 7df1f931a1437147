"""Exhaustive minimal-vertex-cover machinery.

Minimal vertex covers are exactly the complements (within the non-isolated
vertices) of maximal independent sets, and they generate the minimal primes
of the edge ideal, so height / big height / unmixedness all come out of one
enumeration.  The maximal independent sets are the maximal cliques of the
complement graph, found by `graphs.bron_kerbosch` on complement bitmasks.

`cover_stats` memoises its results for the _COVER_MEMO_SIZE most recently
used (graph, limit) pairs; `height`, `big_height` and
`maximum_minimal_covers` read from that memo.  A Graph is an immutable
value, so equal graphs share an entry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .graphs import Graph, GraphError, bron_kerbosch, edge

# Worst-case enumeration is exponential; this keeps interactive use under
# seconds.  Raise via the `limit` argument when you know what you are doing.
DEFAULT_VERTEX_LIMIT = 26

# theorem34_trace asks for the covers of the same subgraphs several times
# within one trace, so a small memo catches the repeats.  Measured on
# random cacti of 6-16 vertices: 1024 entries gave no more speed than 64
# and raised peak RSS from 50 to 71 MB.
_COVER_MEMO_SIZE = 64


class CoverSizeError(GraphError):
    pass


@dataclass(frozen=True)
class MinimalCover:
    """A minimal vertex cover of `host` (a generator set of a minimal prime)."""

    vertices: frozenset
    host: Graph

    def __len__(self):
        return len(self.vertices)

    def sorted(self):
        return tuple(sorted(self.vertices))


@dataclass(frozen=True)
class CoverStats:
    height: int
    big_height: int
    unmixed: bool
    all_covers: tuple


def maximal_independent_sets(g, limit=DEFAULT_VERTEX_LIMIT):
    """All maximal independent sets of the non-isolated part of g, sorted.

    Bron-Kerbosch with pivoting, run on the complement adjacency masks.
    """
    active = g.non_isolated
    if len(active) > limit:
        raise CoverSizeError(
            "%d non-isolated vertices exceeds the enumeration guard (%d)"
            % (len(active), limit))
    active_mask = sum(1 << i for i, m in enumerate(g.masks) if m)
    non_adj = [active_mask & ~m & ~(1 << i) for i, m in enumerate(g.masks)]
    return bron_kerbosch(g.vertices, non_adj, active_mask)


def enumerate_minimal_covers(g, limit=DEFAULT_VERTEX_LIMIT):
    """Every minimal vertex cover of g, canonically sorted and duplicate-free.

    Isolated vertices never appear in a minimal cover.  The edgeless graph
    has the empty cover as its only (and maximum) minimal cover.
    """
    active = frozenset(g.non_isolated)
    return [MinimalCover(active - ind, g)
            for ind in maximal_independent_sets(g, limit=limit)]


@functools.lru_cache(maxsize=_COVER_MEMO_SIZE)
def _cover_stats(g, limit):
    # Looked up as a module global so that a wrapped enumerate_minimal_covers
    # sees only the enumerations that really run.
    covers = enumerate_minimal_covers(g, limit=limit)
    sizes = [len(c) for c in covers]
    h, bh = min(sizes), max(sizes)
    return CoverStats(height=h, big_height=bh, unmixed=(h == bh),
                      all_covers=tuple(covers))


def cover_stats(g, limit=DEFAULT_VERTEX_LIMIT):
    """Height, big height, unmixedness and every minimal cover of g (memoised
    per (g, limit); a CoverSizeError is raised again on every call)."""
    return _cover_stats(g, limit)


def height(g, limit=DEFAULT_VERTEX_LIMIT):
    return cover_stats(g, limit=limit).height


def big_height(g, limit=DEFAULT_VERTEX_LIMIT):
    return cover_stats(g, limit=limit).big_height


def maximum_minimal_covers(g, limit=DEFAULT_VERTEX_LIMIT):
    """The minimal covers of maximum cardinality."""
    stats = _cover_stats(g, limit)
    return [c for c in stats.all_covers if len(c) == stats.big_height]


def vertex_in_every_maximum_cover(g, x, limit=DEFAULT_VERTEX_LIMIT):
    return all(x in c.vertices for c in maximum_minimal_covers(g, limit=limit))


def is_cover(g, vs):
    return all(u in vs or v in vs for u, v in g.edges)


def is_minimal_cover(g, vs):
    vs = frozenset(vs)
    if not is_cover(g, vs):
        return False
    return all(not is_cover(g, vs - {v}) for v in vs)


def is_redundant_neighbor(g, c: MinimalCover, x, y):
    """Def: y (a neighbour of x, with x outside the cover) is redundant in c
    when every neighbour of y other than x lies in c."""
    if x in c.vertices:
        raise GraphError("x must lie outside the cover")
    if y not in g.neighbors(x):
        raise GraphError("y must be a neighbour of x")
    return all(z in c.vertices for z in g.neighbors(y) if z != x)


def redundancy_remark_check(g, c: MinimalCover, x, y):
    """Oracle for the redundancy remark: y is redundant in c exactly when
    c minus y is a minimal vertex cover of g minus the edge xy.  Returns
    whether the two sides agree (they always should)."""
    lhs = is_redundant_neighbor(g, c, x, y)
    g_minus = g.without_edges([edge(x, y)])
    rhs = is_minimal_cover(g_minus, c.vertices - {y})
    return lhs == rhs


def induced_cover(c: MinimalCover, h: Graph):
    """The (possibly empty, possibly non-minimal) cover induced by c on a
    subgraph h of c's host."""
    if not h.is_subgraph(c.host):
        raise GraphError("h is not a subgraph of the cover's host")
    return frozenset(c.vertices & set(h.vertices))


def _split_overlap(g, g1):
    """Check g1 is a subgraph of g meeting its complement in one vertex x."""
    if not g1.is_subgraph(g):
        raise GraphError("g1 is not a subgraph of g")
    rest = g.edge_subgraph(g.edges - g1.edges)
    overlap = set(g1.vertices) & set(rest.vertices)
    if len(overlap) != 1:
        raise GraphError("vertex sets must overlap in exactly one vertex, "
                         "got %s" % sorted(overlap))
    return overlap.pop(), rest


def lemma26_check(g, g1, x, limit=DEFAULT_VERTEX_LIMIT):
    """Induced-cover size bound at an articulation vertex.

    With V(g1) and V(g minus g1) meeting exactly in x, and x in every maximum
    minimal cover of g1: for every maximum minimal cover C of g the cover
    induced on g1 has at most b1 elements, with equality when x is in C.
    Verified by enumeration; returns True when every instance checks.
    """
    ov, _ = _split_overlap(g, g1)
    if ov != x:
        raise GraphError("overlap vertex is %r, not %r" % (ov, x))
    if not vertex_in_every_maximum_cover(g1, x, limit=limit):
        raise GraphError("hypothesis not satisfied: some maximum minimal "
                         "cover of g1 avoids %r" % (x,))
    b1 = big_height(g1, limit=limit)
    for c in maximum_minimal_covers(g, limit=limit):
        d1 = induced_cover(c, g1)
        if len(d1) > b1:
            return False
        if x in c.vertices and len(d1) != b1:
            return False
    return True


def lemma27_union(g1, g2, x, case, limit=DEFAULT_VERTEX_LIMIT):
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
    max1 = maximum_minimal_covers(g1, limit=limit)
    max2 = maximum_minimal_covers(g2, limit=limit)
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
    maxima = maximum_minimal_covers(union_graph, limit=limit)
    if union_cover not in {c.vertices for c in maxima}:
        raise GraphError("internal invariant violation: union cover is not a "
                         "maximum minimal cover")
    return MinimalCover(union_cover, union_graph)
