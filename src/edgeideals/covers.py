"""Exhaustive minimal-vertex-cover machinery.

Minimal vertex covers are exactly the complements (within the non-isolated
vertices) of maximal independent sets, and they generate the minimal primes
of the edge ideal, so height / big height / unmixedness all come out of one
enumeration.  The maximal independent sets are the maximal cliques of the
complement graph, found as int masks by `graphs.bron_kerbosch` on
complement bitmasks.

`cover_stats` memoises its results for the _COVER_MEMO_SIZE most recently
used graphs; `height`, `big_height`, `enumerate_minimal_covers`,
`maximum_minimal_covers` and `vertex_in_every_maximum_cover` read through
it.  A Graph is an immutable value, so equal graphs share an entry.  The
size guard DEFAULT_VERTEX_LIMIT is checked by `cover_stats` on every call,
outside the memo, so a CoverSizeError is never cached.  An entry holds the
masks, the cover numbers counted from them and the union of the smallest
sets (so a vertex is in every maximum cover iff it is non-isolated and
outside that union); the MinimalCover values are built only when
`all_covers` is first read.

The paper's cover-union lemmas are checked where they are used:
`bounds.theorem34_trace` re-verifies the inequalities of each proof step
from these enumerations, and asks `is_redundant_neighbor` for its Case 1.2
split.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .graphs import Graph, GraphError, _vertex_sets, bron_kerbosch

# Worst-case enumeration is exponential; this keeps interactive use under
# seconds.  It is the one size guard of the enumeration, read only by
# `cover_stats`.
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
    """The cover numbers of `graph`, kept as the int masks of its maximal
    independent sets (bit i: graph.vertices[i]); `avoidable` is the union of
    the smallest ones, whose complements are the maximum covers.
    `all_covers` is built from the masks on first read."""

    height: int
    big_height: int
    unmixed: bool
    graph: Graph = field(repr=False)
    independent: tuple = field(repr=False)
    avoidable: int = field(repr=False)

    @functools.cached_property
    def all_covers(self):
        """Every minimal cover, sorted by its independent complement."""
        g = self.graph
        active = frozenset(g.non_isolated)
        return tuple(MinimalCover(active - ind, g)
                     for ind in _vertex_sets(g.vertices, self.independent))


def _independent_masks(g):
    """The masks of the maximal independent sets of the non-isolated part of
    g: Bron-Kerbosch with pivoting on the complement adjacency masks."""
    active = sum(1 << i for i, m in enumerate(g.masks) if m)
    non_adj = [active & ~m & ~(1 << i) for i, m in enumerate(g.masks)]
    return bron_kerbosch(non_adj, active)


@functools.lru_cache(maxsize=_COVER_MEMO_SIZE)
def _cover_stats(g):
    # _independent_masks is looked up as a module global, so that a test can
    # count the enumerations that really run.
    sets = _independent_masks(g)
    sizes = [s.bit_count() for s in sets]
    smallest, largest = min(sizes), max(sizes)
    avoidable = 0
    for s, size in zip(sets, sizes):
        if size == smallest:
            avoidable |= s
    k = len(g.non_isolated)
    return CoverStats(height=k - largest, big_height=k - smallest,
                      unmixed=(smallest == largest), graph=g,
                      independent=tuple(sets), avoidable=avoidable)


def cover_stats(g):
    """Height, big height, unmixedness and every minimal cover of g (memoised
    per g; a CoverSizeError is raised again on every call)."""
    # The vertex count comes first: it bounds the non-isolated count and
    # needs no adjacency masks on a memo hit.
    if len(g.vertices) > DEFAULT_VERTEX_LIMIT \
            and len(g.non_isolated) > DEFAULT_VERTEX_LIMIT:
        raise CoverSizeError(
            "%d non-isolated vertices exceeds the enumeration guard (%d)"
            % (len(g.non_isolated), DEFAULT_VERTEX_LIMIT))
    return _cover_stats(g)


def enumerate_minimal_covers(g):
    """Every minimal vertex cover of g, canonically sorted and duplicate-free.

    Isolated vertices never appear in a minimal cover.  The edgeless graph
    has the empty cover as its only (and maximum) minimal cover.
    """
    return list(cover_stats(g).all_covers)


def height(g):
    return cover_stats(g).height


def big_height(g):
    return cover_stats(g).big_height


def maximum_minimal_covers(g):
    """The minimal covers of maximum cardinality."""
    stats = cover_stats(g)
    return [c for c in stats.all_covers if len(c) == stats.big_height]


def vertex_in_every_maximum_cover(g, x):
    """Whether x lies in every maximum minimal cover of g: x is not isolated
    and no smallest maximal independent set holds it (False for a label
    that is not a vertex of g)."""
    stats = cover_stats(g)
    if x not in g.vertices:
        return False
    i = g.vertices.index(x)
    return bool(g.masks[i]) and not stats.avoidable >> i & 1


def is_redundant_neighbor(g, c: MinimalCover, x, y):
    """Def: y (a neighbour of x, with x outside the cover) is redundant in c
    when every neighbour of y other than x lies in c."""
    if x in c.vertices:
        raise GraphError("x must lie outside the cover")
    if y not in g.neighbors(x):
        raise GraphError("y must be a neighbour of x")
    return all(z in c.vertices for z in g.neighbors(y) if z != x)
