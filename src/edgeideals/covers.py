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

The paper's cover-union lemmas are checked where they are used:
`bounds.theorem34_trace` re-verifies the inequalities of each proof step
from these enumerations, and asks `is_redundant_neighbor` for its Case 1.2
split.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .graphs import Graph, GraphError, bron_kerbosch

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


def is_redundant_neighbor(g, c: MinimalCover, x, y):
    """Def: y (a neighbour of x, with x outside the cover) is redundant in c
    when every neighbour of y other than x lies in c."""
    if x in c.vertices:
        raise GraphError("x must lie outside the cover")
    if y not in g.neighbors(x):
        raise GraphError("y must be a neighbour of x")
    return all(z in c.vertices for z in g.neighbors(y) if z != x)
