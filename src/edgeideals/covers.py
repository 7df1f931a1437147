"""Minimal vertex covers and the cover numbers of edge ideals.

Minimal vertex covers are exactly the complements (within the k non-isolated
vertices) of maximal independent sets, and they generate the minimal primes
of the edge ideal.  So the height is k - alpha (alpha: the largest
independent set), the big height is k - i (i: the smallest maximal
independent set, the independent domination number), and the ideal is
unmixed when the two agree.

Two paths give these numbers:
- on a cactus or forest, `_cactus_numbers` runs one linear dynamic program
  over the post-order of `graphs._cactus_dfs`, the DFS walk that also lists
  the cycles, with no size guard; rooted at a vertex, it also returns one
  record per branch there, which `_joined` combines into the big height
  of any union of branches (the trace's parts) and whether its root lies
  in a smallest maximal independent set;
- otherwise every maximal independent set is enumerated as an int mask, as
  a maximal clique of the complement (`graphs.bron_kerbosch` on complement
  bitmasks), under the size guard DEFAULT_VERTEX_LIMIT.
`height` and `big_height` try the first and fall back on the second.
`cover_stats`, behind the `covers` report, always enumerates; so does
`maximum_covers_avoiding`, which lists only the sets through one vertex.

What is computed for a graph is kept on that graph object, in its
instance `__dict__` (as `cached_property` keeps `Graph.masks`), and never
changed: under "_cover_pair" the (height, big_height) pair of one DP
pass, or None when the pass finds no cactus; under "_cover_stats" the
CoverStats of the enumeration, which on a cactus `cover_stats` also keeps
as the pair.  Neither refers back to its graph, so a graph is freed with
its numbers.  The guard is checked on every enumerating call before the
kept CoverStats is read, so a CoverSizeError is never cached.  The
MinimalCover values are built only when `all_covers` is read.

The paper's cover-union lemmas are checked where they are used:
`bounds.theorem34_trace` re-verifies the inequalities of each proof step
from these numbers.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .graphs import (Graph, GraphError, _bits, _cactus_dfs, _vertex_sets,
                     bron_kerbosch)

# Worst-case enumeration is exponential; this keeps interactive use under
# seconds.  It is the one size guard of the enumeration; the dynamic program
# on cacti does not read it.
DEFAULT_VERTEX_LIMIT = 26

# larger than any cover count: the cost of an impossible DP state
_INF = 1 << 40
_ALONE = (1, _INF, 0, 1, 0)   # the DP state of a vertex with nothing below
_LEAF = (0, 1, _INF, 0, 1)    # the DP terms of a pendant leaf (`_absorb`)
_Branch = namedtuple("_Branch", "mask two terms least")


class CoverSizeError(GraphError):
    pass


class MinimalCover(namedtuple("MinimalCover", "vertices")):
    """A minimal vertex cover (a generator set of a minimal prime)."""

    __slots__ = ()

    def __len__(self):
        return len(self.vertices)

    def sorted(self):
        return tuple(sorted(self.vertices))


class CoverStats(namedtuple("CoverStats",
                            "height big_height unmixed vertices independent")):
    """The cover numbers of a graph, kept as the int masks of its maximal
    independent sets (bit i: vertices[i], the graph's vertex labels); the
    complements of the smallest ones are the maximum covers.  `all_covers`
    is built from the masks on first read and kept in the instance
    `__dict__`; assignment is refused, as on a Graph."""

    __setattr__ = Graph.__setattr__
    __delattr__ = Graph.__delattr__

    def __repr__(self):
        return "CoverStats(height=%r, big_height=%r, unmixed=%r)" % (
            self.height, self.big_height, self.unmixed)

    @functools.cached_property
    def all_covers(self):
        """Every minimal cover, sorted by its independent complement."""
        sets = _vertex_sets(self.vertices, self.independent)
        # every non-isolated vertex lies in some maximal independent set
        active = frozenset().union(*sets)
        return tuple(MinimalCover(active - ind) for ind in sets)


def _guard(g):
    # The vertex count comes first: it bounds the non-isolated count and
    # needs no adjacency masks.
    if len(g.vertices) > DEFAULT_VERTEX_LIMIT \
            and len(g.non_isolated) > DEFAULT_VERTEX_LIMIT:
        raise CoverSizeError(
            "%d non-isolated vertices exceeds the enumeration guard (%d)"
            % (len(g.non_isolated), DEFAULT_VERTEX_LIMIT))


# -- the dynamic program on cacti and forests ---------------------------


def _absorb(s, t):
    """The state s of a vertex (in the set, out and dominated, out and
    waiting; alpha in, out) with one branch below it folded in: t holds
    what the branch costs with the vertex in, with it out and dominated
    from the branch, and with it out and not, then its two alpha terms."""
    i, d, w, ai, ao = s
    tin, ton, tnot, tai, tao = t
    return (i + tin, min(d + min(ton, tnot), w + ton), w + tnot,
            ai + tai, ao + tao)


def _cactus_numbers(g, x=-1):
    """(height, big height, branches at vertex index x) of g, or None when
    g is not a cactus.

    One DP over the post-order of `graphs._cactus_dfs`, rooted at x first:
    a vertex's state (see `_absorb`) holds the best sizes of the part below
    it.  The cycles topped at it fold in first, each by chain DPs along its
    chain: one with the top in the set, and two with it out, one of them
    waiting for the first chain vertex.  Then it folds into its parent
    across a bridge.

    Each DFS tree child of x gives a `_Branch`: its subtree as a vertex mask
    (the post-order run since the previous child of x), whether its tree
    edge lies on a cycle topped at x (a 2-branch), the terms it folds into
    x (`_absorb`), and the least size of a maximal independent set of the
    subtree alone (its alpha is the last term)."""
    dfs = _cactus_dfs(g.masks, x)
    if dfs is None:
        return None
    post, parent, chains, on_cycle = dfs
    below, run = {}, 0   # the subtree masks of the children of x
    for v in post if x >= 0 else ():
        run |= 1 << v
        if parent[v] == x:
            below[v], run = run, 0
    state, branches = [_ALONE] * len(parent), []
    alpha = least = 0
    for v in post:
        for chain in chains[v] if v in chains else ():
            xi, xd, xw = 0, _INF, _INF   # v in the set
            yi, yd, yw = _INF, _INF, 0   # v out, waiting for chain[0]
            zi, zd, zw = _INF, 0, _INF   # v out
            ai, ao, bi, bo = 0, -_INF, -_INF, 0   # alpha: v in, v out
            for c in chain:
                i, d, w, ci, co = state[c]
                m = min(d, w)
                xi, xd, xw = i + min(xd, xw), min(xi + m, xd + d), xd + w
                yi, yd, yw = i + min(yd, yw), min(yi + m, yd + d), yd + w
                zi, zd, zw = i + min(zd, zw), min(zi + m, zd + d), zd + w
                ai, ao, bi, bo = ci + ao, co + max(ai, ao), ci + bo, \
                    co + max(bi, bo)
            # zd may count sets with chain[0] in; as a waiting state of
            # v it is then only used where v is dominated anyway
            t = (min(xd, xw), min(yi, yd, zi), zd, ao, max(bi, bo))
            state[v] = _absorb(state[v], t)
            if v == x:
                branches.append(_Branch(below[chain[-1]], True, t,
                                        min(zi, zd)))
        if on_cycle >> v & 1:
            continue   # its top's chain DP reads its state
        p, (i, d, w, ai, ao) = parent[v], state[v]
        if p < 0:
            alpha += max(ai, ao)
            least += min(i, d)
        else:
            t = (min(d, w), i, d, ao, max(ai, ao))
            state[p] = _absorb(state[p], t)
            if p == x:
                branches.append(_Branch(below[v], False, t, min(i, d)))
    k = len(post)
    return k - alpha, k - least, branches


def _joined(branches, leaves=0):
    """(big height, whether the root lies in some smallest maximal
    independent set) of the root of a DP pass joined to some of its branch
    records and to `leaves` pendant leaves."""
    s, k = _ALONE, 1 + leaves
    for br in branches:
        s, k = _absorb(s, br.terms), k + br.mask.bit_count()
    for _ in range(leaves):
        s = _absorb(s, _LEAF)
    return k - min(s[0], s[1]), s[0] <= s[1]


def _without_root(branch):
    """The big height of the subtree of one branch record alone."""
    return branch.mask.bit_count() - branch.least


# -- the numbers kept on each graph ------------------------------------


def _numbers(g):
    """(height, big height, ...) of g: the pair of the one DP pass kept on
    g, else (g is no cactus, kept as None) `cover_stats`, whose first two
    fields are the same numbers."""
    kept = g.__dict__
    if "_cover_pair" not in kept:
        dp = _cactus_numbers(g)
        kept["_cover_pair"] = dp and dp[:2]
    return kept["_cover_pair"] or cover_stats(g)


# -- enumeration -----------------------------------------------------


def _maximal_independent(masks, drop=0):
    """The masks of the maximal independent sets of the non-isolated
    vertices outside `drop`, where masks[i] is the neighbourhood of vertex
    i: Bron-Kerbosch with pivoting on the complement adjacency masks."""
    w = sum(1 << i for i, m in enumerate(masks) if m) & ~drop
    return bron_kerbosch([w & ~m & ~(1 << i) for i, m in enumerate(masks)], w)


def cover_stats(g):
    """Height, big height, unmixedness and every minimal cover of g, by one
    enumeration kept on g; the guard is checked on every call, so a
    CoverSizeError is raised again each time."""
    _guard(g)
    kept = g.__dict__
    if "_cover_stats" not in kept:
        sets = _maximal_independent(g.masks)
        sizes = [s.bit_count() for s in sets]
        smallest, largest = min(sizes), max(sizes)
        k = len(g.non_isolated)
        kept["_cover_stats"] = CoverStats(
            height=k - largest, big_height=k - smallest,
            unmixed=(smallest == largest), vertices=g.vertices,
            independent=tuple(sets))
        if g._cactus_cycles is not None:
            # the DP needs no guard, so on a cactus the numbers stand alone
            kept.setdefault("_cover_pair", kept["_cover_stats"])
    return kept["_cover_stats"]


def height(g):
    return _numbers(g)[0]


def big_height(g):
    return _numbers(g)[1]


def maximum_covers_avoiding(g, x, bh):
    """The complements of the maximum minimal covers of g that avoid the
    vertex x: the smallest maximal independent sets through x, as int
    masks in `all_covers` order.  bh is the big height of g, which the
    caller already holds.  Only these sets are enumerated (x plus a
    maximal independent set of g - N[x]), under the size guard."""
    _guard(g)
    masks = g.masks
    i = g.vertices.index(x)
    size = len(g.non_isolated) - bh - 1
    sets = [s | 1 << i
            for s in _maximal_independent(masks, masks[i] | 1 << i)
            if s.bit_count() == size]
    return sorted(sets, key=lambda s: list(_bits(s)))
