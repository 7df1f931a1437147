"""Brute-force projective dimension of R/I(G) via Hochster's formula.

The graded Betti number beta_{i,W} is the rank of the reduced homology of the
independence complex Ind(G[W]) in degree |W| - i - 1.  All ranks, and so
every Betti number and pd reported here, are taken over the field F2 by
Gaussian elimination on bitmask rows.  The field matters: Katzman,
"Characteristic-independence of Betti numbers of graph ideals" (J. Combin.
Theory Ser. A 113, 2006), shows that Betti numbers of edge ideals can depend
on the characteristic from 11 vertices up, which is below the MAX_VERTICES
guard.  An answer from this module is an answer over F2.

`projective_dimension` visits every nonempty W of the non-isolated vertices
in increasing bitmask order and keeps the ranks of each in a table indexed
by mask, one table of 2^n entries per call.  Most W are settled from smaller
masks already in the table, by two rules that are exact over any field:

- Fold.  If u != v in W have N_W(u) a subset of N_W(v), then Ind(G[W]) is
  homotopy equivalent to Ind(G[W - v]) (Engstrom, "Independence complexes of
  claw-free graphs", European J. Combin. 29, 2008).  A homotopy equivalence
  keeps every homology group and its degree, so W takes the entry of W - v,
  which was itself folded: W ends with the ranks of its full fold.  A vertex
  u with no neighbour in W is the case N_W(u) empty: Ind(G[W]) is a cone
  with apex u, every other vertex folds away, and the point {u} that is left
  has no reduced homology.
- Split.  If no vertex of W folds and G[W] is disconnected, Ind(G[W]) is the
  join of its components' complexes, and over a field H~_n(X * Y) is the
  sum over a + b = n - 1 of H~_a(X) (x) H~_b(Y); the empty complex has rank
  1 in degree -1.  The components are smaller masks, already in the table.

Only a connected W in which no vertex folds is ranked from scratch: its
faces are listed as vertex bitmasks (`_independent_faces`) and one F2
eliminator ranks them (`_reduced_ranks`).  The module imports only `graphs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import GraphError

MAX_VERTICES = 14  # 2^14 subsets is the hard cap


class SizeGuardError(GraphError):
    pass


def _guard(g):
    active = g.non_isolated
    if len(active) > MAX_VERTICES:
        raise SizeGuardError("%d non-isolated vertices exceeds the oracle "
                             "guard (%d)" % (len(active), MAX_VERTICES))
    return active


def _reduced_ranks(levels):
    """Reduced F2 homology ranks {degree: rank}, zero ranks omitted, of the
    complex whose faces of cardinality k are the vertex bitmasks levels[k]
    (degree d faces have d+1 vertices; the empty face is degree -1).

    Each boundary row is an int over the lower faces; the pivot dict keys
    each reduced row by its lowest set bit.  The empty complex (only the
    empty face) has rank 1 in degree -1.
    """
    boundary_rank = [0] * (len(levels) + 1)  # cardinality k -> k-1
    for k in range(1, len(levels)):
        index = {f: 1 << i for i, f in enumerate(levels[k - 1])}
        pivots = {}
        for f in levels[k]:
            row, rest = 0, f
            while rest:
                low = rest & -rest
                rest ^= low
                row |= index[f ^ low]
            while row:
                low = row & -row
                if low not in pivots:
                    pivots[low] = row
                    break
                row ^= pivots[low]
        boundary_rank[k] = len(pivots)
    ranks = {}
    for k, faces in enumerate(levels):
        r = len(faces) - boundary_rank[k] - boundary_rank[k + 1]
        if r:
            ranks[k - 1] = r
    return ranks


def _independent_faces(nbr, w):
    """Independent subsets of the bitmask w, as bitmasks grouped by
    cardinality; nbr maps each vertex bit to its neighbour mask."""
    levels, frontier = [], [(0, w)]
    while frontier:
        levels.append([f for f, _ in frontier])
        grown = []
        for f, allowed in frontier:
            while allowed:
                low = allowed & -allowed
                allowed ^= low
                grown.append((f | low, allowed & ~nbr[low]))
        frontier = grown
    return levels


@dataclass(frozen=True)
class BettiTable:
    entries: dict = field(default_factory=dict)  # (i, |W|) -> total rank
    pd: int = 0

    def to_data(self):
        return {"pd": self.pd,
                "betti": [[i, j, r]
                          for (i, j), r in sorted(self.entries.items())]}


def _join(x, y):
    """Reduced ranks of the join X * Y from those of X and Y.  Over a field,
    H~_n(X * Y) is the sum over a + b = n - 1 of H~_a(X) (x) H~_b(Y)."""
    out = {}
    for a, r in x.items():
        for b, s in y.items():
            out[a + b + 1] = out.get(a + b + 1, 0) + r * s
    return out


def _components(nbr, w):
    """The connected components of G[w], as bitmasks."""
    while w:
        comp = frontier = w & -w
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= nbr[low]
            frontier = reach & w & ~comp
            comp |= frontier
        yield comp
        w &= ~comp


def _subset_ranks(nbr, w, table):
    """Reduced ranks of Ind(G[w]) by the fold and split rules of the module
    docstring; table holds the ranks of every smaller mask."""
    rest = w
    while rest:
        u = rest & -rest
        rest ^= u
        # v folds onto u when v != u is adjacent to every neighbour of u.
        folds = w ^ u
        nu = nbr[u] & w
        while nu:
            low = nu & -nu
            nu ^= low
            folds &= nbr[low]
        if folds:
            return table[w ^ (folds & -folds)]
    comps = list(_components(nbr, w))
    if len(comps) == 1:
        return _reduced_ranks(_independent_faces(nbr, w))
    ranks = {-1: 1}
    for c in comps:
        ranks = _join(ranks, table[c])
    return ranks


def _ranks_table(nbr, n):
    """Reduced F2 ranks {degree: rank} of Ind(G[w]) for every mask w of the
    n vertex bits, as a list indexed by w; entries may share one dict."""
    table = [{-1: 1}] + [None] * ((1 << n) - 1)
    for w in range(1, 1 << n):
        table[w] = _subset_ranks(nbr, w, table)
    return table


def projective_dimension(g):
    """(pd, BettiTable) of R/I(G) by Hochster's formula over F2.

    Every nonempty W with homology contains an edge, so its faces have at
    most |W| - 1 vertices and each homology degree gives an index i >= 1.
    """
    active = _guard(g)
    if not g.edges:
        return 0, BettiTable({}, 0)
    bit = {v: 1 << i for i, v in enumerate(active)}
    nbr = {bit[v]: sum(bit[u] for u in g.adj[v]) for v in active}
    entries = {}
    for w, ranks in enumerate(_ranks_table(nbr, len(active))):
        if w and ranks:
            size = w.bit_count()
            for deg, r in ranks.items():
                key = (size - deg - 1, size)
                entries[key] = entries.get(key, 0) + r
    pd = max(i for i, _ in entries)
    return pd, BettiTable(entries, pd)
