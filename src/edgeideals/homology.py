"""Brute-force projective dimension of R/I(G) via Hochster's formula.

The graded Betti number beta_{i,W} is the rank of the reduced homology of the
independence complex restricted to W, in degree |W| - i - 1.  All ranks, and
so every Betti number and pd reported here, are taken over the field F2 by
Gaussian elimination on bitmask rows.  The field matters: Katzman,
"Characteristic-independence of Betti numbers of graph ideals" (J. Combin.
Theory Ser. A 113, 2006), shows that Betti numbers of edge ideals can depend
on the characteristic from 11 vertices up, which is below the MAX_VERTICES
guard.  An answer from this module is an answer over F2.

Only subsets W in which every vertex has a neighbour in W are visited.  If
some v in W has no neighbour in W, adding v to an independent set of G[W]
keeps it independent, so the restricted complex is a cone with apex v; a
cone is contractible, its reduced homology is zero in every degree, and
beta_{i,W} = 0 for every i.  Skipping such W is therefore exact.

`projective_dimension` is the only entry point: it lists the faces of each
restricted complex as vertex bitmasks (`_independent_faces`) and ranks them
with one F2 eliminator (`_reduced_ranks`).  The module imports only `graphs`.
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


def projective_dimension(g):
    """(pd, BettiTable) of R/I(G) by Hochster's formula over F2.

    Only subsets W of the non-isolated vertices with no vertex isolated in
    G[W] matter: any other W restricts to a cone (see the module docstring).
    Every visited W contains an edge, so its faces have at most |W| - 1
    vertices and each homology degree gives a homological index i >= 1.
    """
    active = _guard(g)
    if not g.edges:
        return 0, BettiTable({}, 0)
    bit = {v: 1 << i for i, v in enumerate(active)}
    nbr = {bit[v]: sum(bit[u] for u in g.adj[v]) for v in active}
    entries = {}
    for w in range(1, 1 << len(active)):
        if any(b & w and not m & w for b, m in nbr.items()):
            continue
        size = w.bit_count()
        for deg, r in _reduced_ranks(_independent_faces(nbr, w)).items():
            key = (size - deg - 1, size)
            entries[key] = entries.get(key, 0) + r
    pd = max(i for i, _ in entries)
    return pd, BettiTable(entries, pd)
