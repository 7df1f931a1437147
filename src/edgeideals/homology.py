"""Brute-force projective dimension of R/I(G) via Hochster's formula.

The graded Betti number beta_{i,W} is the rank of the reduced homology of the
independence complex Ind(G[W]) in degree |W| - i - 1.  All ranks, and so
every Betti number and pd reported here, are taken over the field F2 by
Gaussian elimination on bitmask rows.  The field matters: Katzman,
"Characteristic-independence of Betti numbers of graph ideals" (J. Combin.
Theory Ser. A 113, 2006), shows that Betti numbers of edge ideals can depend
on the characteristic from 11 vertices up, which is below the MAX_VERTICES
guard.  An answer from this module is an answer over F2.

`projective_dimension` keeps the ranks of every nonempty W of the
non-isolated vertices in a table indexed by mask, one table of 2^n entries
per call.  Most W are settled from smaller masks by two rules that are
exact over any field:

- Fold.  If u != v in W have N_W(u) a subset of N_W(v), then Ind(G[W]) is
  homotopy equivalent to Ind(G[W - v]) (Engstrom, "Independence complexes of
  claw-free graphs", European J. Combin. 29, 2008).  A homotopy equivalence
  keeps every homology group and its degree, so W takes the entry of W - v,
  whichever fold is picked.  A vertex u with no neighbour in W is the case
  N_W(u) empty: Ind(G[W]) is a cone with apex u and has no reduced
  homology.
- Split.  If no vertex of W folds and G[W] is disconnected, Ind(G[W]) is the
  join of its components' complexes, and over a field H~_n(X * Y) is the
  sum over a + b = n - 1 of H~_a(X) (x) H~_b(Y); the empty complex has rank
  1 in degree -1.  The components are smaller masks, already in the table.

The cones and folds are found for all 2^n masks at once (`_screen`): with
one bit per W, the member set of vertex i is the 2^n-bit int of the W that
hold i, and the W in which i is isolated, or in which u folds v away, are
ands and and-nots of member sets.  One byte per W then codes cone, fold
(with the vertex folded) or neither.  A loop visits the non-cone W in
increasing mask order: a folded W copies the entry of W - v, and any other
W is split into its components by the component walk of `graphs`, the one
the graph queries run.

Only a connected W in which no vertex folds is ranked from scratch: its
faces are listed as vertex bitmasks (`_independent_faces`) and one F2
eliminator ranks them (`_reduced_ranks`).  The module imports only `graphs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import compress

from .graphs import GraphError, _components

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


def _independent_faces(masks, w):
    """Independent subsets of the bitmask w, as bitmasks grouped by
    cardinality; masks[i] is the neighbourhood of vertex i."""
    levels, frontier = [], [(0, w)]
    while frontier:
        levels.append([f for f, _ in frontier])
        grown = []
        for f, allowed in frontier:
            while allowed:
                low = allowed & -allowed
                allowed ^= low
                grown.append((f | low,
                              allowed & ~masks[low.bit_length() - 1]))
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


@cache
def _members(n):
    """Member sets: for each vertex bit i < n, the 2^n-bit int whose bit W
    is set iff bit i of W is.  That bit has period 2^(i+1), so one period
    is doubled up to 2^n bits."""
    out = []
    for i in range(n):
        block, size = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while size < 1 << n:
            block |= block << size
            size *= 2
        out.append(block)
    return tuple(out)


# Screen codes; a fold of vertex bit k is k + 1.  _CONE is 0 so that the
# codes themselves select the W the loop of _ranks_table visits.
_CONE, _SPLIT = 0, 255
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _avoiding(members, family, mask):
    """The W of family that hold no vertex bit of mask."""
    while mask:
        low = mask & -mask
        mask ^= low
        family &= ~members[low.bit_length() - 1]
    return family


def _digits(family, size):
    """The size-bit family as the int whose base-256 digit W is 1 where bit
    W of family is set and 0 elsewhere.  The bit set at `size` keeps the
    leading zeros in the binary string; [3:] drops it and the "0b"."""
    return int.from_bytes(bin(family | 1 << size)[3:].encode()
                          .translate(_DIGITS), "big")


def _screen(masks, n):
    """One code per mask W of the n vertex bits, as bytes: _CONE when some
    vertex of W has no neighbour in W, k + 1 when vertex bit k folds away
    (some u != k in W has N_W(u) within N_W(k)), and _SPLIT otherwise.

    Each rule is evaluated for all 2^n masks at once on the member sets,
    one bit per W; a W that several vertices fold gets the least of them.
    """
    size = 1 << n
    members = _members(n)
    settled = 0
    for i in range(n):
        settled |= _avoiding(members, members[i], masks[i])
    codes = 0
    for v in range(n):
        nv = masks[v]
        folds = 0
        for u in range(n):
            # u folds v away when W holds u and misses N(u) - N(v).  With no
            # common neighbour, u is isolated and W is a cone already; a u
            # adjacent to v, which W holds, never folds it.
            nu = masks[u]
            if u != v and nu & nv and not nu >> v & 1:
                folds |= _avoiding(members, members[u], nu & ~nv)
        folds &= members[v] & ~settled
        if folds:
            settled |= folds
            codes += _digits(folds, size) * (v + 1)
    codes += _digits(((1 << size) - 1) & ~settled, size) * _SPLIT
    return codes.to_bytes(size, "little")


def _ranks_table(masks, n):
    """Reduced F2 ranks {degree: rank} of Ind(G[w]) for every mask w of the
    n vertex bits, as a list indexed by w; entries may share one dict.

    The screen settles each cone (no homology) and each fold (the entry
    of w minus the folded vertex).  The loop visits the other w in
    increasing order and splits each into its components, whose smaller
    masks are already in the table, or, when G[w] is connected, ranks it
    by F2 elimination.
    """
    codes = _screen(masks, n)
    table = [{}] * (1 << n)
    table[0] = {-1: 1}
    for w in compress(range(1, 1 << n), codes[1:]):
        code = codes[w]
        if code != _SPLIT:
            table[w] = table[w ^ (1 << (code - 1))]
            continue
        comps = list(_components(masks, w))
        if len(comps) == 1:
            table[w] = _reduced_ranks(_independent_faces(masks, w))
        else:
            ranks = {-1: 1}
            for c in comps:
                ranks = _join(ranks, table[c])
            table[w] = ranks
    return table


def projective_dimension(g):
    """(pd, BettiTable) of R/I(G) by Hochster's formula over F2.

    Every nonempty W with homology contains an edge, so its faces have at
    most |W| - 1 vertices and each homology degree gives an index i >= 1.
    """
    active = _guard(g)
    if not g.edges:
        return 0, BettiTable({}, 0)
    if len(active) < len(g.vertices):
        g = g.drop_isolated()
    table = _ranks_table(g.masks, len(active))
    entries = {}
    for w, ranks in compress(enumerate(table), table):
        if w:
            size = w.bit_count()
            for deg, r in ranks.items():
                key = (size - deg - 1, size)
                entries[key] = entries.get(key, 0) + r
    pd = max(i for i, _ in entries)
    return pd, BettiTable(entries, pd)
