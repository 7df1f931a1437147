"""Projective dimension and Betti table of R/I(G) via Hochster's formula.

The graded Betti number beta_{i,W} is the rank of the reduced homology of the
independence complex Ind(G[W]) in degree |W| - i - 1.  `projective_dimension`
takes one of two paths.

On a cactus (forests and edgeless graphs included), `_cactus_betti` runs
one dynamic program over the post-order of `graphs._cactus_dfs`, the
package's one cactus kernel, with no size guard.  Folds, joins and one
wedge split reduce every Ind(G[W]) to a wedge of spheres, so the table it
returns holds over every field.

On any other graph, `_table_betti` ranks all 2^n subsets W under the
MAX_VERTICES guard, by Gaussian elimination over F2 on bitmask rows.  The
field matters there: Katzman, "Characteristic-independence of Betti numbers
of graph ideals" (J. Combin. Theory Ser. A 113, 2006), shows that Betti
numbers of edge ideals can depend on the characteristic from 11 vertices
up, which is below the guard.  An answer from this path is an answer over
F2.

`_ranks_table` ranks every W of the non-isolated vertices in one
table per call: one byte per mask, the index of W's ranks among the
distinct rank dicts met so far.  Most W are settled by rules exact over
any field, found for all 2^n masks at once by `_screen` on member sets
(the 2^n-bit int of the W that hold vertex i, one bit per W):

- Cone.  A vertex with no neighbour in W is an apex: no reduced homology.
- Fold.  If u != v in W have N_W(u) a subset of N_W(v), then Ind(G[W]) is
  homotopy equivalent to Ind(G[W - v]) (Engstrom, "Independence complexes of
  claw-free graphs", European J. Combin. 29, 2008), so W copies the byte of
  W - v, whichever fold is picked.
- Matching.  If every vertex has exactly one neighbour in W, G[W] is an
  induced matching of c = |W|/2 edges and Ind(G[W]) is the sphere S^(c-1),
  the join of c copies of S^0; these W give Katzman's beta_{c,2c}, the
  number of induced matchings of c edges.  They never fold.
- Split.  Any other W is split into its components by the component walk
  of `graphs`.  Ind(G[W]) is their join, and over a field H~_n(X * Y) is the
  sum over a + b = n - 1 of H~_a(X) (x) H~_b(Y); the empty complex has rank
  1 in degree -1.  Only a connected W is ranked from scratch: its faces are
  listed as vertex bitmasks (`_independent_faces`) and one F2 eliminator
  ranks them (`_reduced_ranks`).

The Betti table is summed once per distinct entry: the W holding it are
counted in each size class |W| by popcount against the size classes that
`_members` caches with the member sets.  The module imports only `graphs`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import compress

from .graphs import GraphError, _cactus_dfs, _components

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


class BettiTable(namedtuple("BettiTable", "entries pd")):
    # entries: (i, |W|) -> total rank
    __slots__ = ()

    def __new__(cls, entries=None, pd=0):
        return tuple.__new__(cls, ({} if entries is None else entries, pd))

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
    """Member sets and size classes for n vertex bits: the 2^n-bit ints
    whose bit W is set iff W holds bit i, and iff W has s bits.  Bit i of W
    has period 2^(i+1), so one period is doubled up to 2^n bits; a W that
    holds bit i has one bit more than W - 2^i."""
    members, sizes = [], [1]
    for i in range(n):
        block, size = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while size < 1 << n:
            block |= block << size
            size *= 2
        members.append(block)
        sizes = [a | b << (1 << i) for a, b in zip(sizes + [0], [0] + sizes)]
    return tuple(members), tuple(sizes)


# Screen codes; a fold of vertex bit k is k + 1, at most MAX_VERTICES < 16.
# _CONE is 0 so that the codes themselves select the W _ranks_table visits.
_CONE, _MATCHING, _SPLIT = 0, 16, 17
_BYTE = 256  # the entries a one-byte table index can name
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


def _family(data, digit):
    """The int whose bit W is set iff byte W of data is digit, the inverse
    of _digits: the bytes become "1" or "0", reversed for int()."""
    return int(data.translate(b"0" * digit + b"1" + b"0" * (255 - digit))
               [::-1], 2)


def _screen(masks, n):
    """One code per mask W of the n vertex bits, as bytes: _CONE when some
    vertex of W has no neighbour in W, k + 1 when vertex bit k folds away
    (some u != k in W has N_W(u) within N_W(k)), _MATCHING when every vertex
    of W has exactly one neighbour in W, and _SPLIT otherwise.

    Each rule is evaluated for all 2^n masks at once on the member sets,
    one bit per W; a W that several vertices fold gets the least of them.
    The codes are summed from five bit planes, one _digits call each.
    """
    size = 1 << n
    members = _members(n)[0]
    settled = crowded = 0
    for i in range(n):
        # one: the W that hold a neighbour j of i; two: those that hold two
        one = two = 0
        for j in range(n):
            if masks[i] >> j & 1:
                two |= one & members[j]
                one |= members[j]
        settled |= members[i] & ~one
        crowded |= members[i] & two
    planes = [0] * 5
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
        settled |= folds
        for b in range(4):
            if (v + 1) >> b & 1:
                planes[b] |= folds
    # In what is left, a W that is not crowded is a matching.  No matching
    # folds: a fold gives a neighbour of u two neighbours, u and v.
    planes[4] = ((1 << size) - 1) & ~settled
    planes[0] |= planes[4] & crowded
    return sum(_digits(p, size) << b for b, p in enumerate(planes)
               ).to_bytes(size, "little")


def _ranks_table(masks, n):
    """(table, entries) for the n vertex bits: entries lists the distinct
    reduced F2 ranks {degree: rank} met, and table[w] indexes Ind(G[w])'s.
    Entry 0 is {}, a cone's; entry c + 1 is {c - 1: 1}, the sphere of an
    induced matching of c edges (c = 0: the empty W).

    The screen settles each cone, fold and matching.  The loop visits the
    other w in increasing order and joins the entries of the components,
    smaller masks already in the table, or, when G[w] is connected, ranks
    it by F2 elimination.  The table holds one byte per w, or ints once a
    257th entry is met.
    """
    codes = _screen(masks, n)
    table = bytearray(1 << n)
    entries = [{}] + [{c - 1: 1} for c in range(n // 2 + 1)]
    index = {frozenset(e.items()): i for i, e in enumerate(entries)}
    for w in compress(range(1 << n), codes):
        code = codes[w]
        if code < _MATCHING:
            table[w] = table[w ^ (1 << (code - 1))]
            continue
        if code == _MATCHING:
            table[w] = (w.bit_count() >> 1) + 1
            continue
        comps = list(_components(masks, w))
        if len(comps) == 1:
            ranks = _reduced_ranks(_independent_faces(masks, w))
        else:
            ranks = {-1: 1}
            for c in comps:
                ranks = _join(ranks, entries[table[c]])
        e = index.setdefault(frozenset(ranks.items()), len(entries))
        if e == len(entries):
            entries.append(ranks)
            if e == _BYTE:
                table = list(table)
        table[w] = e
    return table, entries


def _fold_cycle(states, y, block):
    """The factors (gone or kill, gone or bare, gone) that a cycle topped at
    v gives v's products in `_cactus_betti`; states lists the (gone, bare,
    kill) polynomials of its chain c1 .. cm, each adjacent to the next and
    c1, cm to v.

    Read as two children of v, a cycle acts by its end effects: a killer at
    c1 or cm, or the arm of bare vertices that runs from it.  The chain DP
    carries the pattern's class (the first arm's effect, one class per
    `block` bits: gone, bare, kill) and where the scan stands: idle (after a
    gone vertex or a deleted bare one), after a killer, or inside a run of
    r + 1 bare vertices, the last pending (a killer next deletes it), for r
    mod 3.  A run gains a suspension at its second, fifth, ... vertex, the
    arm count; a closed free run of length 1 mod 3 is contractible.  a is
    the all-bare product: the whole cycle, read by the wedge split.
    """
    def arm(length):   # the class and the suspensions of a first arm
        return length % 3 * block + (length + 1) // 3 * y

    def free(p, length):   # a free path P_length: a sphere, or contractible
        return 0 if length % 3 == 1 else p << (length + 2) // 3 * y

    a, idle, killer, r0, r1, r2 = 1, 0, 0, 0, 0, 0
    for j, (g, b, k) in enumerate(states):
        # the first arm (j bare vertices so far) closes at a gone vertex, or
        # at a killer, which deletes its last vertex
        idle, killer, r0, r1, r2, a = (
            g * (idle + killer + (r1 << y) + r2 + (a << arm(j)))
            + b * killer,
            k * (idle + r0 + r2 + (a << arm(j - 1))),
            b * (idle + r2), b * r0, b * r1 << y, a * b)
    # the last arm ends at cm: r2 closes gone, r0 bare and r1 kills
    mask = (1 << block) - 1
    gone, bare, kill = idle + r2, r0, killer + (r1 << y)
    g = gone & mask
    b = (gone >> block & mask) + (bare & mask) + (bare >> block & mask)
    k = (gone >> 2 * block) + (kill & mask) + (kill >> 2 * block)
    m = len(states)
    return g + k + free(a, m), g + b + free(a, m - 2), g


def _cactus_betti(masks):
    """The Betti entries {(i, j): rank} of R/I(G) over every field, where
    masks[i] is the neighbourhood of vertex i, by one dynamic program over
    the post-order of `graphs._cactus_dfs`; None when G is not a cactus.

    Bottom up, folds (Engstrom), joins and one wedge split reduce each
    Ind(G[W]) to a wedge of spheres.  Each vertex v ends in one of three
    states, each a polynomial in x^|W| y^s over the W-patterns of the part
    below it, weighted by the number of spheres S^(s-1) it leaves:
    - gone: v is not in W, or was deleted;
    - bare: v is in W with no neighbour left below;
    - kill: a leaf folded at v, so N[v] is deleted, v's neighbour above
      too, and the edge v-leaf splits off as one suspension.
    A bare child is a leaf at v and a killing child deletes v.  So v not in
    W is gone, over children that are gone or kill (a bare one would be a
    cone).  v in W is bare when every child is gone, kills when some child
    is bare and none kills, and is gone when some child kills and none is
    bare; with both it is a cone.  A cycle at v acts as two children, its
    ends (`_fold_cycle`).  If its whole chain is bare, Ind(G) is Ind(G - v)
    wedge the suspension of Ind(G - N[v]), since Ind(P_(m-2)) -> Ind(P_m)
    is null-homotopic: v is then gone with the cycle a free path P_m, or
    kills with it cut to P_(m-2).  Over v's children, qk is the product of
    gone or kill, qb of gone or bare (each all-bare cycle as those paths)
    and pg of gone: v in W kills with qb - pg and is gone with qk - pg.

    The polynomials are ints: the coefficient of x^j y^s sits at bit
    (j * S + s) * B.  Every suspension uses up two vertices of W, so
    S = n // 2 + 1 slots hold s <= j / 2.  A coefficient counts at most 2^n
    patterns of weight at most 2^c, one factor 2 per split, and a split uses
    up one of the c cycles, so B = n + c + 1 bits hold it.  A product is one
    int multiplication, and beta_{j-s, j} is the coefficient of x^j y^s.
    """
    dfs = _cactus_dfs(masks)
    if dfs is None:
        return None
    post, parent, chains, on_cycle = dfs
    n = len(post)
    # a shift by y bits multiplies by y, and by x bits by x
    y = n + sum(map(len, chains.values())) + 1
    x = (n // 2 + 1) * y
    block = (n + 1) * x   # one whole polynomial
    qk, qb, pg = [1] * len(masks), [1] * len(masks), [1] * len(masks)
    states, total = {}, 1
    for v in post:
        for chain in chains[v] if v in chains else ():
            fk, fb, fg = _fold_cycle([states[c] for c in chain], y, block)
            qk[v] *= fk
            qb[v] *= fb
            pg[v] *= fg
        gone = qk[v] + (qk[v] - pg[v] << x)
        bare, kill = pg[v] << x, qb[v] - pg[v] << x + y
        p = parent[v]
        if on_cycle >> v & 1:
            states[v] = gone, bare, kill
        elif p < 0:
            total *= gone + kill   # a bare root is a cone
        else:
            qk[p] *= gone + kill
            qb[p] *= gone + bare
            pg[p] *= gone
    betti, coef = {}, (1 << y) - 1
    for j in range(1, n + 1):
        for s in range(1, j // 2 + 1):
            r = total >> j * x + s * y & coef
            if r:
                betti[j - s, j] = r
    return betti


def _table_betti(g):
    """The Betti entries {(i, j): rank} of R/I(G) over F2 from the Hochster
    table of `_ranks_table`, under the size guard.

    Every nonempty W with homology contains an edge, so its faces have at
    most |W| - 1 vertices and each homology degree gives an index i >= 1.
    Each entry past the empty W's is summed once, over the W holding it
    counted in each size class by popcount.
    """
    n = len(_guard(g))
    table, entries = _ranks_table(g.drop_isolated().masks, n)
    sizes = _members(n)[1]
    betti = {}
    for e in range(2, len(entries)):
        held = _family(table, e) if len(entries) <= _BYTE else \
            _family(bytes(map(e.__eq__, table)), 1)
        for size, count in enumerate(map(int.bit_count,
                                         map(held.__and__, sizes))):
            if count:
                for deg, r in entries[e].items():
                    key = (size - deg - 1, size)
                    betti[key] = betti.get(key, 0) + r * count
    return betti


def projective_dimension(g):
    """(pd, BettiTable) of R/I(G): on a cactus by `_cactus_betti`, over
    every field and at any size; otherwise by Hochster's formula over F2,
    under the size guard."""
    betti = _cactus_betti(g.masks)
    if betti is None:
        betti = _table_betti(g)
    pd = max((i for i, _ in betti), default=0)
    return pd, BettiTable(betti, pd)
