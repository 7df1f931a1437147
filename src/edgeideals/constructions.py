"""Explicit radical generator sets for the covered graph families.

Every constructor returns a (GeneratorSet, Certificate) pair; the verifier in
`certificates` is the single source of truth for correctness.  Construction
code never trusts itself: tests re-verify every emitted certificate.

Each constructor writes into one CertBuilder.  The pieces it glues together
(cycles, path cascades, whisker trees, Schmitt-Vogel layerings) are emitters
that take the builder and add their generators and steps in any
interleaving: refs are handed out in call order, and CertBuilder.result
numbers the generators first.  Only the layerings come from a search, an
exponential one, and the search is an emitter too: _layer_search writes the
layering it finds into the builder that sv_layer_search or gens_prop42
passes, and returns whether it found one.  Each constructor
checks its input once, where it enters, and the emitters check nothing:
a whisker tree is checked by gens_whisker_tree, by _attachment_case, or
as Lemma 5.4's hypothesis that G - {x3, x4} is one in gens_lemma54.
"""

from __future__ import annotations

from . import covers
from .certificates import CertBuilder
from .graphs import (WHISKER, Graph, GraphError, _bits, build_attached_graph,
                     cycle_graph, edge, is_whisker_tree)
from .polynomials import Monomial, Polynomial


class ConstructionError(GraphError):
    pass


class SearchBudgetError(ConstructionError):
    """A generator search found no layering within the layer cap (a normal,
    explicit outcome; never silently worked around)."""


def _m(*vs):
    return Monomial.of(*vs)


def _p(*vs):
    return Polynomial.term(Monomial.of(*vs))


def _sum(*monomials):
    return Polynomial.of(*monomials)


# -- cycles of length 3, 4, 5 -----------------------------------------


def default_cycle_labels(length):
    return tuple("x%d" % (i + 1) for i in range(length))


def _cycle(b, v, base_ref):
    """Emit the generators and steps of a cycle on the 3, 4 or 5 labels v,
    given the ref of its established v1v2 monomial."""
    if len(v) == 3:
        b.sv(base_ref, b.gen(_sum(_m(v[1], v[2]), _m(v[0], v[2]))))
    elif len(v) == 4:
        g1 = b.gen(_sum(_m(v[0], v[3]), _m(v[1], v[2])))
        b.gen(_p(v[2], v[3]))
        b.sv(base_ref, g1)
    else:
        # g2 = v2v3 + v4v5 and g3 = v1v5 + v3v4
        v1, v2, v3, v4, v5 = v
        g2 = b.gen(_sum(_m(v2, v3), _m(v4, v5)))
        g3 = b.gen(_sum(_m(v1, v5), _m(v3, v4)))
        # (v2v3)^2 = v2v3*g2 - v2v5*g3 + v5^2*(v1v2)
        r23 = b.power(_m(v2, v3), 2, [(_p(v2, v3), g2), (-_p(v2, v5), g3),
                                      (_p(v5, v5), base_ref)])
        r45 = b.linear(g2, [r23])
        # (v1v5)^2 = v1v5*g3 - v1v3*(v4v5)
        r15 = b.power(_m(v1, v5), 2, [(_p(v1, v5), g3), (-_p(v1, v3), r45)])
        b.linear(g3, [r15])


def gens_cycle(length):
    """The explicit generator sets for C3, C4, C5 (counts 2, 3, 3)."""
    if length not in (3, 4, 5):
        raise ConstructionError("explicit cycle constructions cover lengths "
                                "3, 4 and 5 only (got %d)" % length)
    v = default_cycle_labels(length)
    b = CertBuilder(cycle_graph(v))
    _cycle(b, v, b.gen(_p(v[0], v[1])))
    return b.result()


# -- the 5-cycle with length-2 paths at two opposite vertices ---------


def lemma52_graph(x=None, r_paths=(), s_paths=()):
    """C5 on x (default x1..x5) with paths x1-a-b for (a, b) in r_paths and
    x3-c-d for (c, d) in s_paths."""
    x = tuple(x) if x else default_cycle_labels(5)
    edges = list(cycle_graph(x).edges)
    for a, bb in r_paths:
        edges += [(x[0], a), (a, bb)]
    for c, d in s_paths:
        edges += [(x[2], c), (c, d)]
    return Graph.build(edges)


def _chain(b, root, paths):
    """Emit the generators x_root a_1, h_i = root*a_{i+1} + a_i b_i for a
    cascade of length-2 paths, and the steps establishing every root*a_i
    and every a_i b_i except the last."""
    b.gen(_p(root, paths[0][0]))
    for (a, _), (a2, b2) in zip(paths[1:], paths[:-1]):
        b.sv(b.ref(_m(root, a2)), b.gen(_sum(_m(root, a), _m(a2, b2))))


def _lemma52(b, x, r_paths, s_paths):
    """Emit the generators and steps of the 5-cycle-with-paths family; the
    generator count is always len(r_paths) + len(s_paths) + 3."""
    x1, x2, x3, x4, x5 = x
    if not s_paths and not r_paths:
        _cycle(b, x, b.gen(_p(x1, x2)))
        return
    if not s_paths:
        ar, br = r_paths[-1]
        _chain(b, x1, r_paths)
        b.sv(b.ref(_m(x1, ar)), b.gen(_sum(_m(x1, x2), _m(ar, br))))
        _cycle(b, x, b.ref(_m(x1, x2)))
        return
    if not r_paths:
        # Mirror through the C5 automorphism x1<->x3, x4<->x5.
        _lemma52(b, (x3, x2, x1, x5, x4), s_paths, ())
        return

    ar, br = r_paths[-1]
    cs, ds = s_paths[-1]
    _chain(b, x1, r_paths)
    p1_ref = b.gen(_sum(_m(x1, x2), _m(ar, br), _m(x4, x5)))
    p2_ref = b.gen(_sum(_m(x1, x5), _m(x2, x3), Monomial.of(ar, x4, x5)))
    _chain(b, x3, s_paths)
    b.sv(b.ref(_m(x3, cs)),
         b.gen(_sum(_m(cs, ds), _m(x3, x4))))  # -> cs*ds, x3*x4

    x1ar = b.ref(_m(x1, ar))
    x3x4 = b.ref(_m(x3, x4))
    # t = x1^2 x2 - ar x4^2 x5 expressed over established elements:
    # t = -br*(x1 ar) + x1*p1 - x4*p2 + x2*(x3 x4)
    t_combo = [(-_p(br), x1ar), (_p(x1), p1_ref),
               (-_p(x4), p2_ref), (_p(x2), x3x4)]

    def scaled(factor, extra):
        return [(factor * c, ref) for c, ref in t_combo] + extra

    # (x1x2)^3 = x1 x2^2 * t + x2^2 x4^2 x5 * (x1 ar)
    r12 = b.power(_m(x1, x2), 3,
                  scaled(_p(x1, x2, x2), [(_p(x2, x2, x4, x4, x5), x1ar)]))
    # (ar x4 x5)^2 = -ar x5 * t + x1 x2 x5 * (x1 ar)
    r45a = b.power(Monomial.of(ar, x4, x5), 2,
                   scaled(-_p(ar, x5), [(_p(x1, x2, x5), x1ar)]))
    # (ar br)^2 = ar br * p1 - br x2 * (x1 ar) - br * (ar x4 x5)
    rab = b.power(_m(ar, br), 2, [(_p(ar, br), p1_ref),
                                  (-_p(br, x2), x1ar),
                                  (-_p(br), r45a)])
    r45 = b.linear(p1_ref, [r12, rab])
    # (x1x5)^2 = x1 x5 * p2 - x3 x5 * (x1 x2) - x1 x5 * (ar x4 x5)
    r15 = b.power(_m(x1, x5), 2, [(_p(x1, x5), p2_ref),
                                  (-_p(x3, x5), r12),
                                  (-_p(x1, x5), r45a)])
    b.linear(p2_ref, [r15, r45a])


def default_path_labels(prefix_a, prefix_b, count):
    return [("%s%d" % (prefix_a, i + 1), "%s%d" % (prefix_b, i + 1))
            for i in range(count)]


def gens_lemma52(r, s, x=None, r_paths=None, s_paths=None):
    """Generator set of size r + s + 3 for the 5-cycle with r length-2 paths
    at x1 and s at x3 (where hgt = bight = r + s + 3)."""
    if r < 0 or s < 0:
        raise ConstructionError("r and s must be nonnegative")
    x = tuple(x) if x else default_cycle_labels(5)
    r_paths = list(r_paths) if r_paths is not None else \
        default_path_labels("a", "b", r)
    s_paths = list(s_paths) if s_paths is not None else \
        default_path_labels("c", "d", s)
    if len(r_paths) != r or len(s_paths) != s:
        raise ConstructionError("path label count mismatch")
    g = lemma52_graph(x, r_paths, s_paths)
    if len(g.vertices) != 5 + 2 * (r + s):
        raise ConstructionError("path labels collide")
    b = CertBuilder(g)
    _lemma52(b, x, r_paths, s_paths)
    return b.result()


# -- Schmitt-Vogel layer search ---------------------------------------
#
# Edge i is bit i of a mask, over the edge monomials in the polynomial
# term order.
# witnesses[i][j] is the mask of the edges with both ends among the ends of
# edges i and j: for square-free degree-2 monomials, exactly the d with
# d | e*f.  Two remaining edges can share a layer when an earlier edge, one
# outside the remaining mask, is such a witness.


def _witness_table(monomials):
    """witnesses[i][j] for edges i = ab and j = cd: the bits of ab and cd
    and of whichever of ac, ad, bc, bd are edges (a pair with a repeated
    vertex is no edge)."""
    ends = [[v for v, _ in m.exps] for m in monomials]
    nbr = {}  # nbr[u][w]: the bit of the edge uw
    for i, (u, w) in enumerate(ends):
        nbr.setdefault(u, {})[w] = nbr.setdefault(w, {})[u] = 1 << i
    table = []
    for i, (a, b) in enumerate(ends):
        at_a, at_b = nbr[a].get, nbr[b].get
        table.append([1 << i | 1 << j | at_a(c, 0) | at_a(d, 0) | at_b(c, 0)
                      | at_b(d, 0) for j, (c, d) in enumerate(ends)])
    return table


def _compatible_cliques(remaining, monomials, witnesses):
    """Maximal sets of remaining edges that can share a layer, as masks,
    largest first (Bron-Kerbosch on the compatibility graph).

    The recursion's sets hold the edge monomials, which hash and compare
    as their field tuples (m.exps,), in C.  Pivot ties and the clique order
    follow those hashes, that is string-hash order, so they can differ
    between PYTHONHASHSEED values."""
    earlier = ~remaining
    idx = list(_bits(remaining))
    # Every set is filled in bit order, which is the polynomial term order
    # (see _edge_monomials): this fixes its iteration order for a given hash
    # seed.  Branches also go in bit order, and r is the clique's mask.
    rem = [monomials[i] for i in idx]
    rank = dict(zip(rem, idx))
    compat = {k: {monomials[j] for j in idx
                  if j != i and witnesses[i][j] & earlier}
              for i, k in zip(idx, rem)}
    out = []

    def bk(r, p, x):
        if not p and not x:
            out.append(r)
            return
        pivot = max(p | x, key=lambda k: len(compat[k] & p))
        for k in sorted(p - compat[pivot], key=rank.__getitem__):
            bk(r | 1 << rank[k], p & compat[k], x & compat[k])
            p = p - {k}
            x = x | {k}

    bk(0, frozenset(rem), frozenset())
    return sorted(out, key=int.bit_count, reverse=True)


def _search_layers(n, p0, max_layers, cliques):
    """Exact search for a layered partition of the n edges into at most
    max_layers layer masks, starting with the singleton layer {p0}.  Layers
    are maximal compatible sets; cliques(remaining) gives them."""
    dead = set()

    def go(remaining, depth):
        if not remaining:
            return []
        if depth == 0 or remaining in dead:
            return None
        for layer in cliques(remaining):
            tail = go(remaining & ~layer, depth - 1)
            if tail is not None:
                return [layer] + tail
        dead.add(remaining)
        return None

    rest = go(((1 << n) - 1) & ~(1 << p0), max_layers - 1)
    if rest is None:
        return None
    return [1 << p0] + rest


def _edge_monomials(g):
    """The edge monomials of g in the polynomial term order, the bit order
    of masks."""
    return [Monomial.of(u, v) for u, v in g.sorted_edges()]


def sv_layer_search(g, max_layers=None):
    """Search for a Schmitt-Vogel layering of the edge monomials of g.

    Tries each edge as the singleton bottom layer; within each start an
    exact backtracking search looks for the smallest layer count up to
    max_layers (default: the edge count).
    Returns a (GeneratorSet, Certificate) pair whose generators are the
    layer sums, or None when no layering within max_layers is found.
    Absence of a result is a normal outcome.

    No layering is shorter than the big height of g: its layer sums
    generate the edge ideal up to radical, so layers >= ara >= pd >= bight,
    the middle step by Lyubeznik (1984) for square-free monomial ideals.
    So a cap below big height returns None before any clique is built, and
    the starts stop once a layering of big height is found, since a later
    start could only look for a shorter one.  The big height of a cactus
    or forest comes from a linear DP at any size; on any other graph above
    the cover guard (covers.DEFAULT_VERTEX_LIMIT) the floor is 1 and every
    start runs.

    Among equally short layerings the search returns the first it meets,
    in an order that follows the string hashes of the vertex labels, so the
    generators can differ between PYTHONHASHSEED values: the clique
    recursion keeps sets of the edge monomials, whose hashes are those of
    their field tuples.  The minimal layer count does not depend on that
    order: the count found was the same under eight seeds
    on every tree of at most 9 vertices and on 40 random cacti.
    """
    b = CertBuilder(g)
    return b.result() if _layer_search(g, max_layers, b) else None


def _layer_search(g, max_layers, b):
    """The search of sv_layer_search, from every edge as the start.  It
    emits the shortest layering it finds into b, one generator per layer
    sum and the steps establishing every monomial of the later layers, and
    returns whether it found one.  The witness of a pair is the least
    earlier edge dividing its product."""
    monomials = _edge_monomials(g)
    if not monomials:
        raise ConstructionError("graph has no edges")
    cap = max_layers if max_layers is not None else len(monomials)
    if cap < 1:
        raise ConstructionError("max_layers must be at least 1")
    try:
        floor = covers.big_height(g)
    except covers.CoverSizeError:
        floor = 1
    if cap < floor:
        return False
    witnesses = _witness_table(monomials)
    table = {}

    def cliques(remaining):
        if remaining not in table:
            table[remaining] = _compatible_cliques(remaining, monomials,
                                                   witnesses)
        return table[remaining]

    best = None
    for p0 in range(len(monomials)):
        if best is not None and len(best) <= floor:
            break
        depth = (len(best) - 1) if best is not None else cap
        layers = _search_layers(len(monomials), p0, depth, cliques)
        if layers is not None and (best is None or len(layers) < len(best)):
            best = layers
    if best is None:
        return False

    def rho(i, j):
        w = witnesses[i][j] & earlier
        return monomials[(w & -w).bit_length() - 1]

    b.gen(_sum(*(monomials[i] for i in _bits(best[0]))))
    earlier = best[0]
    for layer in best[1:]:
        idx = list(_bits(layer))
        ref = b.gen(_sum(*(monomials[i] for i in idx)))
        if len(idx) == 2:
            b.sv(b.ref(rho(*idx)), ref)
        elif len(idx) > 2:
            for i in idx:
                mu = monomials[i]
                combo = [(Polynomial.term(mu), ref)]
                for j in idx:
                    if j != i:
                        d = rho(i, j)
                        q = (mu * monomials[j]) / d
                        combo.append((-Polynomial.term(q), b.ref(d)))
                b.power(mu, 2, combo)
        earlier |= layer
    return True


def _children(t, w, parent=None):
    """The children of w in the whisker tree t, rooted away from parent:
    its base neighbours in label order, then its whisker."""
    return sorted(t.neighbors(w) - {parent},
                  key=lambda c: (t.degree(c) == 1, c))


def _whisker_tree(b, t, anchor_edge):
    """Emit the n - 1 generators of the whisker tree t (n non-terminal
    vertices) after its anchor edge uv, a non-terminal edge of t that the
    caller has checked and established.
    Rooted at uv, a base vertex w with base children c1 < ... < ck hands
    w c1 to the sum of its parent edge, w c(i+1) to the sum of w ci and its
    whisker to the sum of w ck.  So each base edge xy, breadth-first from
    uv, gets an edge at x plus one at y, which one SV step by xy splits."""
    u, v = anchor_edge
    hand = {u: _children(t, u, v), v: _children(t, v, u)}
    b.sv(b.ref(_m(u, v)), b.gen(_sum(_m(u, hand[u][0]), _m(v, hand[v][0]))))
    queue = [u, v]
    for w in queue:  # grows as it goes: breadth-first
        for c, end in zip(hand[w], hand[w][1:]):
            hand[c] = _children(t, c, w)
            b.sv(b.ref(_m(w, c)), b.gen(_sum(_m(w, end), _m(c, hand[c][0]))))
            queue.append(c)


def gens_whisker_tree(t, anchor_edge):
    """n polynomials (n = number of non-terminal vertices) generating the
    edge ideal of a whisker tree up to radical, with the anchor edge as a
    standalone monomial generator.  Built directly, with no search."""
    if not is_whisker_tree(t):
        raise ConstructionError("graph is not a whisker tree")
    u, v = anchor_edge
    if edge(u, v) not in t.edges:
        raise ConstructionError("anchor is not an edge")
    if t.degree(u) == 1 or t.degree(v) == 1:
        raise ConstructionError("anchor edge must be non-terminal")
    b = CertBuilder(t)
    b.gen(_p(*anchor_edge))
    _whisker_tree(b, t, anchor_edge)
    return b.result()


# -- attaching whiskers/cycles to every vertex of a base graph --------


def gens_prop42(base, attachments):
    """Generator set of size sum(a_i) for a base graph with a whisker or a
    cycle of length 3, 4 or 5 attached to each vertex (a_i = 1 for whiskers,
    2/3/3 for the cycles)."""
    for v, att in attachments.items():
        if att != WHISKER and att not in (3, 4, 5):
            raise ConstructionError(
                "cycle length %r not supported (only 3, 4, 5)" % (att,))
    g, labels = build_attached_graph(base, attachments)
    # Whisker graph on the base: one pendant per base vertex (for cycles, the
    # first cycle neighbour plays the pendant).  Attachments meet nothing but
    # their own root, so g induces exactly these edges on those vertices.
    wg = g.induced([*base.vertices, *(labels[v][1] for v in base.vertices)])
    n = len(base.vertices)
    b = CertBuilder(g)
    if not _layer_search(wg, n, b):
        raise SearchBudgetError(
            "no %d-layer generator set found for the whisker graph" % n)
    for v in base.vertices:
        if attachments[v] != WHISKER:
            ring = labels[v]
            _cycle(b, ring, b.ref(_m(ring[0], ring[1])))
    return b.result()


# -- whisker-tree attachments at x1/x3 of the 5-cycle family ----------


def _attachment_case(att, root):
    """Split an attachment into (e, f, stripped, anchor).  e is the unique
    neighbour of the root, stripped is the induced graph off the root, and
    root-e-f is a length-2 path of the 5-cycle family.  In case A (e
    non-terminal in stripped) f is e's least base neighbour and anchor is
    None.  In case B (e a whisker tip) f is e's base vertex and anchor is
    (f, c1), with c1 the least base neighbour of f."""
    if root not in att.vertices:
        raise ConstructionError("attachment does not contain %r" % root)
    nbrs = sorted(att.neighbors(root))
    if len(nbrs) != 1:
        raise ConstructionError("root must have exactly one neighbour in the "
                                "attachment")
    e = nbrs[0]
    stripped = att.induced(set(att.vertices) - {root})
    if not is_whisker_tree(stripped):
        raise ConstructionError("attachment minus the root is not a whisker "
                                "tree")
    if stripped.degree(e) > 1:
        return e, _children(stripped, e)[0], stripped, None
    (f,) = stripped.neighbors(e)
    return e, f, stripped, (f, _children(stripped, f)[0])


def gens_lemma53(r, s, attach_x1=(), attach_x3=()):
    """Extend the 5-cycle family with whisker-tree attachments at x1 / x3.

    Each attachment is a graph containing the root vertex (x1 or x3) with a
    single edge into it; the induced subgraph off the root must be a whisker
    tree, and share no other vertex with the 5-cycle, its paths or another
    attachment.  Each adds the length-2 path root-e-f of _attachment_case
    to the cycle family; its whisker tree is then emitted from the edge ef
    (case A) or from its own anchor generator (case B), with no search.
    Returns a generator set of size equal to the big height of the
    resulting graph, with a verified certificate.
    """
    if r < 0 or s < 0:
        raise ConstructionError("r and s must be nonnegative")
    x = default_cycle_labels(5)
    x1, x3 = x[0], x[2]
    cases = {root: [_attachment_case(att, root) for att in atts]
             for root, atts in ((x1, attach_x1), (x3, attach_x3))}

    r_paths = default_path_labels("a", "b", r) + \
        [(e, f) for e, f, _, _ in cases[x1]]
    s_paths = default_path_labels("c", "d", s) + \
        [(e, f) for e, f, _, _ in cases[x3]]
    full = lemma52_graph(x, r_paths, s_paths)
    attachments = list(attach_x1) + list(attach_x3)
    for att in attachments:
        full = full.union(att)
    if len(full.vertices) != 5 + 2 * (r + s) + sum(
            len(att.vertices) - 1 for att in attachments):
        raise ConstructionError("attachment labels collide")

    b = CertBuilder(full)
    _lemma52(b, x, r_paths, s_paths)
    for e, f, stripped, anchor in cases[x1] + cases[x3]:
        if anchor:
            b.gen(_p(*anchor))
        _whisker_tree(b, stripped, anchor or (e, f))
    return b.result()


# -- the 4-cycle with trees on two adjacent vertices ------------------


def gens_lemma54(h1, h2):
    """Generator set for the 4-cycle x1 x2 x3 x4 with non-empty trees h1, h2
    at x1, x2, under Lemma 5.4's hypothesis that G - {x3, x4}, which is
    h1 + x1x2 + h2, is a whisker tree.  Size |C1| + |C2| + 1.  That makes
    an hi of two or more edges a whisker tree with xi non-terminal."""
    x = x1, x2, x3, x4 = default_cycle_labels(4)
    for xi, h in ((x1, h1), (x2, h2)):
        if xi not in h.vertices or not h.edges:
            raise ConstructionError("attachment at %r must be a non-empty "
                                    "graph containing it" % xi)
    if set(h1.vertices) & set(h2.vertices):
        raise ConstructionError("attached trees must be vertex-disjoint")
    if {x3, x4} & (set(h1.vertices) | set(h2.vertices)):
        raise ConstructionError("x3/x4 cannot appear in the attachments")
    g = cycle_graph(x).union(h1).union(h2)
    if not is_whisker_tree(g.induced(set(g.vertices) - {x3, x4})):
        raise ConstructionError("hypothesis fails: h1 + x1x2 + h2 is not a "
                                "whisker tree")
    y1, y2 = _children(h1, x1)[0], _children(h2, x2)[0]

    b = CertBuilder(g)
    r0 = b.gen(_p(x1, x2))
    r1 = b.gen(_sum(_m(x1, x4), _m(x2, x3)))
    rq = b.gen(_sum(_m(x3, x4), _m(x1, y1), _m(x2, y2)))
    b.sv(r0, r1)  # -> x1x4, x2x3
    x1x4, x2x3 = b.ref(_m(x1, x4)), b.ref(_m(x2, x3))
    b.power(_m(x3, x4), 2, [(_p(x3, x4), rq),
                            (-_p(x3, y1), x1x4),
                            (-_p(x4, y2), x2x3)])
    b.power(_m(x1, y1), 2, [(_p(x1, y1), rq),
                            (-_p(x3, y1), x1x4),
                            (-_p(y1, y2), r0)])
    b.power(_m(x2, y2), 2, [(_p(x2, y2), rq),
                            (-_p(x4, y2), x2x3),
                            (-_p(y1, y2), r0)])
    for xi, yi, h in ((x1, y1, h1), (x2, y2, h2)):
        if len(h.edges) > 1:
            _whisker_tree(b, h, (xi, yi))
    return b.result()
