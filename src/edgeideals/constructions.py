"""Explicit radical generator sets for the covered graph families.

Every constructor returns a (GeneratorSet, Certificate) pair; the verifier in
`certificates` is the single source of truth for correctness.  Construction
code never trusts itself: tests re-verify every emitted certificate.
"""

from __future__ import annotations

from itertools import combinations

from . import covers
from .certificates import CertBuilder, LinearStep, PowerStep, SVStep
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


def _cycle_plan(v):
    """Generators (beyond the standalone v1v2 monomial) and a step emitter
    for a cycle on the labels v; the emitter receives the builder, the refs
    of these generators and the ref of the established v1v2 monomial."""
    if len(v) == 3:
        polys = [_sum(_m(v[1], v[2]), _m(v[0], v[2]))]

        def emit(b, refs, base_ref):
            b.sv(base_ref, refs[0])

    elif len(v) == 4:
        polys = [_sum(_m(v[0], v[3]), _m(v[1], v[2])), _p(v[2], v[3])]

        def emit(b, refs, base_ref):
            b.sv(base_ref, refs[0])

    elif len(v) == 5:
        polys = [_sum(_m(v[1], v[2]), _m(v[3], v[4])),
                 _sum(_m(v[0], v[4]), _m(v[2], v[3]))]

        def emit(b, refs, base_ref):
            _c5_tail(b, v, base_ref, refs[0], refs[1])

    else:
        raise ConstructionError("explicit cycle constructions cover lengths "
                                "3, 4 and 5 only (got %d)" % len(v))
    return polys, emit


def _c5_tail(b, v, ref_v1v2, g2_ref, g3_ref):
    """Establish the four remaining edges of a 5-cycle from
    g2 = v2v3 + v4v5 and g3 = v1v5 + v3v4, given v1v2 established."""
    v1, v2, v3, v4, v5 = v
    # (v2v3)^2 = v2v3*g2 - v2v5*g3 + v5^2*(v1v2)
    r23 = b.power(_m(v2, v3), 2, [(_p(v2, v3), g2_ref),
                                  (-_p(v2, v5), g3_ref),
                                  (_p(v5, v5), ref_v1v2)])
    r45 = b.linear(g2_ref, [r23])
    # (v1v5)^2 = v1v5*g3 - v1v3*(v4v5)
    r15 = b.power(_m(v1, v5), 2, [(_p(v1, v5), g3_ref),
                                  (-_p(v1, v3), r45)])
    b.linear(g3_ref, [r15])


def gens_cycle(length, labels=None):
    """The explicit generator sets for C3, C4, C5 (counts 2, 3, 3)."""
    v = tuple(labels) if labels else default_cycle_labels(length)
    if len(v) != length:
        raise ConstructionError("expected %d labels" % length)
    g = cycle_graph(v)
    b = CertBuilder(g)
    base_ref = b.gen(_p(v[0], v[1]))
    polys, emit = _cycle_plan(v)
    refs = [b.gen(p) for p in polys]
    emit(b, refs, base_ref)
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


def _chain_plan(root, paths):
    """Generators x_root a_1, h_i = root*a_{i+1} + a_i b_i for a cascade of
    length-2 paths, plus an emitter establishing every root*a_i and every
    a_i b_i except the last."""
    polys = [_p(root, paths[0][0])]
    for (a, _), (a2, b2) in zip(paths[1:], paths[:-1]):
        polys.append(_sum(_m(root, a), _m(a2, b2)))

    def emit(b, refs):
        for i in range(1, len(paths)):
            b.sv(b.ref(_m(root, paths[i - 1][0])), refs[i])

    return polys, emit


def _lemma52_plan(x, r_paths, s_paths):
    """Generator polynomials and step emitter for the 5-cycle-with-paths
    family; count is always len(r_paths) + len(s_paths) + 3."""
    x1, x2, x3, x4, x5 = x
    if not s_paths and not r_paths:
        polys = [_p(x1, x2),
                 _sum(_m(x2, x3), _m(x4, x5)),
                 _sum(_m(x1, x5), _m(x3, x4))]

        def emit(b, refs):
            _c5_tail(b, x, refs[0], refs[1], refs[2])

        return polys, emit

    if not s_paths:
        ar, br = r_paths[-1]
        chain_polys, chain_emit = _chain_plan(x1, r_paths)
        polys = chain_polys + [
            _sum(_m(x1, x2), _m(ar, br)),
            _sum(_m(x2, x3), _m(x4, x5)),
            _sum(_m(x1, x5), _m(x3, x4)),
        ]

        def emit(b, refs):
            chain_emit(b, refs[:len(chain_polys)])
            q_ref, g2_ref, g3_ref = refs[-3:]
            b.sv(b.ref(_m(x1, ar)), q_ref)
            _c5_tail(b, x, b.ref(_m(x1, x2)), g2_ref, g3_ref)

        return polys, emit

    if not r_paths:
        # Mirror through the C5 automorphism x1<->x3, x4<->x5.
        return _lemma52_plan((x3, x2, x1, x5, x4), s_paths, ())

    ar, br = r_paths[-1]
    cs, ds = s_paths[-1]
    r_polys, r_emit = _chain_plan(x1, r_paths)
    s_polys, s_emit = _chain_plan(x3, s_paths)
    p1 = _sum(_m(x1, x2), _m(ar, br), _m(x4, x5))
    p2 = _sum(_m(x1, x5), _m(x2, x3), Monomial.of(ar, x4, x5))
    w = _sum(_m(cs, ds), _m(x3, x4))
    polys = r_polys + [p1, p2] + s_polys + [w]

    def emit(b, refs):
        nr, ns = len(r_polys), len(s_polys)
        r_emit(b, refs[:nr])
        p1_ref, p2_ref = refs[nr], refs[nr + 1]
        s_emit(b, refs[nr + 2:nr + 2 + ns])
        b.sv(b.ref(_m(x3, cs)), refs[-1])  # -> cs*ds, x3*x4

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
                      scaled(_p(x1, x2, x2),
                             [(_p(x2, x2, x4, x4, x5), x1ar)]))
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

    return polys, emit


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
    polys, emit = _lemma52_plan(x, r_paths, s_paths)
    refs = [b.gen(p) for p in polys]
    emit(b, refs)
    return b.result()


# -- Schmitt-Vogel layer search ---------------------------------------
#
# Edge i is bit i of a mask, over the edge monomials in sort_key order.
# witnesses[i][j] is the mask of the edges with both ends among the ends of
# edges i and j: for square-free degree-2 monomials, exactly the d with
# d | e*f.  Two remaining edges can share a layer when an earlier edge, one
# outside the remaining mask, is such a witness.


def _witness_table(monomials):
    bit = {frozenset(v for v, _ in m.exps): 1 << i
           for i, m in enumerate(monomials)}
    ends = list(bit)
    return [[sum(bit.get(frozenset(d), 0)
                 for d in combinations(e | f, 2)) for f in ends]
            for e in ends]


def _compatible_cliques(remaining, monomials, witnesses):
    """Maximal sets of remaining edges that can share a layer, as masks,
    largest first (Bron-Kerbosch on the compatibility graph).  The recursion
    runs on frozensets of Monomials, so its pivot ties and hence the clique
    order follow string-hash order."""
    earlier = ~remaining
    idx = list(_bits(remaining))
    # Every set is filled in sort_key order, which fixes its iteration order
    # for a given hash seed.
    rem = [monomials[i] for i in idx]
    compat = {monomials[i]: {monomials[j] for j in idx
                             if j != i and witnesses[i][j] & earlier}
              for i in idx}
    out = []

    def bk(r, p, x):
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda m: len(compat[m] & p))
        for m in sorted(p - compat[pivot], key=lambda m: m.sort_key()):
            bk(r | {m}, p & compat[m], x & compat[m])
            p = p - {m}
            x = x | {m}

    bk(frozenset(), frozenset(rem), frozenset())
    bit = {monomials[i]: 1 << i for i in idx}
    return [sum(bit[m] for m in c)
            for c in sorted(out, key=len, reverse=True)]


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
    """The edge monomials of g in sort_key order, the bit order of masks."""
    return [Monomial.of(u, v) for u, v in g.sorted_edges()]


def sv_layer_search(g, max_layers=None, first=None):
    """Search for a Schmitt-Vogel layering of the edge monomials of g.

    Tries each edge (or only `first`, when pinned) as the singleton bottom
    layer; within each start an exact backtracking search looks for the
    smallest layer count up to max_layers (default: the edge count).
    Returns a (GeneratorSet, Certificate) pair whose generators are the
    layer sums, or None when no layering within max_layers is found.
    Absence of a result is a normal outcome.

    Among equally short layerings the search returns the first it meets,
    in an order that follows the string hashes of the vertex labels, so the
    generators can differ between PYTHONHASHSEED values.  The minimal layer
    count does not depend on that order: the count found was the same
    under eight seeds on every tree of at most 9 vertices and on 40 random
    cacti.
    """
    monomials = _edge_monomials(g)
    if not monomials:
        raise ConstructionError("graph has no edges")
    starts = list(range(len(monomials)))
    if first:
        if Monomial.of(*first) not in monomials:
            raise ConstructionError("first layer monomial is not an edge")
        starts = [monomials.index(Monomial.of(*first))]
    cap = max_layers if max_layers is not None else len(monomials)
    if cap < 1:
        raise ConstructionError("max_layers must be at least 1")
    witnesses = _witness_table(monomials)
    table = {}

    def cliques(remaining):
        if remaining not in table:
            table[remaining] = _compatible_cliques(remaining, monomials,
                                                   witnesses)
        return table[remaining]

    best = None
    for p0 in starts:
        depth = (len(best) - 1) if best is not None else cap
        layers = _search_layers(len(monomials), p0, depth, cliques)
        if layers is not None and (best is None or len(layers) < len(best)):
            best = layers
    if best is None:
        return None
    return _layers_to_certificate(g, best, monomials, witnesses)


def _layers_to_certificate(g, layers, monomials, witnesses):
    """The certificate of a layering given as edge masks: bit i is
    monomials[i], and witnesses is their _witness_table."""
    b = CertBuilder(g)
    refs = [b.gen(_sum(*(monomials[i] for i in _bits(layer))))
            for layer in layers]
    earlier = layers[0]
    for layer, ref in zip(layers[1:], refs[1:]):
        _emit_layer_steps(b, list(_bits(layer)), ref, earlier, monomials,
                          witnesses)
        earlier |= layer
    return b.result()


def _emit_layer_steps(b, layer, layer_ref, earlier, monomials, witnesses):
    """Establish every monomial of a layer sum, given all earlier-layer
    monomials established.  layer lists edge indices in increasing order,
    earlier is the mask of the earlier edges, and the witness of a pair is
    the least earlier edge dividing its product."""
    def rho(i, j):
        w = witnesses[i][j] & earlier
        return monomials[(w & -w).bit_length() - 1]

    if len(layer) == 1:
        return  # the generator itself is the unit monomial
    if len(layer) == 2:
        b.sv(b.ref(rho(*layer)), layer_ref)
        return
    for i in layer:
        mu = monomials[i]
        combo = [(Polynomial.term(mu), layer_ref)]
        for j in layer:
            if j != i:
                d = rho(i, j)
                combo.append((-Polynomial.term((mu * monomials[j]) / d),
                              b.ref(d)))
        b.power(mu, 2, combo)


def gens_whisker_tree(t, anchor_edge):
    """n polynomials (n = number of non-terminal vertices) generating the
    edge ideal of a whisker tree up to radical, with the anchor edge as a
    standalone monomial generator.  Errors when the capped search fails."""
    if not is_whisker_tree(t)[0]:
        raise ConstructionError("graph is not a whisker tree")
    u, v = anchor_edge
    if edge(u, v) not in t.edges:
        raise ConstructionError("anchor is not an edge")
    if t.degree(u) == 1 or t.degree(v) == 1:
        raise ConstructionError("anchor edge must be non-terminal")
    n = sum(1 for w in t.vertices if t.degree(w) > 1)
    res = sv_layer_search(t, max_layers=n, first=(u, v))
    if res is None:
        raise SearchBudgetError("no layering of size %d found" % n)
    return res


# -- splicing sub-certificates ----------------------------------------


def _splice_steps(b, gen_refs, steps):
    """Replay a certificate's steps inside another builder.  gen_refs maps
    the source generator indices to refs in b; step outputs are tracked so
    later references resolve."""
    ref_map = dict(enumerate(gen_refs))
    next_src = len(gen_refs)

    def remap(r):
        return ref_map[r]

    for step in steps:
        if isinstance(step, SVStep):
            out = b.sv(remap(step.rho_ref), remap(step.sum_ref))
        elif isinstance(step, LinearStep):
            out = (b.linear(remap(step.target_ref),
                            [remap(r) for r in step.subtract_refs]),)
        elif isinstance(step, PowerStep):
            out = (b.power(step.target, step.k,
                           [(c, remap(r)) for c, r in step.combination]),)
        else:
            raise ConstructionError("unknown step kind")
        for o in out:
            ref_map[next_src] = o
            next_src += 1


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
    # first cycle neighbour plays the pendant).
    whisker_edges = [(v, labels[v][1]) for v in base.vertices]
    wg = base.with_edges(whisker_edges)
    n = len(base.vertices)
    s0 = sv_layer_search(wg, max_layers=n)
    if s0 is None:
        raise SearchBudgetError(
            "no %d-layer generator set found for the whisker graph" % n)
    s0_gs, s0_cert = s0

    b = CertBuilder(g)
    s0_refs = [b.gen(p) for p in s0_gs.polys]
    plans = []
    for v in base.vertices:
        if attachments[v] == WHISKER:
            continue
        polys, emit = _cycle_plan(labels[v])
        refs = [b.gen(p) for p in polys]
        plans.append((labels[v], refs, emit))
    _splice_steps(b, s0_refs, s0_cert.steps)
    for ring, refs, emit in plans:
        emit(b, refs, b.ref(_m(ring[0], ring[1])))
    return b.result()


# -- whisker-tree attachments at x1/x3 of the 5-cycle family ----------


def _attachment_case(att, root):
    """Split an attachment into (e, stripped, case) where e is the unique
    neighbour of the root, stripped is the induced graph off the root, and
    case is 'A' (e non-terminal in stripped) or 'B' (the whole attachment is
    a tree with e a whisker endpoint)."""
    if root not in att.vertices:
        raise ConstructionError("attachment does not contain %r" % root)
    nbrs = sorted(att.neighbors(root))
    if len(nbrs) != 1:
        raise ConstructionError("root must have exactly one neighbour in the "
                                "attachment")
    e = nbrs[0]
    stripped = att.without_vertex(root)
    if not is_whisker_tree(stripped)[0]:
        raise ConstructionError("attachment minus the root is not a whisker "
                                "tree")
    return e, stripped, ("B" if stripped.degree(e) == 1 else "A")


def gens_lemma53(r, s, attach_x1=(), attach_x3=(), x=None):
    """Extend the 5-cycle family with whisker-tree attachments at x1 / x3.

    Each attachment is a graph containing the root vertex (x1 or x3) with a
    single edge into it; the induced subgraph off the root must be a whisker
    tree.  Returns a generator set of size equal to the big height of the
    resulting graph, with a verified certificate.
    """
    x = tuple(x) if x else default_cycle_labels(5)
    x1, _, x3 = x[0], x[1], x[2]
    case_a = {x1: [], x3: []}
    case_b = []
    for root, atts in ((x1, attach_x1), (x3, attach_x3)):
        for att in atts:
            e, stripped, case = _attachment_case(att, root)
            if case == "A":
                f = min(w for w in stripped.neighbors(e)
                        if stripped.degree(w) > 1)
                case_a[root].append((att, e, f, stripped))
            else:
                case_b.append(att)

    r_paths = default_path_labels("a", "b", r) + \
        [(e, f) for _, e, f, _ in case_a[x1]]
    s_paths = default_path_labels("c", "d", s) + \
        [(e, f) for _, e, f, _ in case_a[x3]]
    core = lemma52_graph(x, r_paths, s_paths)
    full = core
    for att in list(attach_x1) + list(attach_x3):
        full = full.union(att)

    b = CertBuilder(full)
    core_polys, core_emit = _lemma52_plan(x, r_paths, s_paths)
    core_refs = [b.gen(p) for p in core_polys]

    spliced = []
    for root in (x1, x3):
        for _, e, f, stripped in case_a[root]:
            gs_i, cert_i = gens_whisker_tree(stripped, (e, f))
            refs = [b.gen(p) for p in gs_i.polys[1:]]
            spliced.append((gs_i, cert_i, refs, _m(e, f)))
    for att in case_b:
        bh = covers.big_height(att)
        res = sv_layer_search(att, max_layers=bh)
        if res is None:
            raise SearchBudgetError("no %d-layer set for a tree attachment"
                                    % bh)
        gs_i, cert_i = res
        refs = [b.gen(p) for p in gs_i.polys]
        spliced.append((gs_i, cert_i, refs, None))

    core_emit(b, core_refs)
    for gs_i, cert_i, refs, anchor in spliced:
        if anchor is not None:
            _splice_steps(b, [b.ref(anchor)] + refs, cert_i.steps)
        else:
            _splice_steps(b, refs, cert_i.steps)
    return b.result()


# -- the 4-cycle with trees on two adjacent vertices ------------------


def gens_lemma54(h1, h2, x=("x1", "x2", "x3", "x4")):
    """Generator set for the 4-cycle with non-empty trees attached at the two
    adjacent vertices x1, x2 (x3, x4 having degree 2), under the hypothesis
    that h1 + the edge x1x2 + h2 is a whisker tree.  Size |C1| + |C2| + 1."""
    x1, x2, x3, x4 = x
    for xi, h in ((x1, h1), (x2, h2)):
        if xi not in h.vertices or not h.edges:
            raise ConstructionError("attachment at %r must be a non-empty "
                                    "graph containing it" % xi)
    if set(h1.vertices) & set(h2.vertices):
        raise ConstructionError("attached trees must be vertex-disjoint")
    if {x3, x4} & (set(h1.vertices) | set(h2.vertices)):
        raise ConstructionError("x3/x4 cannot appear in the attachments")
    bridge = h1.union(h2).with_edges([(x1, x2)])
    if not is_whisker_tree(bridge)[0]:
        raise ConstructionError("hypothesis fails: h1 + x1x2 + h2 is not a "
                                "whisker tree")

    ys = []
    for xi, h in ((x1, h1), (x2, h2)):
        if len(h.edges) == 1:
            (e,) = h.edges
            yi = e[0] if e[1] == xi else e[1]
        else:
            if not is_whisker_tree(h)[0]:
                raise ConstructionError("attachment at %r is neither a single "
                                        "edge nor a whisker tree" % xi)
            cand = sorted(w for w in h.neighbors(xi) if h.degree(w) > 1)
            if not cand:
                raise ConstructionError("no non-terminal neighbour of %r" % xi)
            yi = cand[0]
        ys.append(yi)
    y1, y2 = ys

    g = cycle_graph(x).union(h1).union(h2)
    b = CertBuilder(g)
    r0 = b.gen(_p(x1, x2))
    r1 = b.gen(_sum(_m(x1, x4), _m(x2, x3)))
    q = _sum(_m(x3, x4), _m(x1, y1), _m(x2, y2))
    rq = b.gen(q)

    spliced = []
    for xi, yi, h in ((x1, y1, h1), (x2, y2, h2)):
        if len(h.edges) == 1:
            continue
        gs_i, cert_i = gens_whisker_tree(h, (xi, yi))
        refs = [b.gen(p) for p in gs_i.polys[1:]]
        spliced.append((cert_i, refs, _m(xi, yi)))

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
    for cert_i, refs, anchor in spliced:
        _splice_steps(b, [b.ref(anchor)] + refs, cert_i.steps)
    return b.result()
