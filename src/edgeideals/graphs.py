"""Immutable finite simple graphs and every structural recognizer the rest
of the package uses: cactus and cycles, chordality, cliques, whisker graphs
and whisker trees, and the short-cycle screen; also the cycle and
attached-graph (Prop 4.2) builders.

Vertices are nonempty whitespace-free string labels, ordered lexicographically.
All outputs are canonically sorted so that every operation is deterministic.

The kernels run on vertex bitmasks: vertex i in sorted order is bit i, and
`Graph.masks` holds each neighbourhood as an int.  `masks` is the one
adjacency built from the edge set (`Graph.adj` is read off it), and
`_components` is the one component walk: components, connectivity and
the Hochster split in `homology` run it.  One DFS-forest walk
(`_cactus_dfs`) decides the cactus property: its cycle list
(`Graph._cactus_cycles`, cached like `masks`) answers the cycles, each a
canonical tuple of vertex labels, and, on a cactus, chordality and the
cycle screen, and the cover DP in `covers` runs over its post-order.
Rooted at a vertex x, the DFS subtrees of x are the branches at x, which
the trace's split pass reads off that DP.  On other graphs maximum
cardinality search decides chordality and one DFS over simple paths
(`_cycles`) answers the cycle screen.  One pivoting Bron-Kerbosch
(`bron_kerbosch`), which returns int masks, enumerates the maximal
independent sets for `covers`, as the maximal cliques of the complement;
`_vertex_sets` turns such masks into sorted frozensets.  The simplexes
are read off the masks with no enumeration: each is the closed
neighbourhood of a simplicial vertex.  One whisker kernel
(`_whisker_base`) answers the whisker graphs and trees, and the forest
test of `classify`'s matchers.

`Graph` is the one record here; its derived graphs are `with_edges`,
`induced` and `union`.  Like every record of the package, it
subclasses a `collections.namedtuple` base: an immutable value checked
in `__new__`, whose hash and equality are those of its field tuple, so
sets and dicts of records keep one layout and order for a given hash
seed.  It keeps an instance `__dict__` for its cached properties and
for the cover numbers that `covers` keeps on it (its private "_cover_"
keys), as `covers.CoverStats` does for `all_covers`, and refuses every
attribute assignment.
This module imports no other module of the package.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property


class GraphError(ValueError):
    pass


def edge(u, v):
    """Canonical (sorted) representation of the undirected edge {u, v}."""
    if u == v:
        raise GraphError("loop edge %r" % (u,))
    return (u, v) if u < v else (v, u)


def _check_label(v):
    if not isinstance(v, str) or v.split() != [v]:
        raise GraphError("bad vertex label %r" % (v,))


def _bits(mask):
    """The indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _components(masks, w):
    """The component masks of the graph on the bits of w, where masks[i] is
    the neighbourhood of vertex i, ordered by least vertex: each is grown
    from the lowest bit of w not yet reached."""
    while w:
        comp = todo = w & -w
        while todo:
            low = todo & -todo
            todo ^= low
            new = masks[low.bit_length() - 1] & w & ~comp
            comp |= new
            todo |= new
        yield comp
        w ^= comp


def _cactus_dfs(masks, first=-1):
    """The cactus pass: one DFS forest over the non-isolated vertices, where
    masks[i] is the neighbourhood of vertex i, rooted at `first` first.
    Returns (post-order, parent, chains, on_cycle), or None when two cycles
    share an edge.  Each non-tree edge joins a vertex to an ancestor, and
    walking it up the tree gives its fundamental cycle; these are pairwise
    edge-disjoint exactly on a cactus (any other cycle is a sum of several),
    and then they are all of its cycles.  chains[top] lists the cycles whose
    highest vertex is top, each as its other vertices from the bottom up;
    bit v of on_cycle: the tree edge above v lies on one.  Roots have parent
    -1."""
    n = len(masks)
    parent = [-1] * n
    chains = {}
    post = []
    seen = on_cycle = 0
    for root in ([first] if first >= 0 else []) + list(range(n)):
        if seen >> root & 1 or not masks[root]:
            continue
        seen |= 1 << root
        # the tree path from the root: it grows by the least unvisited
        # neighbour of its last vertex, which is finished when it has none
        stack = [root]
        while stack:
            v = stack[-1]
            todo = masks[v] & ~seen
            if not todo:
                post.append(stack.pop())
                continue
            low = todo & -todo
            w = low.bit_length() - 1
            parent[w] = v
            # a neighbour of w reached before w is an ancestor of w
            up = masks[w] & seen & ~(1 << v)
            for top in _bits(up) if up else ():
                chain, u = [], w
                while u != top:
                    if on_cycle >> u & 1:
                        return None
                    on_cycle |= 1 << u
                    chain.append(u)
                    u = parent[u]
                chains.setdefault(top, []).append(chain)
            seen |= low
            stack.append(w)
    return post, parent, chains, on_cycle


class Graph(namedtuple("Graph", "vertices edges")):
    """A finite simple graph: sorted vertex tuple plus a set of sorted edge pairs.

    Immutable value, rejected unless in that canonical form; all edit
    operations return new graphs.  Isolated vertices are permitted.
    `Graph(...)` checks only the canonical form: labels are checked where
    they enter, in `build` and `parse_edge_list`, and `with_edges` goes
    through `build`.
    """

    def __new__(cls, vertices=(), edges=frozenset()):
        vs, order = set(vertices), list(vertices)
        if len(vs) != len(order) or sorted(order) != order:
            raise GraphError("vertices %r not distinct and sorted"
                             % (vertices,))
        for u, v in edges:
            if u not in vs or v not in vs:
                raise GraphError("edge endpoint %r not a vertex" % ((u, v),))
            if not u < v:
                raise GraphError("edge %r is a loop or not sorted" % ((u, v),))
        return tuple.__new__(cls, (vertices, edges))

    # cached_property writes __dict__ directly, past these two
    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    @staticmethod
    def build(edges=(), isolated=()):
        es = set()
        vs = set()
        for u, v in edges:
            _check_label(u)
            _check_label(v)
            es.add(edge(u, v))
            vs.add(u)
            vs.add(v)
        for v in isolated:
            _check_label(v)
            vs.add(v)
        return Graph(tuple(sorted(vs)), frozenset(es))

    @cached_property
    def adj(self):
        vs = self.vertices
        return {v: frozenset(map(vs.__getitem__, _bits(m)))
                for v, m in zip(vs, self.masks)}

    @cached_property
    def masks(self):
        """Neighbourhood bitmasks: bit j of masks[i] is set when vertices[i]
        and vertices[j] are adjacent."""
        index = {v: i for i, v in enumerate(self.vertices)}
        out = [0] * len(self.vertices)
        for u, v in self.edges:
            i, j = index[u], index[v]
            out[i] |= 1 << j
            out[j] |= 1 << i
        return tuple(out)

    @cached_property
    def _cactus_cycles(self):
        """The cycles of the graph as a sorted tuple of canonical vertex
        index tuples, or None when it is not a cactus; is_cactus, cycles,
        cycle_count and, on a cactus, is_chordal and has_cycle_subgraph read
        this, which reads `_cactus_dfs`."""
        dfs = _cactus_dfs(self.masks)
        if dfs is None:
            return None
        out = []
        for top, chains in dfs[2].items():
            for chain in chains:
                # start at the least vertex, then its lesser side
                walk = chain + [top]
                i = walk.index(min(walk))
                walk = walk[i:] + walk[:i]
                if walk[1] > walk[-1]:
                    walk[1:] = walk[:0:-1]
                out.append(tuple(walk))
        return tuple(sorted(out))

    # -- basic queries -------------------------------------------------

    def degree(self, v):
        if v not in self.adj:
            raise GraphError("unknown vertex %r" % (v,))
        return len(self.adj[v])

    def neighbors(self, v):
        if v not in self.adj:
            raise GraphError("unknown vertex %r" % (v,))
        return self.adj[v]

    def sorted_edges(self):
        return sorted(self.edges)

    @cached_property
    def non_isolated(self):
        return tuple(v for v, m in zip(self.vertices, self.masks) if m)

    def terminal_edges(self):
        """Edges with at least one endpoint of degree 1."""
        leaves = {v for v, m in zip(self.vertices, self.masks)
                  if m.bit_count() == 1}
        return frozenset(e for e in self.edges
                         if e[0] in leaves or e[1] in leaves)

    # -- derived graphs ------------------------------------------------

    def with_edges(self, new_edges):
        return Graph.build([*self.edges, *new_edges], self.vertices)

    def induced(self, vertex_subset):
        vs = frozenset(vertex_subset)
        unknown = vs - set(self.vertices)
        if unknown:
            raise GraphError("unknown vertices %s" % sorted(unknown))
        return Graph(tuple(sorted(vs)),
                     frozenset(e for e in self.edges if e[0] in vs and e[1] in vs))

    def union(self, other):
        vs = tuple(sorted(set(self.vertices) | set(other.vertices)))
        return Graph(vs, self.edges | other.edges)

    def drop_isolated(self):
        """The graph without its isolated vertices: the graph itself when
        it has none, so what it has cached (masks, cycles) carries over."""
        vs = self.non_isolated
        return self if len(vs) == len(self.vertices) else Graph(vs, self.edges)

    # -- connectivity --------------------------------------------------

    def components(self):
        """Vertex sets of the connected components, sorted by least vertex."""
        return [frozenset(map(self.vertices.__getitem__, _bits(c)))
                for c in _components(self.masks, (1 << len(self.vertices)) - 1)]

    def is_connected(self):
        full = (1 << len(self.vertices)) - 1
        return next(_components(self.masks, full), full) == full

    def component_graphs(self):
        return [self.induced(c) for c in self.components()]


# -- the cactus property ----------------------------------------------


def is_cactus(g):
    """True iff no two cycles of g share an edge."""
    return g._cactus_cycles is not None


def cycles(g):
    """The cycles of a cactus, each as its canonical label tuple: the least
    vertex first, then its lesser neighbour.  Errors on non-cacti."""
    if g._cactus_cycles is None:
        raise GraphError("graph is not a cactus")
    return [tuple(map(g.vertices.__getitem__, c)) for c in g._cactus_cycles]


def cycle_count(g):
    if g._cactus_cycles is None:
        raise GraphError("graph is not a cactus")
    return len(g._cactus_cycles)


# -- whisker recognizers ----------------------------------------------


def _on_terminal_edges(masks):
    """Mask of the leaves and their neighbours (the terminal-edge vertices);
    the graph is fully whiskered when it holds every vertex."""
    out = 0
    for i, m in enumerate(masks):
        if m.bit_count() == 1:
            out |= 1 << i | m
    return out


def _whisker_base(masks):
    """The whisker kernel: the vertices of degree at least 2, as indices,
    when each has exactly one neighbour of degree 1, else None.  On a forest:
    whether every component with an edge is a whisker tree or an edge."""
    leaves = sum(1 << i for i, m in enumerate(masks) if m.bit_count() == 1)
    base = [i for i, m in enumerate(masks) if m.bit_count() > 1]
    ok = all((masks[i] & leaves).bit_count() == 1 for i in base)
    return base if ok else None


def is_whisker_graph(g):
    """Whether g is a base graph with exactly one pendant edge attached to
    each base vertex; returns (bool, base graph or None).

    The base consists of the non-terminal vertices; a bare edge has no
    non-terminal vertex and is not considered a whisker graph (its base
    would be empty).  Distinct base vertices have distinct pendants, so
    the pendants are all the other vertices iff there are as many.
    """
    base = _whisker_base(g.masks)
    if base and 2 * len(base) == len(g.vertices):
        return True, g.induced(map(g.vertices.__getitem__, base))
    return False, None


def is_whisker_tree(g):
    """Whether g is the whisker graph of a tree: connected with fewer edges
    than vertices (a tree), with a nonempty whisker base."""
    return (len(g.edges) < len(g.vertices) and g.is_connected()
            and bool(_whisker_base(g.masks)))


# -- cycles and attachments ------------------------------------------


WHISKER = "whisker"


def cycle_graph(labels):
    n = len(labels)
    return Graph.build((labels[i], labels[(i + 1) % n]) for i in range(n))


def build_attached_graph(base, attachments):
    """The graph obtained by attaching, to each base vertex, a whisker or a
    cycle of the given length.  Returns (graph, per-vertex attachment labels).

    attachments: dict vertex -> WHISKER or an int cycle length (>= 3).
    Fresh vertices are named <v>_w / <v>_c2.. and collision-checked.
    """
    if set(attachments) != set(base.vertices):
        raise GraphError("need exactly one attachment per base vertex")
    edges = list(base.edges)
    labels = {}
    taken = set(base.vertices)

    def fresh(name):
        if name in taken:
            raise GraphError("fresh vertex label %r collides" % name)
        taken.add(name)
        return name

    for v in base.vertices:
        att = attachments[v]
        if att == WHISKER:
            w = fresh(v + "_w")
            edges.append((v, w))
            labels[v] = (v, w)
        elif isinstance(att, int) and att >= 3:
            ring = (v,) + tuple(fresh("%s_c%d" % (v, i))
                                for i in range(2, att + 1))
            edges += [(ring[i], ring[(i + 1) % att]) for i in range(att)]
            labels[v] = ring
        else:
            raise GraphError("bad attachment %r for %r" % (att, v))
    return Graph.build(edges), labels


# -- cliques, chordality, small cycles --------------------------------


def bron_kerbosch(masks, candidates):
    """Every maximal clique, as an int mask in no particular order, of the
    graph on the bits of the mask `candidates`, where masks[i] is the
    neighbourhood of vertex i (bits outside `candidates` are never visited).

    Bron-Kerbosch with Tomita-Tanaka-Takahashi pivoting (TCS 363, 2006): the
    pivot is the first vertex of P | X with the most neighbours in P, and
    only the vertices of P outside its neighbourhood are branched on.
    """
    out = []

    def expand(r, p, x):
        if not p:
            if not x:
                out.append(r)
            return
        most, pivot, rest = -1, 0, p | x
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            n = (p & masks[u]).bit_count()
            if n > most:
                most, pivot = n, u
        branch = p & ~masks[pivot]
        while branch:
            low = branch & -branch
            branch ^= low
            nbrs = masks[low.bit_length() - 1]
            expand(r | low, p & nbrs, x & nbrs)
            p ^= low
            x |= low

    expand(0, candidates, 0)
    return out


def _vertex_sets(vertices, masks):
    """The sets of vertices[i] over the bits i of each mask, as frozensets
    sorted by their sorted members (vertices is a sorted tuple)."""
    return [frozenset(map(vertices.__getitem__, r))
            for r in sorted(list(_bits(m)) for m in masks)]


def _is_clique(masks, s):
    """Whether the vertex bits of the mask s are pairwise adjacent."""
    return not any(s & ~masks[u] & ~(1 << u) for u in _bits(s))


def simplexes(g):
    """Maximal cliques containing at least one simplicial vertex, sorted by
    their sorted members (`_vertex_sets`): each is the closed neighbourhood
    of its simplicial vertices, so none is enumerated."""
    masks = g.masks
    return _vertex_sets(g.vertices, {m | 1 << i for i, m in enumerate(masks)
                                     if _is_clique(masks, m)})


def is_chordal(g):
    """A cactus is chordal iff its cycles (which have no chords) are
    triangles.  Otherwise maximum cardinality search (Tarjan-Yannakakis
    1984): visit next a vertex with the most visited neighbours; g is
    chordal iff the visited neighbours of each vertex form a clique then."""
    if g._cactus_cycles is not None:
        return all(len(c) == 3 for c in g._cactus_cycles)
    masks = g.masks
    visited, unvisited = 0, (1 << len(masks)) - 1
    while unvisited:
        v = max(_bits(unvisited),
                key=lambda u: (masks[u] & visited).bit_count())
        if not _is_clique(masks, masks[v] & visited):
            return False
        visited |= 1 << v
        unvisited ^= 1 << v
    return True


def _cycles(masks, max_len):
    """Yield every cycle of at most max_len vertices once, as the index tuple
    (s, v1, ..., vk) with s its least vertex and v1 < vk.

    A DFS over simple paths that start at s and grow only through vertices
    above s.
    """
    for s, s_nbrs in enumerate(masks):
        above = -1 << (s + 1)
        stack = [((s, v), (1 << s) | (1 << v)) for v in _bits(s_nbrs & above)]
        while stack:
            path, on_path = stack.pop()
            for w in _bits(masks[path[-1]] & above & ~on_path):
                if s_nbrs >> w & 1 and path[1] < w:
                    yield path + (w,)
                if len(path) + 1 < max_len:
                    stack.append((path + (w,), on_path | (1 << w)))


def has_cycle_subgraph(g, lengths):
    """Whether g contains a (not necessarily induced) cycle whose vertex
    count is in `lengths`, as a subgraph.  Supported lengths: 3, 4 and 5.
    The cycle subgraphs of a cactus are its cycles; others are searched."""
    if not lengths or not set(lengths) <= {3, 4, 5}:
        raise GraphError("only cycles of length 3, 4 or 5 are screened")
    if g._cactus_cycles is not None:
        return any(len(c) in lengths for c in g._cactus_cycles)
    return any(len(c) in lengths for c in _cycles(g.masks, max(lengths)))


# -- edge-list text format --------------------------------------------


def parse_edge_list(text):
    """Parse the one-edge-per-line format: "u v" per edge, a bare "v" for an
    isolated vertex.  A token that begins with '#' starts a comment that runs
    to the end of the line; a '#' inside a token ("a#b") is part of the
    label."""
    edges = []
    isolated = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if "#" in raw:
            for i, token in enumerate(parts):
                if token.startswith("#"):
                    del parts[i:]
                    break
        if not parts:
            continue
        try:
            if len(parts) == 1:
                _check_label(parts[0])
                isolated.append(parts[0])
            elif len(parts) == 2:
                edges.append(edge(parts[0], parts[1]))
            else:
                raise GraphError("expected 1 or 2 tokens")
        except GraphError as exc:
            raise GraphError("line %d: %s" % (lineno, exc)) from None
    return Graph.build(edges, isolated)
