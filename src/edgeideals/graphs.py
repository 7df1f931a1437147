"""Immutable finite simple graphs and every structural recognizer the rest
of the package uses: cactus, cycles and branches, chordality, cliques,
whisker graphs and whisker trees, and the short-cycle screens; also the
cycle and attached-graph (Prop 4.2) builders.

Vertices are nonempty whitespace-free string labels, ordered lexicographically.
All outputs are canonically sorted so that every operation is deterministic.

The kernels run on vertex bitmasks: vertex i in sorted order is bit i, and
`Graph.masks` holds each neighbourhood as an int.  `masks` is the one
adjacency built from the edge set (`Graph.adj` is read off it), and
`_components` is the one component walk: components, connectivity,
`branches_at` and the Hochster split in `homology` all run it.  One
DFS-forest pass (`Graph._cactus_cycles`, cached on the Graph like `masks`)
decides the cactus property and lists the cycles; maximum cardinality
search decides chordality; one DFS over simple paths (`_cycles`) answers
both cycle screens; and one pivoting Bron-Kerbosch (`bron_kerbosch`), which
returns int masks, enumerates maximal cliques here and maximal independent
sets in `covers`; `maximal_cliques` turns the masks into sorted frozensets.
This module imports no other module of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property


class GraphError(ValueError):
    pass


def edge(u, v):
    """Canonical (sorted) representation of the undirected edge {u, v}."""
    if u == v:
        raise GraphError("loop edge %r" % (u,))
    return (u, v) if u < v else (v, u)


def _check_label(v):
    if not isinstance(v, str) or not v or any(c.isspace() for c in v):
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


@dataclass(frozen=True)
class Graph:
    """A finite simple graph: sorted vertex tuple plus a set of sorted edge pairs.

    Immutable value; all edit operations return new graphs.  Isolated
    vertices are permitted.
    """

    vertices: tuple = ()
    edges: frozenset = frozenset()

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

    def __post_init__(self):
        vs = set(self.vertices)
        for u, v in self.edges:
            if u not in vs or v not in vs:
                raise GraphError("edge endpoint %r not a vertex" % ((u, v),))
            if u == v:
                raise GraphError("loop edge")

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
        cycle_count and branches_at read this one pass.

        In a DFS forest every non-tree edge joins a vertex to an ancestor,
        and walking it up the tree gives its fundamental cycle.  These are
        pairwise edge-disjoint exactly when the graph is a cactus (any other
        cycle is a sum of several of them), and then they are all of its
        cycles.
        """
        masks = self.masks
        parent = list(range(len(masks)))
        depth = [-1] * len(masks)
        for root in range(len(masks)):
            stack = [(root, root, 0)] if depth[root] < 0 else []
            while stack:
                v, p, d = stack.pop()
                if depth[v] < 0:
                    parent[v], depth[v] = p, d
                    stack.extend((w, v, d + 1) for w in _bits(masks[v])
                                 if depth[w] < 0)
        used = 0   # bit v: the tree edge from v to its parent lies on a cycle
        out = []
        for u, nbrs in enumerate(masks):
            for top in _bits(nbrs):
                if depth[top] < depth[u] - 1:
                    walk = [u]
                    while walk[-1] != top:
                        v = walk[-1]
                        if used >> v & 1:
                            return None
                        used |= 1 << v
                        walk.append(parent[v])
                    # start at the least vertex, then its lesser side
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

    def has_edge(self, u, v):
        return edge(u, v) in self.edges

    def sorted_edges(self):
        return sorted(self.edges)

    @cached_property
    def non_isolated(self):
        return tuple(v for v, m in zip(self.vertices, self.masks) if m)

    def terminal_edges(self):
        """Edges with at least one endpoint of degree 1."""
        return frozenset(e for e in self.edges
                         if self.degree(e[0]) == 1 or self.degree(e[1]) == 1)

    # -- derived graphs ------------------------------------------------

    def with_edges(self, new_edges):
        es = set(self.edges)
        es.update(edge(u, v) for u, v in new_edges)
        vs = set(self.vertices) | {w for e in es for w in e}
        return Graph(tuple(sorted(vs)), frozenset(es))

    def without_edges(self, dropped):
        drop = {edge(u, v) for u, v in dropped}
        missing = drop - self.edges
        if missing:
            raise GraphError("edges not present: %s" % sorted(missing))
        return Graph(self.vertices, self.edges - drop)

    def without_vertex(self, x):
        if x not in self.adj:
            raise GraphError("unknown vertex %r" % (x,))
        vs = tuple(v for v in self.vertices if v != x)
        es = frozenset(e for e in self.edges if x not in e)
        return Graph(vs, es)

    def induced(self, vertex_subset):
        vs = frozenset(vertex_subset)
        unknown = vs - set(self.vertices)
        if unknown:
            raise GraphError("unknown vertices %s" % sorted(unknown))
        return Graph(tuple(sorted(vs)),
                     frozenset(e for e in self.edges if e[0] in vs and e[1] in vs))

    def edge_subgraph(self, edge_subset):
        es = frozenset(edge(u, v) for u, v in edge_subset)
        if not es <= self.edges:
            raise GraphError("not a subset of the edge set")
        vs = sorted({w for e in es for w in e})
        return Graph(tuple(vs), es)

    def union(self, other):
        vs = tuple(sorted(set(self.vertices) | set(other.vertices)))
        return Graph(vs, self.edges | other.edges)

    def drop_isolated(self):
        return Graph(self.non_isolated, self.edges)

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

    def relabel(self, mapping):
        return Graph.build(((mapping[u], mapping[v]) for u, v in self.edges),
                           isolated=(mapping[v] for v in self.vertices))


@dataclass(frozen=True)
class Cycle:
    """A cycle as a canonical cyclic vertex sequence (length >= 3)."""

    vertices: tuple

    def __post_init__(self):
        if len(self.vertices) < 3 or len(set(self.vertices)) != len(self.vertices):
            raise GraphError("not a valid cycle: %r" % (self.vertices,))

    @property
    def length(self):
        return len(self.vertices)

    def edge_list(self):
        vs = self.vertices
        return [edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


ONE_BRANCH = "OneBranch"
TWO_BRANCH = "TwoBranch"


@dataclass(frozen=True)
class Branch:
    """A 1- or 2-branch of a cactus at a root vertex."""

    kind: str
    root: str
    subgraph: Graph = field(compare=False)

    def sort_key(self):
        return tuple(self.subgraph.vertices)


# -- the cactus property ----------------------------------------------


def is_cactus(g):
    """True iff no two cycles of g share an edge."""
    return g._cactus_cycles is not None


def cycles(g):
    """The cycles of a cactus, as Cycle values.  Errors on non-cacti."""
    if g._cactus_cycles is None:
        raise GraphError("graph is not a cactus")
    return [Cycle(tuple(map(g.vertices.__getitem__, c)))
            for c in g._cactus_cycles]


def cycle_count(g):
    if g._cactus_cycles is None:
        raise GraphError("graph is not a cactus")
    return len(g._cactus_cycles)


def branches_at(g, x):
    """The branches of a connected cactus g at x.

    Pairwise they share only x and their union is g; each component of g - x
    reached by one edge gives a 1-branch, by two edges a 2-branch.
    """
    if not is_cactus(g):
        raise GraphError("graph is not a cactus")
    if not g.is_connected():
        raise GraphError("graph is not connected")
    if x not in g.vertices:
        raise GraphError("unknown vertex %r" % (x,))
    masks, i = g.masks, g.vertices.index(x)
    out = []
    for comp in _components(masks, ((1 << len(masks)) - 1) & ~(1 << i)):
        into = (masks[i] & comp).bit_count()
        sub = g.induced(map(g.vertices.__getitem__, _bits(comp | 1 << i)))
        if into == 1:
            out.append(Branch(ONE_BRANCH, x, sub))
        elif into == 2:
            out.append(Branch(TWO_BRANCH, x, sub))
        else:
            # Three edges from x into one component would force two cycles
            # sharing an edge, impossible in a cactus.
            raise GraphError("internal invariant violation: %d edges from %r "
                             "into one component of a cactus" % (into, x))
    return sorted(out, key=Branch.sort_key)


# -- whisker recognizers ----------------------------------------------


def is_fully_whiskered(g):
    """Every vertex lies on some terminal edge.  (Then ara = bight.)"""
    covered = {w for e in g.terminal_edges() for w in e}
    return bool(g.edges) and covered == set(g.vertices)


def is_whisker_graph(g):
    """Whether g is a base graph with exactly one pendant edge attached to
    each base vertex; returns (bool, base graph or None).

    The base consists of the non-terminal vertices; a bare edge has no
    non-terminal vertex and is not considered a whisker graph (its base
    would be empty).  Distinct base vertices have distinct pendants, so
    the pendants are all the other vertices iff there are as many.
    """
    base = [v for v in g.vertices if g.degree(v) > 1]
    if base and 2 * len(base) == len(g.vertices) and all(
            sum(g.degree(w) == 1 for w in g.adj[v]) == 1 for v in base):
        return True, g.induced(base)
    return False, None


def is_whisker_tree(g):
    """Whether g is the whisker graph of a tree: a tree and a whisker graph.
    Returns (bool, decomposition), where the decomposition maps "base" to
    the base tree and "whiskers" each base vertex to its pendant."""
    ok, base = is_whisker_graph(g)
    if not ok or not g.is_connected() or len(g.edges) >= len(g.vertices):
        return False, None   # connected with fewer edges than vertices: tree
    whiskers = {v: next(w for w in g.adj[v] if g.degree(w) == 1)
                for v in base.vertices}
    return True, {"base": base, "whiskers": whiskers}


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


def maximal_cliques(g):
    """All maximal cliques, canonically sorted."""
    return _vertex_sets(g.vertices,
                        bron_kerbosch(g.masks, (1 << len(g.vertices)) - 1))


def _is_clique(masks, s):
    """Whether the vertex bits of the mask s are pairwise adjacent."""
    return not any(s & ~masks[u] & ~(1 << u) for u in _bits(s))


def simplicial_vertices(g):
    """Vertices whose neighbourhood is a clique."""
    return frozenset(v for v, m in zip(g.vertices, g.masks)
                     if _is_clique(g.masks, m))


def simplexes(g):
    """Maximal cliques containing at least one simplicial vertex."""
    simp = simplicial_vertices(g)
    return [c for c in maximal_cliques(g) if c & simp]


def is_chordal(g):
    """Maximum cardinality search (Tarjan-Yannakakis 1984): visit next a
    vertex with the most visited neighbours; g is chordal iff the visited
    neighbours of each vertex form a clique when it is reached."""
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


def _cycles(masks, max_len, induced):
    """Yield every cycle of at most max_len vertices once, as the index tuple
    (s, v1, ..., vk) with s its least vertex and v1 < vk.

    A DFS over simple paths that start at s and grow only through vertices
    above s.  In induced mode a new vertex may touch no path vertex except
    its predecessor and s, and one that touches s closes the path and is not
    grown further, so exactly the chordless cycles come out.
    """
    if max_len < 3:
        return
    for s, s_nbrs in enumerate(masks):
        above = -1 << (s + 1)
        stack = [((s, v), (1 << s) | (1 << v), 0)
                 for v in _bits(s_nbrs & above)]
        while stack:
            path, on_path, banned = stack.pop()
            last = path[-1]
            if induced and len(path) > 2:
                banned |= masks[path[-2]]
            for w in _bits(masks[last] & above & ~on_path & ~banned):
                closes = s_nbrs >> w & 1
                if closes and path[1] < w:
                    yield path + (w,)
                if len(path) + 1 < max_len and not (closes and induced):
                    stack.append((path + (w,), on_path | (1 << w), banned))


def has_cycle_subgraph(g, length):
    """Whether g contains a (not necessarily induced) cycle on `length`
    vertices as a subgraph.  Supported lengths: 4 and 5."""
    if length not in (4, 5):
        raise GraphError("only subgraph cycles of length 4 or 5 are screened")
    return any(len(c) == length
               for c in _cycles(g.masks, length, induced=False))


def induced_cycles_shorter_than(g, k):
    """All induced (chordless) cycles of length < k, as Cycle values."""
    out = [Cycle(tuple(g.vertices[i] for i in c))
           for c in _cycles(g.masks, k - 1, induced=True)]
    return sorted(out, key=lambda c: c.vertices)


# -- edge-list text format --------------------------------------------


def parse_edge_list(text):
    """Parse the one-edge-per-line format: "u v" per edge, a bare "v" for an
    isolated vertex, '#' starts a comment line."""
    edges = []
    isolated = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
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
