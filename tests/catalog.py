"""Small-graph corpora for exhaustive and randomized checks.

Exhaustive families are generated up to isomorphism via networkx (graph
atlas, nonisomorphic trees) and small constructive arguments; random cactus
graphs come from a seeded generator.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import networkx as nx

from edgeideals.graphs import Graph, cycles


def from_networkx(nxg, prefix="v"):
    labels = {v: "%s%s" % (prefix, i)
              for i, v in enumerate(sorted(nxg.nodes, key=str))}
    return Graph.build(((labels[u], labels[v]) for u, v in nxg.edges),
                       isolated=(labels[v] for v in nxg.nodes))


@lru_cache(maxsize=None)
def connected_graphs_upto(max_vertices):
    """All connected graphs on 1..max_vertices vertices up to isomorphism
    (max_vertices <= 7, from the graph atlas)."""
    if max_vertices > 7:
        raise ValueError("the atlas stops at 7 vertices")
    out = []
    for nxg in nx.graph_atlas_g()[1:]:
        if nxg.number_of_nodes() <= max_vertices and nx.is_connected(nxg):
            out.append(from_networkx(nxg))
    return tuple(out)


@lru_cache(maxsize=None)
def trees_upto(max_vertices):
    """All trees with 2..max_vertices vertices up to isomorphism."""
    out = []
    for n in range(2, max_vertices + 1):
        for nxg in nx.nonisomorphic_trees(n):
            out.append(from_networkx(nxg))
    return tuple(out)


def _iso_dedup(nx_graphs):
    kept = []
    for g in nx_graphs:
        key = tuple(sorted(d for _, d in g.degree()))
        if any(k == key and nx.is_isomorphic(g, h) for k, h in kept):
            continue
        kept.append((key, g))
    return [g for _, g in kept]


@lru_cache(maxsize=None)
def unicyclic_upto(max_vertices):
    """All connected unicyclic graphs with <= max_vertices vertices up to
    isomorphism (each is a tree plus one extra edge)."""
    out = []
    for n in range(3, max_vertices + 1):
        candidates = []
        for nxt in nx.nonisomorphic_trees(n):
            nodes = sorted(nxt.nodes)
            for u, v in itertools.combinations(nodes, 2):
                if not nxt.has_edge(u, v):
                    g = nxt.copy()
                    g.add_edge(u, v)
                    candidates.append(g)
        out.extend(from_networkx(g) for g in _iso_dedup(candidates))
    return tuple(out)


@lru_cache(maxsize=None)
def girth_at_least_6_upto(max_vertices):
    """All connected graphs with <= max_vertices (<= 8) vertices and no
    induced cycle of length < 6, up to isomorphism.

    For at most 8 vertices these are exactly: the trees, the unicyclic
    graphs whose cycle has length >= 6, and the theta graph of three
    length-3 paths (the only graph with two independent cycles that fits:
    two cycles of length >= 6 overlapping in a path need a + b + c >= 9
    path edges with pairwise sums >= 6, forcing a = b = c = 3 on exactly 8
    vertices and no room for anything else).
    """
    if max_vertices > 8:
        raise ValueError("constructive generation covers <= 8 vertices")
    out = list(trees_upto(max_vertices))
    for g in unicyclic_upto(max_vertices):
        (cyc,) = cycles(g)
        if len(cyc) >= 6:
            out.append(g)
    if max_vertices >= 8:
        edges = []
        for mid in ("a", "b", "c"):
            edges += [("u", mid + "1"), (mid + "1", mid + "2"),
                      (mid + "2", "w")]
        out.append(Graph.build(edges))
    return tuple(out)


def random_cactus(rng, max_vertices=12, cycle_lengths=(3, 4, 5, 6)):
    """A random connected cactus with at most max_vertices vertices."""
    count = 1
    vertices = ["v0"]
    edges = []

    def fresh():
        nonlocal count
        name = "v%d" % count
        count += 1
        vertices.append(name)
        return name

    while True:
        room = max_vertices - len(vertices)
        if room < 1 or (edges and rng.random() < 0.25):
            break
        root = rng.choice(vertices)
        choices = ["whisker"] + [ell for ell in cycle_lengths
                                 if ell - 1 <= room]
        pick = rng.choice(choices)
        if pick == "whisker":
            edges.append((root, fresh()))
        else:
            ring = [root] + [fresh() for _ in range(pick - 1)]
            edges.extend((ring[i], ring[(i + 1) % pick])
                         for i in range(pick))
    if not edges:
        edges.append(("v0", fresh()))
    return Graph.build(edges)


def grown_cactus(rng, n, cycle_lengths=(3, 4, 5, 6)):
    """A random connected cactus on exactly n >= 2 vertices: whiskers and
    cycles hung on random earlier vertices."""
    vertices = ["v0"]
    edges = []
    while len(vertices) < n:
        root = rng.choice(vertices)
        room = n - len(vertices)
        pick = rng.choice([2] + [ell for ell in cycle_lengths
                                 if ell - 1 <= room])
        ring = [root] + ["v%d" % (len(vertices) + i) for i in range(pick - 1)]
        vertices += ring[1:]
        edges += [(ring[i - 1], ring[i]) for i in range(1 if pick == 2
                                                        else 0, pick)]
    return Graph.build(edges)


def random_cacti(seed, count, max_vertices=12):
    rng = random.Random(seed)
    return [random_cactus(rng, max_vertices) for _ in range(count)]
