"""Seeded inputs for the four benchmark workloads (standard library only).

Every workload draws from fixed per-class pools of distinct inputs.  The
pools never depend on the run seed, so each pooled input has an output
digest recorded in `reference.json`; the seed only decides which pool
members a run sees and in what order.  A run walks a fixed block schedule
(one entry per class), so the mix of input sizes is the same on every seed
and the seed moves only which concrete graphs fill each slot.

Nothing here imports `edgeideals`, `edgeideals.catalog` or networkx, so a
change to the library cannot shift a workload's inputs.
"""

from __future__ import annotations

import random

POOL_TAG = "edgeideals-bench-v1"
CACTUS_CYCLES = (3, 4, 5, 6)


# -- graph generators (edge lists over string labels) ------------------


def _labels(rng, n, prefix="v", space=None):
    """n distinct labels in random order, drawn from `space` candidates
    (default n, i.e. a shuffle of prefix0..prefix<n-1>)."""
    return ["%s%d" % (prefix, i) for i in rng.sample(range(space or n), n)]


def random_cactus(rng, n, cycle_lengths=CACTUS_CYCLES):
    """A connected cactus on exactly n vertices: whiskers and cycles hung on
    random existing vertices, with shuffled labels."""
    names = _labels(rng, n)
    count = 1
    edges = []
    while count < n:
        room = n - count
        root = rng.randrange(count)
        pick = rng.choice(["whisker"] + [ell for ell in cycle_lengths
                                         if ell - 1 <= room])
        if pick == "whisker":
            edges.append((root, count))
            count += 1
        else:
            ring = [root] + list(range(count, count + pick - 1))
            count += pick - 1
            edges += [(ring[i], ring[(i + 1) % pick]) for i in range(pick)]
    return [(names[u], names[v]) for u, v in edges]


def random_tree(rng, n, prefix="v", space=None):
    names = _labels(rng, n, prefix, space)
    return [(names[rng.randrange(i)], names[i]) for i in range(1, n)]


def random_unicyclic(rng, n):
    """One cycle of length 3..min(n, 8) with a random forest hung on it."""
    names = _labels(rng, n)
    ell = rng.randint(3, min(n, 8))
    edges = [(i, (i + 1) % ell) for i in range(ell)]
    edges += [(rng.randrange(i), i) for i in range(ell, n)]
    return [(names[u], names[v]) for u, v in edges]


def canon_edges(edges):
    return tuple(sorted(tuple(sorted(e)) for e in edges))


def edge_text(edges):
    """The one-edge-per-line format the library and the CLI read."""
    return "".join("%s %s\n" % (u, v) for u, v in edges)


# -- pools -------------------------------------------------------------


def _pool(workload, cls, size, make, key=None):
    """Up to `size` distinct inputs from a generator seeded only by the pool
    tag, workload and class."""
    rng = random.Random("%s/%s/%s" % (POOL_TAG, workload, cls))
    key = key or (lambda item: canon_edges(item["edges"]))
    seen, out = set(), []
    for _ in range(50 * size):
        item = make(rng)
        k = key(item)
        if k in seen:
            continue
        seen.add(k)
        item["cls"] = cls
        item["idx"] = len(out)
        out.append(item)
        if len(out) == size:
            break
    return out


def _item_key(item):
    return repr(sorted(item.items()))


def _graph_item(edges, **extra):
    return dict(edges=[list(e) for e in edges], **extra)


# cactus-sweep: one op per size class per block, 6..16 vertices.
CACTUS_SIZES = tuple(range(6, 17))
CACTUS_POOL = 400


def cactus_pools():
    return {"n%d" % n: _pool("cactus-sweep", "n%d" % n, CACTUS_POOL,
                             lambda rng, n=n: _graph_item(
                                 random_cactus(rng, n), n=n))
            for n in CACTUS_SIZES}


# hochster-pd: trees, unicyclic graphs and cacti on 7..12 vertices.  A block
# holds every family at 7..10 vertices (two of each at 7 and 9, three at 8)
# and one 11- and one 12-vertex graph whose families rotate with the block,
# so most ops are small and the few large ones set the tail.  The counts put
# the median inside the 8-vertex class and the 75th percentile inside the
# 9-vertex class rather than on a class boundary, and keep a block short
# enough (about 6 s) that a run holds several.
HOCHSTER_FAMILIES = {"tree": random_tree, "unicyclic": random_unicyclic,
                     "cactus": random_cactus}
HOCHSTER_POOL = {7: 200, 8: 200, 9: 200, 10: 200, 11: 60, 12: 30}


def hochster_pools():
    return {"n%d-%s" % (n, fam): _pool(
                "hochster-pd", "n%d-%s" % (n, fam), size,
                lambda rng, n=n, make=make: _graph_item(make(rng, n), n=n))
            for n, size in HOCHSTER_POOL.items()
            for fam, make in HOCHSTER_FAMILIES.items()}


def hochster_block(index):
    fams = tuple(HOCHSTER_FAMILIES)
    return ["n%d-%s" % (n, fam) for n in (7, 7, 8, 8, 8, 9, 9, 10)
            for fam in fams] + ["n11-%s" % fams[index % 3],
                                "n12-%s" % fams[(index + 1) % 3]]


# certify: the gens_lemma52 grid, gens_prop42 attachment menus and
# sv_layer_search on trees of 4..9 vertices with max_layers = big_height.
# No tree of up to 9 vertices fails that search, so the failing searches come
# from two classes capped at big_height - 1, where a layering cannot exist.
PROP42_BASES = (
    (("a", "b"),),
    (("a", "b"), ("b", "c")),
    (("a", "b"), ("b", "c"), ("c", "a")),
    (("a", "b"), ("b", "c"), ("c", "d")),
    (("a", "b"), ("a", "c"), ("a", "d")),
)
PROP42_MENU = ("whisker", 3, 4, 5)
SV_SIZES = tuple(range(4, 10))
SV_SHORT_SIZES = (7, 9)
CERTIFY_POOL = 800


def _lemma52(rng):
    r, s = rng.randint(0, 4), rng.randint(0, 4)
    names = _labels(rng, 5 + 2 * (r + s), "u")
    paths = [(names[5 + 2 * i], names[6 + 2 * i]) for i in range(r + s)]
    return {"family": "lemma52", "r": r, "s": s, "x": names[:5],
            "r_paths": paths[:r], "s_paths": paths[r:]}


def _prop42(rng):
    base = rng.choice(PROP42_BASES)
    verts = sorted({v for e in base for v in e})
    names = dict(zip(verts, _labels(rng, len(verts), "b")))
    attach = {names[v]: rng.choice(PROP42_MENU) for v in verts}
    return {"family": "prop42",
            "base": [[names[u], names[v]] for u, v in base],
            "attach": attach,
            "n": sum(2 if a == "whisker" else a for a in attach.values())}


def certify_pools():
    pools = {"lemma52": _pool("certify", "lemma52", CERTIFY_POOL, _lemma52,
                              _item_key),
             "prop42": _pool("certify", "prop42", CERTIFY_POOL, _prop42,
                             _item_key)}
    for short, prefix, sizes in ((False, "sv", SV_SIZES),
                                 (True, "svshort", SV_SHORT_SIZES)):
        for n in sizes:
            pools["%s-n%d" % (prefix, n)] = _pool(
                "certify", "%s-n%d" % (prefix, n), CERTIFY_POOL,
                lambda rng, n=n, short=short: _graph_item(
                    random_tree(rng, n, space=100), n=n, family="svsearch",
                    short=short))
    return pools


CERTIFY_BLOCK = ("lemma52", "prop42") + \
    tuple("sv-n%d" % n for n in SV_SIZES) + \
    tuple("svshort-n%d" % n for n in SV_SHORT_SIZES)
# Certificates at these block positions are also tampered and re-verified.
CERTIFY_TAMPER_SLOTS = frozenset((0, 1, 7))


# cli-small: one subprocess per op over the seven subcommands, then three
# hostile inputs.  The last two break the exit-code contract at the commit
# that introduced this benchmark (ROADMAP item 5).
CLI_SUBCOMMANDS = ("analyze", "covers", "bound", "gens", "verify",
                   "classify", "pd")
CLI_HOSTILE = ("verify-tampered", "verify-no-generators", "gens-bad-attach")
CLI_KNOWN_DEFECTS = frozenset(("verify-no-generators", "gens-bad-attach"))
CLI_POOL = 60


def _cli_graph(rng):
    n = rng.randint(3, 8)
    return _graph_item(random_cactus(rng, n), n=n)


def _cli_gens(rng):
    if rng.random() < 0.5:
        r = rng.randint(0, 1)
        s = rng.randint(0, 1 - r)
        return {"family": "lemma52", "r": r, "s": s, "n": 5 + 2 * (r + s)}
    n = rng.randint(4, 8)
    return _graph_item(random_tree(rng, n), n=n, family="svsearch")


def _cli_prop42(rng):
    while True:
        item = _prop42(rng)
        if item["n"] <= 8:
            return item


def cli_pools():
    pools = {}
    for sub in CLI_SUBCOMMANDS:
        if sub == "gens":
            make = _cli_gens
        elif sub == "verify":
            make = _cli_prop42
        else:
            make = _cli_graph
        pools[sub] = _pool("cli-small", sub, CLI_POOL, make, _item_key)
    for sub in CLI_HOSTILE:
        pools[sub] = _pool("cli-small", sub, CLI_POOL, _cli_prop42, _item_key)
    return pools


CLI_BLOCK = CLI_SUBCOMMANDS + CLI_HOSTILE


# -- schedules ---------------------------------------------------------


WORKLOADS = {
    "cactus-sweep": (cactus_pools, lambda i: ["n%d" % n
                                              for n in CACTUS_SIZES]),
    "hochster-pd": (hochster_pools, hochster_block),
    "certify": (certify_pools, lambda i: list(CERTIFY_BLOCK)),
    "cli-small": (cli_pools, lambda i: list(CLI_BLOCK)),
}


def pools(workload):
    return WORKLOADS[workload][0]()


def schedule(workload, seed, pool_map):
    """Yield (block index, slot, item) in run order.  Each class pool is
    visited in a seed-dependent order, and no item repeats; the schedule
    ends when a class pool is exhausted."""
    order = {}
    for cls, pool in sorted(pool_map.items()):
        idx = list(range(len(pool)))
        random.Random("%s/%s/%s" % (seed, workload, cls)).shuffle(idx)
        order[cls] = iter(idx)
    block_of = WORKLOADS[workload][1]
    b = 0
    while True:
        for slot, cls in enumerate(block_of(b)):
            i = next(order[cls], None)
            if i is None:
                return
            yield b, slot, pool_map[cls][i]
        b += 1
