"""Benchmark inputs, generated from a seed without the program's generators.

Tight graphs come from the matroid-union characterisation, never from
``gainrig.random_tight``: a (2,2,0)-tight graph is the union of two
edge-disjoint spanning unbalanced map graphs (every component has exactly
one cycle, and that cycle is unbalanced), and a (2,2,2)-tight graph is the
union of two edge-disjoint spanning trees.  Each class is independent in its
frame (or graphic) matroid, so every edge subset F meets the counts
|F| <= 2|V(F)| and, when balanced, |F| <= 2|V(F)| - 2, with equality overall.
No checker is asked.

Graphs are lists of (u, v, gain) triples on vertices 0..n-1 with u <= v.
Forward construction sequences use only the public ``Move``/``apply_move``
and only the vertex additions of degree 2 and 3 (H1, H2), which preserve
tightness for every choice of parameters, so the sequence's graph is tight
without a check.  The H3 moves and vertex split can break sparsity;
vertex-to-K4 keeps it, but its placement is left out of the realize
workload (see README.md).
"""

from __future__ import annotations

import random

Triple = tuple[int, int, int]

# Forward kinds that keep tightness whatever their parameters: each one
# extends both matroid bases of the union (subdivide an edge of one class,
# hang a pendant edge or loop on the new vertex in the other).
FORWARD_KINDS_220 = ("H1a", "H1b", "H1c", "H2a", "H2b", "H2c", "H2d", "H2e")
FORWARD_KINDS_222 = ("H1a", "H1b", "H2a", "H2b")


def _norm(u: int, v: int, g: int) -> Triple:
    return (u, v, g) if u <= v else (v, u, g)


def _random_tree(rng: random.Random, verts: list[int]) -> tuple[list[Triple], dict[int, int]]:
    """Random recursive spanning tree with random gains, plus the switching
    potential that makes every tree edge gain s_u * s_v."""
    order = list(verts)
    rng.shuffle(order)
    pot = {order[0]: 1}
    edges = []
    for i in range(1, len(order)):
        v = order[i]
        parent = order[rng.randrange(i)]
        g = rng.choice((1, -1))
        edges.append(_norm(parent, v, g))
        pot[v] = pot[parent] * g
    return edges, pot


def _unicycle(rng: random.Random, verts: list[int]) -> list[Triple]:
    """Connected spanning subgraph of verts with one cycle, unbalanced."""
    edges, pot = _random_tree(rng, verts)
    if len(verts) == 1 or rng.random() < 0.3:
        a = rng.choice(verts)
        edges.append((a, a, -1))
    else:
        a, b = rng.sample(verts, 2)
        # The tree path a..b has gain pot[a] * pot[b]; close it the other way.
        edges.append(_norm(a, b, -pot[a] * pot[b]))
    return edges


def map_graph(rng: random.Random, n: int) -> list[Triple]:
    """Spanning unbalanced map graph on 0..n-1 with one to three components."""
    verts = list(range(n))
    rng.shuffle(verts)
    parts = min(n, rng.choice((1, 1, 2, 3)))
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    edges: list[Triple] = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        edges += _unicycle(rng, verts[lo:hi])
    return edges


def spanning_tree(rng: random.Random, n: int) -> list[Triple]:
    return _random_tree(rng, list(range(n)))[0]


def tight_graph(rng: random.Random, n: int, regime: str, loops: int | None = None) -> list[Triple]:
    """(2,2,0)- or (2,2,2)-tight graph as a union of two disjoint bases; for
    (2,2,0), redrawn until it has exactly ``loops`` loops when that is given."""
    if regime == "220" and n < 2:
        raise ValueError("a single vertex carries one loop: no (2,2,0)-tight graph")
    draw = map_graph if regime == "220" else spanning_tree
    while True:
        first = draw(rng, n)
        second = draw(rng, n)
        edges = first + second
        if len(set(edges)) != len(edges):
            continue
        if loops is None or sum(u == v for u, v, _ in edges) == loops:
            return sorted(edges)


def with_extra_edge(rng: random.Random, n: int, edges: list[Triple], regime: str) -> list[Triple]:
    """One more edge than a tight graph allows: the general count breaks."""
    present = set(edges)
    absent = [
        (u, v, g)
        for u in range(n)
        for v in range(u, n)
        for g in ((-1,) if u == v else (1, -1))
        if (u, v, g) not in present and (u != v or regime == "220")
    ]
    return sorted(edges + [rng.choice(absent)])


def balanced_block(rng: random.Random, n: int, block: int) -> list[Triple]:
    """A (2,2,0) graph whose only violation is balanced: a balanced edge set
    of 2b - 1 edges on b >= 5 vertices (over the balanced bound 2b - 2 but
    within the general bound 2b), grown to n vertices by degree-2 additions,
    which keep every general count.  Vertex labels are shuffled."""
    label = list(range(n))
    rng.shuffle(label)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    pairs = [(i, j) for i in range(block) for j in range(i + 1, block)]
    chosen = rng.sample(pairs, 2 * block - 1)
    edges = [(i, j, signs[i] * signs[j]) for i, j in chosen]
    for w in range(block, n):
        a = rng.randrange(w)
        if rng.random() < 0.2:
            edges += [(a, w, 1), (a, w, -1)]
        else:
            b = rng.choice([x for x in range(w) if x != a])
            edges += [(a, w, rng.choice((1, -1))), (b, w, rng.choice((1, -1)))]
    return sorted(_norm(label[u], label[v], g) for u, v, g in edges)


def forward_sequence(rng: random.Random, n: int, regime: str):
    """ConstructionSequence grown by random forward moves from one base (or
    from a single vertex for (2,2,2)) until it has exactly n vertices.
    Returns the sequence and its graph."""
    from gainrig import PARAMS_220, PARAMS_222, ConstructionSequence, apply_move, graph_for_base_id

    if regime == "220":
        params, kinds = PARAMS_220, FORWARD_KINDS_220
        initial = (rng.choice("abcdefgh"),)
    else:
        params, kinds = PARAMS_222, FORWARD_KINDS_222
        initial = ("k1",)
    g = graph_for_base_id(initial[0])
    steps = []
    while g.n < n:
        mv = _forward_move(rng, g, rng.choice(kinds))
        if mv is None:
            continue
        g = apply_move(g, mv)
        steps.append(mv)
    return ConstructionSequence(params=params, initial=initial, steps=tuple(steps)), g


def _forward_move(rng: random.Random, g, k: str):
    """One random move of kind k whose parameters fit g, or None."""
    from gainrig import Move

    coin = lambda: rng.choice((1, -1))
    nonloops = [e for e in g.edges if not e.is_loop()]
    loops = [e for e in g.edges if e.is_loop()]
    if k == "H1a" and g.n >= 2:
        a, b = rng.sample(range(g.n), 2)
        return Move(k, vertices=(a, b), gains=(coin(), coin()))
    if k == "H1b":
        return Move(k, vertices=(rng.randrange(g.n),))
    if k == "H1c":
        return Move(k, vertices=(rng.randrange(g.n),), gains=(coin(),))
    if k == "H2a" and nonloops and g.n >= 3:
        e = rng.choice(nonloops)
        x = rng.choice((e.u, e.v))
        z = rng.choice([v for v in range(g.n) if v not in (e.u, e.v)])
        return Move(k, removed=(e,), vertices=(x, z), gains=(coin(), coin()))
    if k in ("H2b", "H2d") and nonloops:
        e = rng.choice(nonloops)
        return Move(k, removed=(e,), vertices=(rng.choice((e.u, e.v)),), gains=(coin(),))
    if k == "H2c" and loops and g.n >= 2:
        e = rng.choice(loops)
        y = rng.choice([v for v in range(g.n) if v != e.u])
        return Move(k, removed=(e,), vertices=(y,), gains=(coin(),))
    if k == "H2e" and loops:
        return Move(k, removed=(rng.choice(loops),))
    return None
