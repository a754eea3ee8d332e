"""Shared randomised-graph helpers for the test suite."""

from __future__ import annotations

import random
from itertools import product

import pytest

from gainrig.graph import GainGraph


def random_gain_graph(
    rng: random.Random, max_n: int = 6, max_edges: int = 12
) -> GainGraph:
    """Arbitrary valid gain graph (not necessarily sparse or tight)."""
    n = rng.randint(1, max_n)
    candidates = [
        (u, v, g)
        for u in range(n)
        for v in range(u, n)
        for g in ((-1,) if u == v else (1, -1))
    ]
    rng.shuffle(candidates)
    m = rng.randint(0, min(max_edges, len(candidates)))
    return GainGraph.from_triples(n, [list(t) for t in candidates[:m]])


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def brute_components(n: int, edges) -> list[tuple[list[int], list]]:
    """(sorted vertices, edges) per connected component of the edge set on
    vertices 0..n-1, found by graph search; isolated vertices included."""
    comp = [-1] * n
    for s in range(n):
        if comp[s] >= 0:
            continue
        comp[s] = s
        stack = [s]
        while stack:
            x = stack.pop()
            for e in edges:
                if e.touches(x) and comp[e.other(x)] < 0:
                    comp[e.other(x)] = s
                    stack.append(e.other(x))
    return [
        ([v for v in range(n) if comp[v] == s], [e for e in edges if comp[e.u] == s])
        for s in range(n)
        if comp[s] == s
    ]


def brute_balanced(vertices, edges) -> bool:
    """Some +-1 sign per vertex satisfies gain(e) = s_u * s_v on every edge
    (so no loop), found by trying all 2^|vertices| assignments."""
    for bits in product((1, -1), repeat=len(vertices)):
        s = dict(zip(vertices, bits))
        if all(not e.is_loop() and e.gain == s[e.u] * s[e.v] for e in edges):
            return True
    return False


def assert_partition(g: GainGraph, part, p) -> None:
    """part's sides cover g's edges, and each side is independent: every
    component has no cycle, or (on the k - m frame sides after the m
    graphic ones) at most one, unbalanced."""
    assert set(part.side) == set(g.edges)
    for i in range(p.k):
        side = [e for e, s in part.side.items() if s == i]
        for verts, edges in brute_components(g.n, side):
            if i >= p.m and len(edges) == len(verts):
                assert not g.is_balanced(edges)
            else:
                assert len(edges) == len(verts) - 1


def _random_tree(rng: random.Random, vertices: list[int]) -> tuple[list, dict]:
    """Random tree on the vertices with random gains, as normalised triples,
    and each vertex's switching sign relative to the first."""
    sign = {vertices[0]: 1}
    triples = []
    for i, v in enumerate(vertices[1:], 1):
        u, g = rng.choice(vertices[:i]), rng.choice((1, -1))
        sign[v] = sign[u] * g
        triples.append((min(u, v), max(u, v), g))
    return triples, sign


def _map_graph(rng: random.Random, n: int) -> list:
    """A spanning unbalanced map graph (a frame-matroid basis): the vertices
    split into up to three blocks, each a random tree plus one edge that
    closes an unbalanced cycle (a loop, or a gain against the tree path)."""
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(2, n - 1))))
    triples = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        block = order[lo:hi]
        tree, sign = _random_tree(rng, block)
        u, v = rng.choice(block), rng.choice(block)
        triples += tree + [(min(u, v), max(u, v), -1 if u == v else -sign[u] * sign[v])]
    return triples


def two_base_union(rng: random.Random, n: int, p) -> GainGraph:
    """A (k,k,m)-tight graph on n vertices that no move sequence built: the
    union of k edge-disjoint bases, m spanning trees and then k - m
    spanning unbalanced map graphs.  No (u, v, gain) triple repeats."""
    used: set = set()
    for i in range(p.k):
        while True:
            if i < p.m:
                part = set(_random_tree(rng, rng.sample(range(n), n))[0])
            else:
                part = set(_map_graph(rng, n))
            if not used & part:
                break
        used |= part
    return GainGraph.from_triples(n, [list(t) for t in sorted(used)])
