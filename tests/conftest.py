"""Shared randomised-graph helpers for the test suite."""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from pathlib import Path

import pytest

from gainrig.graph import GainGraph, edge
from gainrig.iso import apply_iso
from gainrig.linalg import _bareiss_rank, matrix_rank
from gainrig.moves import apply_move, apply_reduction
from gainrig.norms import ConeBoundary, ZeroVector
from gainrig.rigidity import FrameworkError, NotWellPositioned, _apply, _rotation


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


def dense_rank(rows) -> int:
    """Exact rank of a dense matrix of Fractions or ints: each row scaled to
    integers and passed to linalg.matrix_rank as a sparse row."""
    sparse = []
    for row in rows:
        mult = lcm(*(Fraction(x).denominator for x in row))
        sparse.append({c: int(x * mult) for c, x in enumerate(row) if x})
    return matrix_rank(sparse, len(rows[0]) if rows else 0)


def perfbench_gen():
    """perfbench's input generator module (perfbench/gen.py), loaded from its file."""
    spec = importlib.util.spec_from_file_location("gen", Path(__file__).parent.parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def dense_step_certified(new, old) -> bool:
    """The reference for linalg.step_certified, on dense integer rows whose
    last two columns are the new vertex's: new has two rows more than old,
    two of them, a and b, a nonzero 2x2 block there, and
    rank(K + old) == rank(K) by Bareiss elimination of dense copies, K the
    rows of new cleared there by adjugate multiples of a and b (a and b
    themselves become zero)."""
    pair = next(((a, b) for a, b in combinations(new, 2) if a[-2] * b[-1] != a[-1] * b[-2]), None)
    if len(new) != len(old) + 2 or pair is None:
        return False
    (p, q), (r, s) = (row[-2:] for row in pair)
    k = [[(p * s - q * r) * z - (x * s - y * r) * za - (y * p - x * q) * zb for z, za, zb in zip(row, *pair)]
         for row in new for x, y in [row[-2:]]]
    return not old or _bareiss_rank([*map(list, k), *map(list, old)]) == _bareiss_rank(k)


def dense_step_args(new, old, cols):
    """linalg.step_certified's sparse rows as dense_step_certified takes
    them: dense over the columns either uses, cols last."""
    keys = sorted(set(cols).union(*new, *old) - set(cols)) + list(cols)
    return [[[r.get(c, 0) for c in keys] for r in rows] for rows in (new, old)]


def covering_rigidity_matrix(fw) -> list[list]:
    """Plain rigidity matrix of the order-n covering framework: the oracle
    the orbit matrices' block ranks are checked against.

    Covering vertex (v, t) sits at the t-th rotation image of p_v and maps
    to column block v * n + t; a gain of -1 shifts the copy index by n / 2.
    Duplicate lifted edges (loops close up after n/2 shifts) are deduplicated.
    """
    g, n = fw.graph, fw.group_order
    d = fw.norm.dimension
    if d != 2 and n > 1:
        raise FrameworkError("rotational covering only supported in the plane")
    pos = {(v, t): _apply(_rotation(n, t), fw.positions[v]) for v in range(g.n) for t in range(n)}
    shift = {1: 0, -1: n // 2}
    lifted = set()
    for e in g.edges:
        for t in range(n):
            a = (e.u, t)
            b = (e.v, (t + shift[e.gain]) % n)
            lifted.add(frozenset((a, b)) if a != b else frozenset((a,)))
    col = {(v, t): (v * n + t) * d for v in range(g.n) for t in range(n)}
    rows = []
    for pair in sorted(lifted, key=lambda s: sorted(s)):
        pts = sorted(pair)
        if len(pts) == 1:
            raise FrameworkError("degenerate covering edge")
        a, b = pts
        delta = tuple(x - y for x, y in zip(pos[a], pos[b]))
        try:
            phi = fw.norm.support_covector(delta)
        except (ZeroVector, ConeBoundary) as exc:
            raise NotWellPositioned(f"covering edge {a}-{b}: {exc}") from exc
        row = [0] * (g.n * n * d)
        for i in range(d):
            row[col[a] + i] += phi[i]
            row[col[b] + i] -= phi[i]
        rows.append(row)
    return rows


def reduced_graph(g: GainGraph, r) -> GainGraph:
    """The graph r reduces g to (apply_reduction, on g's ids) with its live
    vertices renamed 0, 1, ... in order: r's dropped ids are left out."""
    h = apply_reduction(g, r)
    return h.subgraph([v for v in range(h.n) if v not in r.dropped])


def rebuilds(g: GainGraph, r) -> bool:
    """Whether r's forward move re-creates g from apply_reduction(g, r): it
    appends its vertices last, so each id r dropped swaps with the one
    created in its place, and r's switching is undone; the graph then holds
    g's edges and, at its other ids, isolated vertices."""
    back = apply_move(apply_reduction(g, r), r.forward)
    pi, signs = list(range(back.n)), [1] * back.n
    for i, d in enumerate(r.dropped, back.n - len(r.dropped)):
        pi[d], pi[i] = i, d
    for v in r.flipped:
        signs[v] = -1
    return apply_iso(GainGraph(back.n, g.edges), pi, signs) == back


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
    (so no gain -1 loop), found by trying all 2^|vertices| assignments."""
    for bits in product((1, -1), repeat=len(vertices)):
        s = dict(zip(vertices, bits))
        if all(e.gain == s[e.u] * s[e.v] for e in edges):
            return True
    return False


def current_sides(part) -> dict:
    """part's side of each edge it holds, named in the current graph through
    its ids and flips (part keeps its edges on stable vertex ids)."""
    name = {i: v for v, i in enumerate(part.ids)}
    out = {}
    for e, s in part.side.items():
        u, v = name[e.u], name[e.v]
        out[edge(u, v, e.gain if u == v else e.gain * part.flips[u] * part.flips[v])] = s
    return out


def assert_partition(g: GainGraph, part, p) -> None:
    """part's sides, named in g, are exactly g's edges, and each side is
    independent: every component has no cycle, or (on the k - m frame sides
    after the m graphic ones) at most one, unbalanced."""
    sides = current_sides(part)
    assert set(sides) == set(g.edges)
    for i in range(p.k):
        side = [e for e, s in sides.items() if s == i]
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
