"""Gain-graph isomorphism: brute force over vertex bijections and switchings.

Two gain graphs are isomorphic when some relabelling composed with some
switching maps one edge set onto the other.  Sizes of interest are tiny
(quotient graphs of at most ~10 vertices), so a pruned backtracking search
over vertex bijections, followed by a 2-colouring feasibility check for the
switching signs, is exact and fast.

An isomorphism is represented as (pi, signs), both indexed by the *source*
graph's vertices, with the semantics  target == apply_iso(source, pi, signs):
every non-loop gain times signs[u] * signs[v], then relabelled old -> pi[old].
"""

from __future__ import annotations

from typing import Optional, Sequence

from .graph import BadVertexIndex, Edge, GainGraph, edge, invariant, signed_components


def apply_iso(
    g: GainGraph, pi: Sequence[int], signs: Sequence[int]
) -> GainGraph:
    """g switched by signs, then relabelled by old -> pi[old]."""
    if len(signs) != g.n or any(s not in (1, -1) for s in signs):
        raise BadVertexIndex("signs must assign +-1 to every vertex")
    if sorted(pi) != list(range(g.n)):
        raise BadVertexIndex("pi must be a permutation of the vertices")
    return GainGraph(g.n, tuple(map_edge(e, pi, signs) for e in g.edges))


def map_edge(e: Edge, pi: Sequence[int], signs: Sequence[int]) -> Edge:
    """Image of a single edge under (pi, signs)."""
    gain = e.gain if e.is_loop() else e.gain * signs[e.u] * signs[e.v]
    return edge(pi[e.u], pi[e.v], gain)


def _pair_counts(g: GainGraph) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for e in g.edges:
        counts[(e.u, e.v)] = counts.get((e.u, e.v), 0) + 1
    return counts


def _profile(g: GainGraph, v: int) -> tuple[int, int]:
    return (g.degree(v), 1 if g.loop_at(v) else 0)


def _switching_signs(
    g: GainGraph, h: GainGraph, pi: Sequence[int]
) -> Optional[list[int]]:
    """Signs making the multigraph bijection pi gain-preserving, if any.

    Only pairs joined by exactly one edge constrain the signs (a double
    parallel pair carries both gains on both sides, loops are always -1);
    feasibility is the balance of the single-edge constraints, each asking
    s_u * s_v == (gain in g) * (gain in h).
    """
    h_edges = set(h.edges)
    constraints = []
    pairs = _pair_counts(g)
    for e in g.edges:
        if e.is_loop():
            if edge(pi[e.u], pi[e.u], -1) not in h_edges:
                return None
            continue
        if pairs[(e.u, e.v)] == 2:
            for gn in (1, -1):
                if edge(pi[e.u], pi[e.v], gn) not in h_edges:
                    return None
            continue
        matched = None
        for gn in (1, -1):
            if edge(pi[e.u], pi[e.v], gn) in h_edges:
                matched = gn
        if matched is None:
            return None
        constraints.append((e.u, e.v, e.gain * matched))
    _, sign, comps = signed_components(g.n, constraints)
    return None if any(unbalanced for _, _, unbalanced in comps) else sign


def isomorphism(
    g: GainGraph, h: GainGraph
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(pi, signs) with h == apply_iso(g, pi, signs), or None."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return None
    if sorted(_profile(g, v) for v in range(g.n)) != sorted(
        _profile(h, v) for v in range(h.n)
    ):
        return None
    gp, hp = _pair_counts(g), _pair_counts(h)
    if sorted(gp.values()) != sorted(hp.values()):
        return None

    # Assign rare-profile vertices first to prune early.
    profile_freq: dict[tuple[int, int], int] = {}
    for v in range(g.n):
        p = _profile(g, v)
        profile_freq[p] = profile_freq.get(p, 0) + 1
    order = sorted(range(g.n), key=lambda v: (profile_freq[_profile(g, v)], v))

    pi: list[int] = [-1] * g.n
    used = [False] * h.n

    def backtrack(k: int):
        if k == g.n:
            signs = _switching_signs(g, h, pi)
            if signs is not None:
                return (tuple(pi), tuple(signs))
            return None
        v = order[k]
        pv = _profile(g, v)
        for w in range(h.n):
            if used[w] or _profile(h, w) != pv:
                continue
            if any(
                gp.get((min(u, v), max(u, v)), 0)
                != hp.get((min(pi[u], w), max(pi[u], w)), 0)
                for u in order[:k]
            ):
                continue
            pi[v] = w
            used[w] = True
            res = backtrack(k + 1)
            if res is not None:
                return res
            pi[v] = -1
            used[w] = False
        return None

    result = backtrack(0)
    if result is not None:
        invariant(apply_iso(g, *result) == h, "isomorphism does not map g onto h")
    return result


def are_isomorphic(g: GainGraph, h: GainGraph) -> bool:
    return isomorphism(g, h) is not None
