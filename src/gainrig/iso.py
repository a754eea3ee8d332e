"""Gain-graph isomorphism: one vertex-by-vertex search, then one sign solve.

Two gain graphs are isomorphic when a relabelling composed with a switching
maps one edge set onto the other.  Calls are base-sized (a perfbench
`roundtrip` round makes 261, all on 1-4 vertices, from `is_base_graph`); the
search is exact at any n.  pi grows one vertex of g at a time over h's
vertices of equal degree, ascending, kept only while every pair among the
mapped vertices, loops included, has as many edges as its image.  A loop or
doubled pair carries every gain it can, so at a full pi only single edges
constrain the signs, s_u * s_v = (gain in g) * (gain in h): one balance
question (Zaslavsky, "Signed graphs", 1982), one `signed_components` call.

An isomorphism is (pi, signs), indexed by the *source* graph's vertices, with
target == apply_iso(source, pi, signs): every non-loop gain times
signs[u] * signs[v], then relabelled old -> pi[old].
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


def isomorphism(
    g: GainGraph, h: GainGraph
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(pi, signs) with h == apply_iso(g, pi, signs), or None."""
    gp, hp = _pair_counts(g), _pair_counts(h)
    if (g.n, sorted(g.degrees), sorted(gp.values())) != (h.n, sorted(h.degrees), sorted(hp.values())):
        return None
    h_gain = {(a, b): e.gain for e in h.edges for a, b in ((e.u, e.v), (e.v, e.u))}
    pi: list[int] = []
    w = 0  # the next candidate image of vertex len(pi)
    while True:
        v = len(pi)
        if v < g.n and w < h.n:
            if w not in pi and g.degrees[v] == h.degrees[w] and all(
                    gp.get((u, v), 0) == hp.get((min(x, w), max(x, w)), 0)
                    for u, x in enumerate(pi + [w])):  # the last pair is v's loop
                pi.append(w)
                w = 0
            else:
                w += 1
            continue
        if v == g.n:
            _, signs, comps = signed_components(g.n, [
                (e.u, e.v, e.gain * h_gain[pi[e.u], pi[e.v]])
                for e in g.edges if gp[(e.u, e.v)] == 1
            ])
            if not any(unbalanced for _, _, unbalanced in comps):
                found = (tuple(pi), tuple(signs))
                invariant(apply_iso(g, *found) == h, "isomorphism does not map g onto h")
                return found
        if not pi:
            return None
        w = pi.pop() + 1


def are_isomorphic(g: GainGraph, h: GainGraph) -> bool:
    return isomorphism(g, h) is not None
