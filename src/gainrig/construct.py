"""Constructive characterisation: build graphs from bases, and decompose
tight graphs back into construction sequences.

A ConstructionSequence starts from a disjoint union of bases and applies
moves of the kinds catalog.regime gives its count; every intermediate graph
stays tight.  decompose() inverts this on the input's vertex ids, which no
reduction renames: it greedily applies admissible reductions, matches the
irreducible remainder against the bases with one relabelling, and replays
the moves on a fresh copy through one map from the ids onto it, extended by
each created vertex, so the caller gets both the sequence and the
isomorphism identifying construct(sequence) with the input graph.  Both
directions check tightness on one matroid partition, built for the first
graph (sparsity.tight_partition) and edited in place by each step's delta
(Partition.step), never built again; the replay checks each step by the
edges it adds, and the whole input at the end.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Container, Optional, Sequence

from .catalog import graph_for_base_id, is_base_graph, regime
from .graph import Edge, GainGraph, disjoint_union, invariant
from .iso import apply_iso, map_edge
from .moves import (
    H_SHAPES,
    Move,
    MoveError,
    Reduction,
    apply_reduction,
    enumerate_reductions,
    is_admissible,
    move_delta,
    translate_move,
)
from .sparsity import Partition, SparsityParams, check_tight, tight_partition


class NotTight(ValueError):
    """Input graph fails the tight count-and-sparsity requirement."""


class NoAdmissibleReduction(RuntimeError):
    """No reduction preserves tightness and no base components remain."""


@dataclass(frozen=True)
class ConstructionSequence:
    params: SparsityParams
    initial: tuple[str, ...]  # base ids, joined as a disjoint union in order
    steps: tuple[Move, ...]

    def __post_init__(self) -> None:
        kinds = regime(self.params)[0]
        for mv in self.steps:
            if mv.kind not in kinds:
                raise MoveError(f"move kind {mv.kind} not allowed for {self.params.as_tuple()}")

    def initial_graph(self) -> GainGraph:
        return disjoint_union([graph_for_base_id(b) for b in self.initial])

    @property
    def character(self) -> int:
        """The character j its counts fix: 2n - 2j edges are (2,2,2j)."""
        return self.params.m // 2


def construct(
    seq: ConstructionSequence, verify: bool = True
) -> GainGraph:
    """Replay a construction sequence; with verify, check that every
    component of every intermediate graph is tight, carrying one matroid
    partition from each graph to the next."""
    g = seq.initial_graph()
    p = seq.params
    if verify:
        part = tight_partition(g, p)
        if part is None:
            raise NotTight(f"initial base union not tight: {seq.initial}")
    for mv in seq.steps:
        delta = move_delta(g, mv)
        g = g.spliced(*delta)
        if verify and not part.step(*delta):
            raise NotTight(f"intermediate graph not tight after {mv.kind}")
    return g


def _match_components(
    g: GainGraph, p: SparsityParams, largest: int, part: Partition, dead: Container[int]
) -> Optional[tuple[tuple[str, ...], list[int], list[int]]]:
    """If every component of g but its dead ids is a base of p's regime,
    whose largest base has `largest` vertices, return (base ids, pi, signs)
    sending g's live ids onto the disjoint union of those bases (dead ones
    to 0, +1).  Each tree of a side of part, g's partition, lies in one
    component, so one on more than `largest` vertices rules a match out."""
    if any(max(f.size.values(), default=0) > largest for f in part.forests):
        return None
    ids, pi, signs, offset = [], [0] * g.n, [1] * g.n, 0
    for comp in g.components():
        if comp[0] in dead:
            continue
        sub = g.subgraph(comp)
        base = is_base_graph(sub, p)
        if base is None:
            return None
        bid, sub_pi, sub_signs = base
        ids.append(bid)
        for local, v in enumerate(comp):
            pi[v] = offset + sub_pi[local]
            signs[v] = sub_signs[local]
        offset += sub.n
    return tuple(ids), pi, signs


def _rebucket(buckets: dict[int, list[int]], g: GainGraph, h: GainGraph, r: Reduction) -> None:
    """Move each vertex r touches from its bucket by degree in g to its
    bucket in h, r's reduced graph; r's dropped vertices leave them."""
    for v in {x for e in r.deleted + r.added for x in e[:2]}:
        old = g.degrees[v] if v < g.n else None
        new = None if v in r.dropped else h.degrees[v]
        if old != new and old is not None:
            del buckets[old][bisect_left(buckets[old], v)]
        if old != new and new is not None:
            insort(buckets.setdefault(new, []), v)


def decompose(
    g: GainGraph, p: SparsityParams
) -> tuple[ConstructionSequence, tuple[int, ...], tuple[int, ...]]:
    """Reduce g to bases by reductions of the kinds p allows and return
    (sequence, pi, signs) with apply_iso(g, pi, signs) == construct(sequence).
    The reductions run on g's ids (moves docstring), with the live vertices
    kept in buckets by degree and walked in (degree, id) order; each
    candidate is tested by carrying the current graph's matroid partition
    into its reduced graph, and only the accepted one's graph is built.
    ValueError unless catalog.regime serves p."""
    kinds, bases = regime(p)
    largest = max(b.n for b in bases.values())
    # With the global count, all components tight is the same as g tight.
    part = tight_partition(g, p) if len(g.edges) == p.k * g.n - p.m else None
    if part is None:
        raise NotTight(f"graph is not {p.as_tuple()}-tight")

    buckets: dict[int, list[int]] = {}
    for v, d in enumerate(g.degrees):
        buckets.setdefault(d, []).append(v)
    chain, dead, cur = [], set(), g  # the reductions applied, in order, and the ids dropped
    while (match := _match_components(cur, p, largest, part, dead)) is None:
        order = ((d, v) for d in sorted(buckets) for v in buckets[d])
        found = (r for r in enumerate_reductions(cur, kinds, order) if is_admissible(r, part))
        if (chosen := next(found, None)) is None:
            raise NoAdmissibleReduction(f"stuck at {cur.n - len(dead)} vertices: {cur.triples()}")
        reduced = apply_reduction(cur, chosen)
        _rebucket(buckets, cur, reduced, chosen)
        chain.append(chosen)
        dead.update(chosen.dropped)
        cur = reduced

    # Replay forwards on a fresh copy, maintaining psi: the ids -> the copy,
    # extended by each step's created ids.  Each step's added edges are
    # checked against the psi images of the edges its reduction deleted.
    ids, psi, psi_signs = match
    seq_steps: list[Move] = []
    c = ConstructionSequence(params=p, initial=ids, steps=()).initial_graph()
    invariant(sorted(map_edge(e, psi, psi_signs) for e in cur.edges) == list(c.edges),
              "terminal bases do not match")
    for r in reversed(chain):
        mv2, sign = translate_move(r.forward, psi, psi_signs)
        _, _, added, pi = delta = move_delta(c, mv2)
        c = c.spliced(*delta)
        seq_steps.append(mv2)
        if pi is not None:  # VertexToK4 shifts the vertices after its own down
            psi = [x - (x > mv2.vertices[0]) for x in psi]
        for i, v in enumerate(r.dropped, c.n - len(r.dropped)):
            psi[v], psi_signs[v] = i, sign
        for v in r.flipped:
            psi_signs[v] = -psi_signs[v]
        invariant(
            sorted(added) == sorted(map_edge(e, psi, psi_signs) for e in r.deleted),
            f"replay of {r.forward.kind} diverged from the reduction chain",
        )
    pi, signs = tuple(psi[:g.n]), tuple(psi_signs[:g.n])
    invariant(apply_iso(g, pi, signs) == c, "the replay does not rebuild the input")
    return ConstructionSequence(params=p, initial=ids, steps=tuple(seq_steps)), pi, signs


# ---------------------------------------------------------------------------
# Random generation of tight graphs.
# ---------------------------------------------------------------------------


def _random_move(g: GainGraph, kinds: Sequence[str], rng: random.Random) -> Optional[Move]:
    """Sample one move of a random allowed kind, or None if g lacks the edges
    or vertices it names.  An H move fills its H_SHAPES row: each removed
    edge is a distinct edge of g (a loop where the row has one), oriented at
    its first name if that is bound, the other names are distinct unused
    vertices and the gains random signs; apply_move rejects what does not fit."""
    k = rng.choice(list(kinds))
    if k == "VertexToK4":
        v = rng.randrange(g.n)
        att = tuple(
            (e, rng.randrange(4))
            for e in g.edges_at(v, include_loop=False)
        )
        la = None
        if g.loop_at(v) is not None:
            i, j = rng.randrange(4), rng.randrange(4)
            la = (min(i, j), max(i, j))
        return Move(k, vertices=(v,), attach=att, loop_attach=la)
    if k == "VertexSplit":
        nonloops = [e for e in g.edges if not e.is_loop()]
        if not nonloops:
            return None
        e = rng.choice(nonloops)
        v1 = rng.choice((e.u, e.v))
        others = [m for m in g.edges_at(v1, include_loop=False) if m != e]
        moved = tuple(sorted(rng.sample(others, rng.randrange(len(others) + 1))))
        ml = g.loop_at(v1) is not None and rng.random() < 0.5
        return Move(k, vertices=(v1,), v2_edge=e, moved=moved, move_loop=ml)
    shape = H_SHAPES[k]
    at: dict[str, int] = {}
    removed: list[Edge] = []
    for p, q, _ in shape.removed:
        pool = [
            e for e in g.edges
            if e.is_loop() == (p == q) and e not in removed
            and (p not in at or e.touches(at[p]))
        ]
        if not pool:
            return None
        e = rng.choice(pool)
        u = at[p] if p in at else rng.choice((e.u, e.v))
        at[p], at[q] = u, e.other(u)
        removed.append(e)
    names = [x for x in shape.vertices if x not in at]
    free = [v for v in range(g.n) if v not in at.values()]
    if len(free) < len(names):
        return None
    at.update(zip(names, rng.sample(free, len(names))))
    return Move(
        k,
        vertices=tuple(at[x] for x in shape.vertices),
        gains=tuple(rng.choice((1, -1)) for _ in shape.gains),
        removed=tuple(removed),
    )


# Sampled moves random_tight may try before it gives up.
MAX_ATTEMPTS = 10_000


def random_tight(n: int, p: SparsityParams, seed: int) -> GainGraph:
    """A pseudo-random p-tight graph on exactly n vertices, built by applying
    random tightness-preserving moves to a random base of p's regime on at
    most n vertices; ValueError if catalog.regime does not serve p or no
    such base exists."""
    if n < 1:
        raise ValueError(f"random_tight needs n >= 1, got {n}")
    kinds, bases = regime(p)
    starts = [b for b in bases.values() if b.n <= n]
    if not starts:
        raise ValueError(f"no catalogue base on at most {n} vertices is {p.as_tuple()}-tight")
    rng = random.Random(seed)
    g = rng.choice(starts) if len(starts) > 1 else starts[0]
    part = tight_partition(g, p)
    attempts = 0
    while g.n < n:
        attempts += 1
        if attempts > MAX_ATTEMPTS:
            raise RuntimeError("random_tight: too many rejected moves")
        room = n - g.n
        usable = [k for k in kinds if k != "VertexToK4" or room >= 3]
        mv = _random_move(g, usable, rng)
        if mv is None:
            continue
        try:
            delta = move_delta(g, mv)
        except MoveError:
            continue
        if part.step(*delta):
            g = g.spliced(*delta)
    invariant(check_tight(g, p), "random_tight built a graph that is not tight")
    return g
