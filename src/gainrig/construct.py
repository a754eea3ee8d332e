"""Constructive characterisation: build graphs from bases, and decompose
tight graphs back into construction sequences.

A ConstructionSequence starts from a disjoint union of bases and applies
moves of the kinds catalog.regime gives its count; every intermediate graph
stays tight.  decompose() inverts this: it greedily applies admissible
reductions, matches the irreducible remainder against the bases, and replays
the moves on a fresh copy while maintaining an exact
vertex-relabelling-plus-switching isomorphism, so the caller gets both the
sequence and the isomorphism identifying construct(sequence) with the input
graph.  Both directions check tightness on one matroid partition, built
for the first graph (sparsity.tight_partition) and edited in place by each
step's delta (Partition.step), never built again; the replay checks each
step by the edges it adds, and the whole input at the end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .catalog import graph_for_base_id, is_base_graph, regime
from .graph import Edge, GainGraph, disjoint_union, invariant
from .iso import apply_iso, compose_iso, map_edge
from .moves import (
    H_SHAPES,
    Move,
    MoveError,
    apply_delta,
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
        h = apply_delta(g, *delta)
        if verify and not part.step(h, *delta):
            raise NotTight(f"intermediate graph not tight after {mv.kind}")
        g = h
    return g


def _match_components(
    g: GainGraph, p: SparsityParams, largest: int, part: Partition
) -> Optional[tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]]:
    """If every component of g is a base of p's regime, whose largest base
    has `largest` vertices, return (base ids, pi, signs) with
    apply_iso(g, pi, signs) == disjoint union of those bases.  Each tree of
    a side of part, g's partition, lies in one component (spanning it, as g
    is tight), so one on more than `largest` vertices rules a match out."""
    if max(part.forests[0].size.values()) > largest:
        return None
    comps = g.components()
    ids = []
    pi = [0] * g.n
    signs = [1] * g.n
    offset = 0
    for comp in comps:
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
    return tuple(ids), tuple(pi), tuple(signs)


def decompose(
    g: GainGraph, p: SparsityParams
) -> tuple[ConstructionSequence, tuple[int, ...], tuple[int, ...]]:
    """Reduce g to bases by reductions of the kinds p allows and return
    (sequence, pi, signs) with apply_iso(g, pi, signs) == construct(sequence).
    Each candidate is tested by carrying the current graph's matroid
    partition into its reduced graph; the accepted one's becomes current.
    ValueError unless catalog.regime serves p."""
    kinds, bases = regime(p)
    largest = max(b.n for b in bases.values())
    # With the global count, all components tight is the same as g tight.
    part = tight_partition(g, p) if len(g.edges) == p.k * g.n - p.m else None
    if part is None:
        raise NotTight(f"graph is not {p.as_tuple()}-tight")

    chain: list = []  # reductions applied, in order
    cur = g
    while True:
        match = _match_components(cur, p, largest, part)
        if match is not None:
            ids, pi_term, signs_term = match
            break
        chosen = next((r for r in enumerate_reductions(cur, kinds) if is_admissible(r, part)), None)
        if chosen is None:
            raise NoAdmissibleReduction(
                f"stuck at {cur.n} vertices: {cur.triples()}"
            )
        chain.append(chosen)
        cur = chosen.reduced

    # Replay forwards on a fresh copy, maintaining psi: chain-graph -> copy.
    # Each step's added edges are checked against the psi images of the
    # edges its reduction deleted, and the end against the whole input.
    seq_steps: list[Move] = []
    c = ConstructionSequence(params=p, initial=ids, steps=()).initial_graph()
    psi_pi, psi_signs = pi_term, signs_term
    invariant(apply_iso(cur, psi_pi, psi_signs) == c, "terminal bases do not match")
    for r in reversed(chain):
        mv2, ext_pi, ext_signs = translate_move(r.forward, psi_pi, psi_signs)
        deleted, added, pi = move_delta(c, mv2)
        c = apply_delta(c, deleted, added, pi)
        seq_steps.append(mv2)
        # r: apply_iso(pre, r.pi, r.signs) == apply_move(r.reduced, r.forward)
        psi_pi, psi_signs = compose_iso(r.pi, r.signs, ext_pi, ext_signs)
        invariant(
            sorted(added) == sorted(map_edge(e, psi_pi, psi_signs) for e in r.deleted),
            f"replay of {r.forward.kind} diverged from the reduction chain",
        )
    invariant(apply_iso(g, psi_pi, psi_signs) == c, "the replay does not rebuild the input")
    seq = ConstructionSequence(params=p, initial=ids, steps=tuple(seq_steps))
    return seq, psi_pi, psi_signs


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
            h = apply_delta(g, *delta)
        except MoveError:
            continue
        if part.step(h, *delta):
            g = h
    invariant(check_tight(g, p), "random_tight built a graph that is not tight")
    return g
