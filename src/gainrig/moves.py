"""The fourteen gain-tightness-preserving moves and their reverses.

Forward moves add one vertex (H1*, H2*, H3*, vertex split) or replace a
vertex by a K4 (vertex-to-K4).  Parameter conventions, with w the new vertex
(always the next free index; vertex-to-K4 first removes its vertex, then
appends four):

  H1a  vertices=(a, b)  gains=(ga, gb)            adds (a,w,ga), (b,w,gb); a != b
  H1b  vertices=(a,)                              adds (a,w,+1), (a,w,-1)
  H1c  vertices=(a,)    gains=(ga,)               adds (a,w,ga), loop (w,w,-1)
  H2a  removed=(e,)     vertices=(x, z) gains=(bx, dz)
       deletes e=(x,y,al); adds (x,w,bx), (y,w,al*bx), (z,w,dz); x,y,z distinct
  H2b  removed=(e,)     vertices=(x,)   gains=(d,)
       deletes e=(x,y,al), x != y; adds (x,w,+1), (x,w,-1), (y,w,d)
  H2c  removed=(loop,)  vertices=(y,)   gains=(d,)
       deletes loop (x,x,-1); adds (x,w,+1), (x,w,-1), (y,w,d); y != x
  H2d  removed=(e,)     vertices=(x,)   gains=(bx,)
       deletes e=(x,y,al), x != y; adds (x,w,bx), (y,w,al*bx), loop (w,w,-1)
  H2e  removed=(loop,)
       deletes loop (x,x,-1); adds (x,w,+1), (x,w,-1), loop (w,w,-1)
  H3a  removed=(e1,e2)  vertices=(x, z) gains=(gx, gz)
       deletes e1=(x,y,al), e2=(z,t,be), all endpoints distinct;
       adds (x,w,gx), (y,w,al*gx), (z,w,gz), (t,w,be*gz)
  H3b  removed=(e1,e2)  vertices=(y, x, t)
       deletes e1=(x,y,al), e2=(y,t,be) sharing exactly y;
       adds (x,w,al), (y,w,+1), (y,w,-1), (t,w,-be)
  H3c  removed=(loop,e2) vertices=(z,)  gains=(gz,)
       deletes loop (x,x,-1) and e2=(z,t,be) with x not in {z,t}, z != t;
       adds (x,w,+1), (x,w,-1), (z,w,gz), (t,w,be*gz)
  H3d  removed=(loop1,loop2)
       deletes loops at x and z, x != z; adds (x,w,+-1) and (z,w,+-1) pairs
  VertexToK4  vertices=(v,) attach=((edge, idx), ...) loop_attach=(i, j)|None
       removes v; appends a balanced K4 (gains +1) on the four new vertices;
       each non-loop edge (x,v,g) reattaches as (x, K4[idx], g); a loop at v
       becomes (K4[i], K4[j], -1), i == j allowed (a loop again)
  VertexSplit vertices=(v1,) v2_edge=e moved=(edges...) move_loop=bool
       e=(v1,v2,g); appends v0; every edge in moved (non-loop, at v1, != e)
       is re-ended from v1 to v0; adds (v0,v1,+1) and (v0,v2,g); a loop at v1
       optionally moves to v0.

ARITY fixes how many vertices, gains and removed edges each kind takes.

Under a relabel+switch (pi, signs) a move translates the same way for every
kind (translate_move): vertices map through pi, every edge field through
map_edge, and each gain is multiplied by the sign of its anchor vertex.
Gain i is anchored at vertices[i], except under H2b, whose one gain sits at
y, the far end of the deleted edge.  A created vertex gets sign +1, except
under H3b, VertexToK4 and VertexSplit, where it inherits the sign of
vertices[0]; that keeps the H3b gain rules, the balanced K4 and the gains of
edges re-ended onto the new vertices intact.

A Reduction undoes a move: it stores the reduced graph, the forward Move (in
the reduced graph's labelling) that re-creates the input, and the exact
relabel+switch (pi, signs) with apply_iso(input, pi, signs) ==
apply_move(reduced, forward).  Admissibility is semantic: the reduced graph
must be tight; the edges it shares with the input form a sparse subgraph, so
only subsets touching the re-added edges are re-scanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Optional, Sequence

from .graph import Edge, GainGraph, GainGraphError, edge
from .iso import apply_iso, map_edge
from .sparsity import SparsityParams, components_tight

# Fixed arity per kind: (vertices, gains, removed edges).  Order matters: it
# fixes ALL_KINDS, from which random generation draws.
ARITY: dict[str, tuple[int, int, int]] = {
    "H1a": (2, 2, 0), "H1b": (1, 0, 0), "H1c": (1, 1, 0),
    "H2a": (2, 2, 1), "H2b": (1, 1, 1), "H2c": (1, 1, 1), "H2d": (1, 1, 1),
    "H2e": (0, 0, 1),
    "H3a": (2, 2, 2), "H3b": (3, 0, 2), "H3c": (1, 1, 2), "H3d": (0, 0, 2),
    "VertexToK4": (1, 0, 0), "VertexSplit": (1, 0, 0),
}
ALL_KINDS = tuple(ARITY)
H_KINDS = tuple(k for k in ALL_KINDS if k.startswith("H"))

# Move subset of the (2,2,2) characterisation.
KINDS_222 = ("H1a", "H1b", "H2a", "H2b", "VertexToK4", "VertexSplit")

# Kinds whose created vertices take the switching sign of vertices[0].
_INHERITS_SIGN = ("H3b", "VertexToK4", "VertexSplit")


class MoveError(ValueError):
    """Move parameters do not match the graph or violate a gain constraint."""


@dataclass(frozen=True)
class Move:
    kind: str
    vertices: tuple[int, ...] = ()
    gains: tuple[int, ...] = ()
    removed: tuple[Edge, ...] = ()
    attach: tuple[tuple[Edge, int], ...] = ()
    loop_attach: Optional[tuple[int, int]] = None
    v2_edge: Optional[Edge] = None
    moved: tuple[Edge, ...] = ()
    move_loop: bool = False


@dataclass(frozen=True)
class Reduction:
    kind: str
    reduced: GainGraph
    forward: Move
    pi: tuple[int, ...]
    signs: tuple[int, ...]
    new_edges: tuple[Edge, ...]  # edges of `reduced` absent from the input


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise MoveError(msg)


def arity_error(mv: Move) -> Optional[str]:
    """Why mv's kind is unknown or a counted field has the wrong length;
    None if the kind and the counts fit ARITY."""
    if mv.kind not in ARITY:
        return f"unknown move kind {mv.kind!r}"
    for field, want in zip(("vertices", "gains", "removed"), ARITY[mv.kind]):
        got = len(getattr(mv, field))
        if got != want:
            return f"{mv.kind} needs {want} {field}, got {got}"
    return None


def _delete(edges: list[Edge], e: Edge) -> None:
    try:
        edges.remove(e)
    except ValueError:
        raise MoveError(f"edge {e.as_list()} not present") from None


def apply_move(g: GainGraph, mv: Move) -> GainGraph:
    """Forward application; raises MoveError on any constraint violation."""
    problem = arity_error(mv)
    _require(problem is None, problem)
    k = mv.kind
    edges = list(g.edges)
    w = g.n

    def check_vertex(v: int) -> None:
        _require(0 <= v < g.n, f"no vertex {v}")

    for v in mv.vertices:
        check_vertex(v)

    if k == "H1a":
        (a, b), (ga, gb) = mv.vertices, mv.gains
        _require(a != b, "H1a needs two distinct neighbours")
        edges += [edge(a, w, ga), edge(b, w, gb)]
    elif k == "H1b":
        (a,) = mv.vertices
        edges += [edge(a, w, 1), edge(a, w, -1)]
    elif k == "H1c":
        (a,), (ga,) = mv.vertices, mv.gains
        edges += [edge(a, w, ga), edge(w, w, -1)]
    elif k == "H2a":
        (e,), (x, z), (bx, dz) = mv.removed, mv.vertices, mv.gains
        _require(not e.is_loop(), "H2a deletes a non-loop edge")
        _require(e.touches(x), "x must be an endpoint of the deleted edge")
        y = e.other(x)
        _require(len({x, y, z}) == 3, "H2a needs three distinct neighbours")
        _delete(edges, e)
        edges += [edge(x, w, bx), edge(y, w, e.gain * bx), edge(z, w, dz)]
    elif k == "H2b":
        (e,), (x,), (d,) = mv.removed, mv.vertices, mv.gains
        _require(not e.is_loop() and e.touches(x), "H2b deletes (x,y,al)")
        y = e.other(x)
        _delete(edges, e)
        edges += [edge(x, w, 1), edge(x, w, -1), edge(y, w, d)]
    elif k == "H2c":
        (e,), (y,), (d,) = mv.removed, mv.vertices, mv.gains
        _require(e.is_loop(), "H2c deletes a loop")
        _require(y != e.u, "H2c needs a second neighbour")
        _delete(edges, e)
        edges += [edge(e.u, w, 1), edge(e.u, w, -1), edge(y, w, d)]
    elif k == "H2d":
        (e,), (x,), (bx,) = mv.removed, mv.vertices, mv.gains
        _require(not e.is_loop() and e.touches(x), "H2d deletes (x,y,al)")
        y = e.other(x)
        _delete(edges, e)
        edges += [edge(x, w, bx), edge(y, w, e.gain * bx), edge(w, w, -1)]
    elif k == "H2e":
        (e,) = mv.removed
        _require(e.is_loop(), "H2e deletes a loop")
        _delete(edges, e)
        edges += [edge(e.u, w, 1), edge(e.u, w, -1), edge(w, w, -1)]
    elif k == "H3a":
        (e1, e2), (x, z), (gx, gz) = mv.removed, mv.vertices, mv.gains
        _require(not e1.is_loop() and not e2.is_loop(), "H3a deletes edges")
        _require(e1.touches(x) and e2.touches(z), "bad H3a anchors")
        y, t = e1.other(x), e2.other(z)
        _require(len({x, y, z, t}) == 4, "H3a needs four distinct neighbours")
        _delete(edges, e1)
        _delete(edges, e2)
        edges += [
            edge(x, w, gx),
            edge(y, w, e1.gain * gx),
            edge(z, w, gz),
            edge(t, w, e2.gain * gz),
        ]
    elif k == "H3b":
        (e1, e2), (y, x, t) = mv.removed, mv.vertices
        _require(not e1.is_loop() and not e2.is_loop(), "H3b deletes edges")
        _require(
            e1.touches(y) and e1.other(y) == x and e2.touches(y)
            and e2.other(y) == t,
            "H3b edges must share exactly the pivot vertex",
        )
        _require(len({x, y, t}) == 3, "H3b needs three distinct neighbours")
        _delete(edges, e1)
        _delete(edges, e2)
        edges += [
            edge(x, w, e1.gain),
            edge(y, w, 1),
            edge(y, w, -1),
            edge(t, w, -e2.gain),
        ]
    elif k == "H3c":
        (e1, e2), (z,), (gz,) = mv.removed, mv.vertices, mv.gains
        _require(e1.is_loop() and not e2.is_loop(), "H3c deletes loop + edge")
        _require(e2.touches(z), "bad H3c anchor")
        t = e2.other(z)
        _require(e1.u not in (z, t), "H3c loop vertex must be separate")
        _delete(edges, e1)
        _delete(edges, e2)
        edges += [
            edge(e1.u, w, 1),
            edge(e1.u, w, -1),
            edge(z, w, gz),
            edge(t, w, e2.gain * gz),
        ]
    elif k == "H3d":
        (e1, e2) = mv.removed
        _require(e1.is_loop() and e2.is_loop() and e1.u != e2.u, "H3d loops")
        _delete(edges, e1)
        _delete(edges, e2)
        edges += [
            edge(e1.u, w, 1),
            edge(e1.u, w, -1),
            edge(e2.u, w, 1),
            edge(e2.u, w, -1),
        ]
    elif k == "VertexToK4":
        return _apply_vertex_to_k4(g, mv)
    elif k == "VertexSplit":
        return _apply_vertex_split(g, mv)

    try:
        return GainGraph(g.n + 1, tuple(edges))
    except GainGraphError as exc:
        raise MoveError(f"result invalid: {exc}") from exc


def _apply_vertex_to_k4(g: GainGraph, mv: Move) -> GainGraph:
    (v,) = mv.vertices
    incident = g.edges_at(v, include_loop=False)
    loop = g.loop_at(v)
    attach = dict(mv.attach)
    _require(
        sorted(attach) == sorted(incident) and len(attach) == len(incident),
        "attach must map each non-loop incident edge exactly once",
    )
    _require(all(0 <= i < 4 for i in attach.values()), "attach index in 0..3")
    if loop is not None:
        _require(mv.loop_attach is not None, "loop present: need loop_attach")
    else:
        _require(mv.loop_attach is None, "no loop to reattach")

    def renum(u: int) -> int:
        return u if u < v else u - 1

    m = g.n - 1  # first K4 vertex index after removing v
    edges = [
        edge(renum(e.u), renum(e.v), e.gain)
        for e in g.edges
        if not e.touches(v)
    ]
    edges += [edge(m + i, m + j, 1) for i, j in combinations(range(4), 2)]
    for e, idx in sorted(attach.items()):
        x = e.other(v)
        edges.append(edge(renum(x), m + idx, e.gain))
    if loop is not None:
        i, j = mv.loop_attach
        _require(0 <= i < 4 and 0 <= j < 4, "loop_attach index in 0..3")
        edges.append(edge(m + i, m + j, -1))
    try:
        return GainGraph(g.n + 3, tuple(edges))
    except GainGraphError as exc:
        raise MoveError(f"result invalid: {exc}") from exc


def _apply_vertex_split(g: GainGraph, mv: Move) -> GainGraph:
    (v1,) = mv.vertices
    e12 = mv.v2_edge
    _require(e12 is not None and not e12.is_loop() and e12.touches(v1),
             "v2_edge must be a non-loop edge at v1")
    _require(g.has_edge(e12), "v2_edge not present")
    v2 = e12.other(v1)
    moved = list(mv.moved)
    _require(e12 not in moved, "v2_edge cannot be moved")
    _require(
        all(m.touches(v1) and not m.is_loop() for m in moved),
        "moved edges must be non-loop edges at v1",
    )
    _require(len(set(moved)) == len(moved), "moved edges repeated")
    v0 = g.n
    edges = list(g.edges)
    for mvd in moved:
        _delete(edges, mvd)
        edges.append(edge(mvd.other(v1), v0, mvd.gain))
    if mv.move_loop:
        loop = g.loop_at(v1)
        _require(loop is not None, "move_loop set but v1 has no loop")
        _delete(edges, loop)
        edges.append(edge(v0, v0, -1))
    edges += [edge(v0, v1, 1), edge(v0, v2, e12.gain)]
    try:
        return GainGraph(g.n + 1, tuple(edges))
    except GainGraphError as exc:
        raise MoveError(f"result invalid: {exc}") from exc


# ---------------------------------------------------------------------------
# Isomorphism translation: image of a move under a relabel+switch.
# ---------------------------------------------------------------------------


def translate_move(
    mv: Move, pi: Sequence[int], signs: Sequence[int]
) -> tuple[Move, tuple[int, ...], tuple[int, ...]]:
    """Image mv2 of mv under (pi, signs), and (pi, signs) extended across it.

    apply_move(apply_iso(g, pi, signs), mv2) == apply_iso(apply_move(g, mv),
    pi2, signs2): the extension sends each vertex mv creates to the vertex
    mv2 creates at the same index (see the module docstring for the rule).
    """
    def image(e: Edge) -> Edge:
        return map_edge(e, pi, signs)

    anchors = (
        (mv.removed[0].other(mv.vertices[0]),) if mv.kind == "H2b" else mv.vertices
    )
    mv2 = Move(
        mv.kind,
        vertices=tuple(pi[v] for v in mv.vertices),
        gains=tuple(gn * signs[a] for gn, a in zip(mv.gains, anchors)),
        removed=tuple(image(e) for e in mv.removed),
        attach=tuple(sorted((image(e), idx) for e, idx in mv.attach)),
        loop_attach=mv.loop_attach,
        v2_edge=None if mv.v2_edge is None else image(mv.v2_edge),
        moved=tuple(sorted(image(e) for e in mv.moved)),
        move_loop=mv.move_loop,
    )
    new_sign = signs[mv.vertices[0]] if mv.kind in _INHERITS_SIGN else 1
    n = len(pi)
    if mv.kind != "VertexToK4":
        return mv2, tuple(pi) + (n,), tuple(signs) + (new_sign,)
    # Both sides delete the replaced vertex, shift later vertices down by one
    # and append their K4 at the same four indices n-1..n+2.
    (v,) = mv.vertices
    kept = [u for u in range(n) if u != v]
    pi2 = tuple(pi[u] - (pi[u] > pi[v]) for u in kept) + tuple(range(n - 1, n + 3))
    return mv2, pi2, tuple(signs[u] for u in kept) + (new_sign,) * 4


# ---------------------------------------------------------------------------
# Reductions (reverse moves).
# ---------------------------------------------------------------------------


def _vertex_last_perm(n: int, v: int) -> list[int]:
    """Permutation sending v to n-1 and shifting larger vertices down."""
    return [u if u < v else (n - 1 if u == v else u - 1) for u in range(n)]


def _try_reduction(
    g: GainGraph,
    signs: Sequence[int],
    reduced_edges: Sequence[Edge],
    forward: Move,
    new_edges: Sequence[Edge],
    pi: Sequence[int],
) -> Iterator[Reduction]:
    """Yield the Reduction if the exact round trip holds, else nothing."""
    removed = 3 if forward.kind == "VertexToK4" else 1
    try:
        reduced = GainGraph(g.n - removed, tuple(reduced_edges))
        redone = apply_move(reduced, forward)
    except (GainGraphError, MoveError):
        return
    if apply_iso(g, pi, signs) != redone:
        return
    yield Reduction(
        kind=forward.kind,
        reduced=reduced,
        forward=forward,
        pi=tuple(pi),
        signs=tuple(signs),
        new_edges=tuple(new_edges),
    )


def _vertex_deletion_candidates(g: GainGraph, v: int) -> Iterator[Reduction]:
    """Reverse H1/H2/H3 candidates at vertex v."""
    incident = g.edges_at(v, include_loop=False)
    loop = g.loop_at(v)
    deg = g.degree(v)
    pi = _vertex_last_perm(g.n, v)
    signs = [1] * g.n

    def renum(u: int) -> int:
        return pi[u]

    kept = [
        edge(renum(e.u), renum(e.v), e.gain)
        for e in g.edges
        if not e.touches(v)
    ]

    def build(added: list[Edge], forward: Move):
        return _try_reduction(g, signs, kept + added, forward, added, pi)

    by_nbr: dict[int, list[Edge]] = {}
    for e in incident:
        by_nbr.setdefault(e.other(v), []).append(e)
    nbrs = sorted(by_nbr)

    if loop is None and deg == 2:
        if len(nbrs) == 2:
            (a, b) = nbrs
            ga, gb = by_nbr[a][0].gain, by_nbr[b][0].gain
            yield from build(
                [],
                Move("H1a", vertices=(renum(a), renum(b)), gains=(ga, gb)),
            )
        else:
            (a,) = nbrs
            yield from build([], Move("H1b", vertices=(renum(a),)))
    elif loop is not None and deg == 3:
        (a,) = nbrs
        ga = by_nbr[a][0].gain
        yield from build([], Move("H1c", vertices=(renum(a),), gains=(ga,)))
    elif loop is None and deg == 3:
        if len(nbrs) == 3:
            # reverse H2a: pick which two neighbours get the recovered edge.
            gains = {a: by_nbr[a][0].gain for a in nbrs}
            for a, b in combinations(nbrs, 2):
                (c,) = [x for x in nbrs if x not in (a, b)]
                rec = edge(renum(a), renum(b), gains[a] * gains[b])
                yield from build(
                    [rec],
                    Move(
                        "H2a",
                        removed=(rec,),
                        vertices=(renum(a), renum(c)),
                        gains=(gains[a], gains[c]),
                    ),
                )
        elif len(nbrs) == 2:
            a = next(x for x in nbrs if len(by_nbr[x]) == 2)
            (b,) = [x for x in nbrs if x != a]
            d = by_nbr[b][0].gain
            for gn in (1, -1):  # reverse H2b, both recovered gains
                rec = edge(renum(a), renum(b), gn)
                yield from build(
                    [rec],
                    Move(
                        "H2b",
                        removed=(rec,),
                        vertices=(renum(a),),
                        gains=(d,),
                    ),
                )
            rec = edge(renum(a), renum(a), -1)  # reverse H2c: loop at a
            yield from build(
                [rec],
                Move("H2c", removed=(rec,), vertices=(renum(b),), gains=(d,)),
            )
    elif loop is not None and deg == 4:
        if len(nbrs) == 2:
            (a, b) = nbrs
            ga, gb = by_nbr[a][0].gain, by_nbr[b][0].gain
            rec = edge(renum(a), renum(b), ga * gb)
            yield from build(
                [rec],
                Move(
                    "H2d", removed=(rec,), vertices=(renum(a),), gains=(ga,)
                ),
            )
        else:
            (a,) = nbrs
            rec = edge(renum(a), renum(a), -1)
            yield from build([rec], Move("H2e", removed=(rec,)))
    elif loop is None and deg == 4:
        gains = {a: [e.gain for e in by_nbr[a]] for a in nbrs}
        if len(nbrs) == 4:
            # reverse H3a: three pairings of the four neighbours.
            for pairing in ([(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]):
                (i1, j1), (i2, j2) = pairing
                a, b = nbrs[i1], nbrs[j1]
                c, d = nbrs[i2], nbrs[j2]
                rec1 = edge(renum(a), renum(b), gains[a][0] * gains[b][0])
                rec2 = edge(renum(c), renum(d), gains[c][0] * gains[d][0])
                if rec1 == rec2:
                    continue
                yield from build(
                    [rec1, rec2],
                    Move(
                        "H3a",
                        removed=(rec1, rec2),
                        vertices=(renum(a), renum(c)),
                        gains=(gains[a][0], gains[c][0]),
                    ),
                )
        elif len(nbrs) == 3:
            a = next(x for x in nbrs if len(by_nbr[x]) == 2)  # doubled nbr
            rest = [x for x in nbrs if x != a]
            for x, t in (rest, rest[::-1]):
                # reverse H3b: both recovered edges meet the doubled nbr a.
                rec1 = edge(renum(x), renum(a), gains[x][0])
                rec2 = edge(renum(a), renum(t), -gains[t][0])
                if rec1 == rec2:
                    continue
                yield from build(
                    [rec1, rec2],
                    Move(
                        "H3b",
                        removed=(rec1, rec2),
                        vertices=(renum(a), renum(x), renum(t)),
                    ),
                )
            # reverse H3c: loop at the doubled neighbour + edge between rest.
            z, t = rest
            rec1 = edge(renum(a), renum(a), -1)
            rec2 = edge(renum(z), renum(t), gains[z][0] * gains[t][0])
            yield from build(
                [rec1, rec2],
                Move(
                    "H3c",
                    removed=(rec1, rec2),
                    vertices=(renum(z),),
                    gains=(gains[z][0],),
                ),
            )
        elif len(nbrs) == 2 and all(len(by_nbr[x]) == 2 for x in nbrs):
            (a, b) = nbrs
            rec1 = edge(renum(a), renum(a), -1)
            rec2 = edge(renum(b), renum(b), -1)
            yield from build([rec1, rec2], Move("H3d", removed=(rec1, rec2)))


def _clique_switchings(
    clique: tuple[int, ...], induced: Sequence[Edge]
) -> Iterator[tuple[tuple[int, ...], dict[tuple[int, int], Edge]]]:
    """Switchings of the clique, first sign fixed +1 (a global flip is moot),
    under which every vertex pair of it is joined by an edge of gain +1;
    yields (local signs, one such edge per pair)."""
    pair_edges: dict[tuple[int, int], list[Edge]] = {}
    for e in induced:
        if not e.is_loop():
            pair_edges.setdefault((e.u, e.v), []).append(e)
    if len(pair_edges) < len(clique) * (len(clique) - 1) // 2:
        return
    index = {v: i for i, v in enumerate(clique)}
    for rest in product((1, -1), repeat=len(clique) - 1):
        local_signs = (1,) + rest
        chosen = {}
        for (u, v), es in pair_edges.items():
            want = local_signs[index[u]] * local_signs[index[v]]
            match = [e for e in es if e.gain == want]
            if not match:
                break
            chosen[(u, v)] = match[0]
        else:
            yield local_signs, chosen


def _balanced_k4_contractions(g: GainGraph) -> Iterator[Reduction]:
    """Contract each balanced K4 that induces at most one extra edge."""
    if g.n < 4:
        return
    seen: set[tuple] = set()
    for quad in combinations(range(g.n), 4):
        induced = g.induced_edges(quad)
        if len(induced) > 7:
            continue
        for local_signs, chosen in _clique_switchings(quad, induced):
            extra = [e for e in induced if e not in chosen.values()]
            if len(extra) > 1:
                continue
            key = (quad, tuple(sorted(extra)))
            if key in seen:
                continue
            seen.add(key)
            yield from _build_k4_contraction(g, quad, local_signs, extra)


def _build_k4_contraction(
    g: GainGraph, quad: tuple[int, ...], local_signs, extra
) -> Iterator[Reduction]:
    signs = [1] * g.n
    for v, s in zip(quad, local_signs):
        signs[v] = s
    switched = g.switched(signs)
    outside = [u for u in range(g.n) if u not in quad]
    pi = [0] * g.n  # outside vertices first (order kept), quad last
    for i, u in enumerate(outside):
        pi[u] = i
    for t, v in enumerate(quad):
        pi[v] = len(outside) + t
    merged = len(outside)  # contracted-vertex index in the reduced graph
    quadset = set(quad)
    reduced_edges = []
    attach = []
    for e in switched.edges:
        inu, inv = e.u in quadset, e.v in quadset
        if inu and inv:
            continue  # internal K4 edge (or the extra edge)
        if not inu and not inv:
            reduced_edges.append(edge(pi[e.u], pi[e.v], e.gain))
            continue
        kv = e.u if inu else e.v
        x = e.other(kv)
        contracted = edge(pi[x], merged, e.gain)
        reduced_edges.append(contracted)
        attach.append((contracted, pi[kv] - merged))
    loop_attach = None
    if extra:
        (xe,) = extra
        loop_attach = (pi[xe.u] - merged, pi[xe.v] - merged)
        reduced_edges.append(edge(merged, merged, -1))
    forward = Move(
        "VertexToK4",
        vertices=(merged,),
        attach=tuple(sorted(attach)),
        loop_attach=tuple(sorted(loop_attach)) if loop_attach else None,
    )
    new_edges = [e for e in reduced_edges if e.touches(merged)]
    yield from _try_reduction(g, signs, reduced_edges, forward, new_edges, pi)


def _triangle_contractions(g: GainGraph) -> Iterator[Reduction]:
    """Reverse vertex splits: contract a gain-1 edge of a balanced triangle."""
    for tri in combinations(range(g.n), 3):
        for local_signs, _ in _clique_switchings(tri, g.induced_edges(tri)):
            for keep, absorb in _ordered_pairs(tri):
                c = next(x for x in tri if x not in (keep, absorb))
                yield from _build_triangle_contraction(
                    g, keep, absorb, c, tri, local_signs
                )


def _ordered_pairs(tri):
    for a, b in combinations(tri, 2):
        yield a, b
        yield b, a


def _build_triangle_contraction(
    g, keep, absorb, c, tri, local_signs
) -> Iterator[Reduction]:
    """Merge `absorb` into `keep`; `c` is the split's second anchor."""
    signs = [1] * g.n
    for v, s in zip(tri, local_signs):
        signs[v] = s
    switched = g.switched(signs)
    if len([e for e in switched.edges if not e.is_loop()
            and {e.u, e.v} == {keep, absorb}]) > 1:
        return  # a parallel keep-absorb edge would contract to a loop
    # In the switched graph all three chosen triangle edges have gain +1.
    e_ka = edge(min(keep, absorb), max(keep, absorb), 1)
    e_ac = edge(min(absorb, c), max(absorb, c), 1)
    loop_keep = switched.loop_at(keep)
    loop_absorb = switched.loop_at(absorb)
    if loop_keep is not None and loop_absorb is not None:
        return
    pi = _vertex_last_perm(g.n, absorb)
    moved = []
    new_edges = []
    reduced_edges = []
    for e in switched.edges:
        if e == e_ka or e == e_ac:
            continue
        if e.is_loop() and e.u == absorb:
            keep_loop = edge(pi[keep], pi[keep], -1)
            reduced_edges.append(keep_loop)
            new_edges.append(keep_loop)
            continue
        if not e.is_loop() and e.touches(absorb):
            x = e.other(absorb)
            merged_e = edge(pi[x], pi[keep], e.gain)
            reduced_edges.append(merged_e)
            moved.append(merged_e)
            new_edges.append(merged_e)
            continue
        reduced_edges.append(edge(pi[e.u], pi[e.v], e.gain))
    # The split's v0-v2 edge is the kept (switched, gain +1) keep-c edge.
    kc = (min(keep, c), max(keep, c))
    v2_edge = edge(pi[kc[0]], pi[kc[1]], 1)
    forward = Move(
        "VertexSplit",
        vertices=(pi[keep],),
        v2_edge=v2_edge,
        moved=tuple(sorted(moved)),
        move_loop=loop_absorb is not None,
    )
    yield from _try_reduction(g, signs, reduced_edges, forward, new_edges, pi)


def enumerate_reductions(
    g: GainGraph, kinds: Optional[Sequence[str]] = None
) -> Iterator[Reduction]:
    """All well-formed reduction candidates, deterministically ordered:
    vertices ascending by (degree, id) for the vertex-deletion reverses, then
    K4 contractions, then triangle contractions (reverse splits)."""
    allowed = set(kinds) if kinds is not None else set(ALL_KINDS)
    order = sorted(range(g.n), key=lambda v: (g.degree(v), v))
    for v in order:
        for r in _vertex_deletion_candidates(g, v):
            if r.kind in allowed:
                yield r
    if "VertexToK4" in allowed:
        yield from _balanced_k4_contractions(g)
    if "VertexSplit" in allowed:
        yield from _triangle_contractions(g)


def is_admissible(r: Reduction, p: SparsityParams) -> bool:
    """Whether every component of the reduced graph is p-tight; only subsets
    holding a re-added edge are scanned (the rest is a subgraph of the
    input, assumed p-sparse)."""
    return components_tight(r.reduced, p, r.new_edges)
