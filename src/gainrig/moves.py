"""The fourteen gain-tightness-preserving moves and their reverses.

Forward moves add one vertex (H1*, H2*, H3*, vertex split) or replace a
vertex by a K4 (vertex-to-K4).  The new vertex w is always the next free
index; vertex-to-K4 first removes its vertex, then appends four.

Each H move is one row of H_SHAPES: delete the removed edges, then add w
joined by the added edges.  A row names the move's vertices and gains (they
fill Move.vertices and Move.gains, in order), lists the removed edges as
(p, q, gain), binding any vertex or gain name they introduce, and the added
edges as (p, gain), joining w to p ("w" marks a loop at w).  A gain is a
product of names and signs.  The named vertices of a move, and w, are
distinct.  Forward application, the reverse search, translation and random
generation (construct._random_move) all read the table.  The other two moves:

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
map_edge, and each gain is multiplied by the sign of its anchor: a gain's
anchor is the vertex its added edge joins.  A created vertex gets sign +1,
except under H3b, VertexToK4 and VertexSplit, where it inherits the sign of
vertices[0]; that keeps the H3b gain rules, the balanced K4 and the gains of
edges re-ended onto the new vertices intact.

A Reduction undoes a move: it stores the reduced graph, the forward Move (in
the reduced graph's labelling) that re-creates the input, and the exact
relabel+switch (pi, signs) with apply_iso(input, pi, signs) ==
apply_move(reduced, forward).  Admissibility is semantic: every component
of the reduced graph must be tight.  is_admissible carries the input's
matroid partition through (pi, signs) into the reduced graph and inserts
only the re-added edges (sparsity.tight_partition).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Callable, Iterator, Optional, Sequence

from .graph import Edge, GainGraph, GainGraphError, edge
from .iso import map_edge
from .sparsity import Partition, SparsityParams, tight_partition

# A gain: a sign times a product of named gains.
Product = tuple[int, tuple[str, ...]]


@dataclass(frozen=True)
class Shape:
    """One H move (see the module docstring); anchors[i] names the vertex
    whose added edge carries gains[i] alone."""

    vertices: tuple[str, ...]
    gains: tuple[str, ...]
    removed: tuple[tuple[str, str, Product], ...]
    added: tuple[tuple[str, Product], ...]
    anchors: tuple[str, ...]


def _shape(vertices: str, gains: str, removed, added) -> Shape:
    """Shape from space-separated names and gains written "al*bx", "-be",
    "1" or "-1"."""

    def prod(text: str) -> Product:
        names = text.lstrip("-").split("*")
        return (-1 if text[0] == "-" else 1), tuple(nm for nm in names if nm != "1")

    added = tuple((p, prod(gn)) for p, gn in added)
    return Shape(
        vertices=tuple(vertices.split()),
        gains=tuple(gains.split()),
        removed=tuple((p, q, prod(gn)) for p, q, gn in removed),
        added=added,
        anchors=tuple(
            next(p for p, gn in added if gn == (1, (name,))) for name in gains.split()
        ),
    )


# Order matters: it fixes ALL_KINDS, from which random generation draws, and
# the order of reductions at a vertex.  In the reverse, each added gain may
# hold at most one name not already fixed by the added edges before it.
H_SHAPES: dict[str, Shape] = {
    "H1a": _shape("a b", "ga gb", [], [("a", "ga"), ("b", "gb")]),
    "H1b": _shape("a", "", [], [("a", "1"), ("a", "-1")]),
    "H1c": _shape("a", "ga", [], [("a", "ga"), ("w", "-1")]),
    "H2a": _shape("x z", "bx dz", [("x", "y", "al")],
                  [("x", "bx"), ("y", "al*bx"), ("z", "dz")]),
    "H2b": _shape("x", "d", [("x", "y", "al")],
                  [("x", "1"), ("x", "-1"), ("y", "d")]),
    "H2c": _shape("y", "d", [("x", "x", "-1")],
                  [("x", "1"), ("x", "-1"), ("y", "d")]),
    "H2d": _shape("x", "bx", [("x", "y", "al")],
                  [("x", "bx"), ("y", "al*bx"), ("w", "-1")]),
    "H2e": _shape("", "", [("x", "x", "-1")],
                  [("x", "1"), ("x", "-1"), ("w", "-1")]),
    "H3a": _shape("x z", "gx gz", [("x", "y", "al"), ("z", "t", "be")],
                  [("x", "gx"), ("y", "al*gx"), ("z", "gz"), ("t", "be*gz")]),
    "H3b": _shape("y x t", "", [("x", "y", "al"), ("y", "t", "be")],
                  [("x", "al"), ("y", "1"), ("y", "-1"), ("t", "-be")]),
    "H3c": _shape("z", "gz", [("x", "x", "-1"), ("z", "t", "be")],
                  [("x", "1"), ("x", "-1"), ("z", "gz"), ("t", "be*gz")]),
    "H3d": _shape("", "", [("x", "x", "-1"), ("z", "z", "-1")],
                  [("x", "1"), ("x", "-1"), ("z", "1"), ("z", "-1")]),
}

# Fixed arity per kind: (vertices, gains, removed edges).
ARITY: dict[str, tuple[int, int, int]] = {
    **{
        k: (len(s.vertices), len(s.gains), len(s.removed))
        for k, s in H_SHAPES.items()
    },
    "VertexToK4": (1, 0, 0),
    "VertexSplit": (1, 0, 0),
}
ALL_KINDS = tuple(ARITY)
H_KINDS = tuple(H_SHAPES)

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


def _bind_vertex(at: dict[str, int], name: str, v: int) -> bool:
    """Bind name to v; False if it is already bound to another vertex."""
    return at.setdefault(name, v) == v


def _solve(gain: Product, value: int, gains: dict[str, int]) -> bool:
    """Bind the one unbound name in gain so that it equals value (gains are
    +-1) or, with every name bound, tell whether it does."""
    sign, names = gain
    unbound = None
    for nm in names:
        if nm in gains:
            sign *= gains[nm]
        else:
            unbound = nm
    if unbound is None:
        return sign == value
    gains[unbound] = sign * value
    return True


def _value(gain: Product, gains: dict[str, int]) -> int:
    sign, names = gain
    for nm in names:
        sign *= gains[nm]
    return sign


def _bind(shape: Shape, mv: Move, w: int) -> tuple[dict[str, int], dict[str, int]]:
    """The shape's vertex and gain names bound from mv's fields and removed
    edges, with "w" bound to w; MoveError unless the removed edges fit and
    the named vertices are distinct."""
    at = dict(zip(shape.vertices, mv.vertices), w=w)
    gains = dict(zip(shape.gains, mv.gains))
    for (p, q, gn), e in zip(shape.removed, mv.removed):
        u = at.setdefault(p, e.u)
        _require(
            e.touches(u) and _bind_vertex(at, q, e.other(u)) and _solve(gn, e.gain, gains),
            f"{mv.kind} cannot delete {e.as_list()}",
        )
    _require(len(set(at.values())) == len(at), f"{mv.kind} needs distinct vertices")
    return at, gains


def _delete(edges: list[Edge], e: Edge) -> None:
    try:
        edges.remove(e)
    except ValueError:
        raise MoveError(f"edge {e.as_list()} not present") from None


def _graph(n: int, edges: list[Edge]) -> GainGraph:
    try:
        return GainGraph(n, tuple(edges))
    except GainGraphError as exc:
        raise MoveError(f"result invalid: {exc}") from exc


def apply_move(g: GainGraph, mv: Move) -> GainGraph:
    """Forward application; raises MoveError on any constraint violation."""
    problem = arity_error(mv)
    _require(problem is None, problem)
    for v in mv.vertices:
        _require(0 <= v < g.n, f"no vertex {v}")
    if mv.kind == "VertexToK4":
        return _apply_vertex_to_k4(g, mv)
    if mv.kind == "VertexSplit":
        return _apply_vertex_split(g, mv)
    shape = H_SHAPES[mv.kind]
    at, gains = _bind(shape, mv, g.n)
    edges = list(g.edges)
    for e in mv.removed:
        _delete(edges, e)
    edges += [edge(at[p], g.n, _value(gn, gains)) for p, gn in shape.added]
    return _graph(g.n + 1, edges)


def kept_edge_map(mv: Move) -> Optional[Callable[[Edge], Optional[Edge]]]:
    """How apply_move(g, mv) renames the edges of g it keeps, or None if it
    renames none.  Only VertexToK4 does: it shifts the vertices after v down
    by one and deletes the edges at v (their name is None)."""
    if mv.kind != "VertexToK4":
        return None
    (v,) = mv.vertices
    return lambda e: None if e.touches(v) else edge(e.u - (e.u > v), e.v - (e.v > v), e.gain)


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

    kept = kept_edge_map(mv)
    m = g.n - 1  # first K4 vertex index after removing v
    edges = [kept(e) for e in g.edges if not e.touches(v)]
    edges += [edge(m + i, m + j, 1) for i, j in combinations(range(4), 2)]
    for e, idx in sorted(attach.items()):
        x = e.other(v)
        edges.append(edge(x - (x > v), m + idx, e.gain))
    if loop is not None:
        i, j = mv.loop_attach
        _require(0 <= i < 4 and 0 <= j < 4, "loop_attach index in 0..3")
        edges.append(edge(m + i, m + j, -1))
    return _graph(g.n + 3, edges)


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
    return _graph(g.n + 1, edges)


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

    anchors = mv.vertices
    if mv.kind in H_SHAPES:
        shape = H_SHAPES[mv.kind]
        at, _ = _bind(shape, mv, len(pi))
        anchors = tuple(at[p] for p in shape.anchors)
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
    """Yield the Reduction if the reduced edges form a valid graph (a
    reverse shape can repeat an edge), else nothing.  That its forward move
    rebuilds g is not checked here: test_reductions_replay_exactly is the
    evidence, and a candidate that failed it would stop decompose's replay
    (which checks every reduction it uses) instead of being skipped."""
    removed = 3 if forward.kind == "VertexToK4" else 1
    try:
        reduced = GainGraph(g.n - removed, tuple(reduced_edges))
    except GainGraphError:
        return
    yield Reduction(
        reduced=reduced,
        forward=forward,
        pi=tuple(pi),
        signs=tuple(signs),
        new_edges=tuple(new_edges),
    )


def _vertex_deletion_candidates(
    g: GainGraph, v: int, kinds: set[str]
) -> Iterator[Reduction]:
    """Reverse H moves at v: v becomes w (the last vertex), its edges are
    assigned to a shape's added edges in every order, each assignment that
    fits recovers the removed edges (a gain only they hold runs over +-1),
    and each (kind, set of recovered edges) is tried once, first assignment
    first."""
    pi = _vertex_last_perm(g.n, v)
    w = g.n - 1
    kept, at_w = [], []
    for e in g.edges:
        if e.touches(v):
            at_w.append((pi[e.other(v)], e.gain))
        else:
            kept.append(edge(pi[e.u], pi[e.v], e.gain))
    at_w.sort()
    signs = [1] * g.n
    for kind, shape in H_SHAPES.items():
        if kind not in kinds or len(shape.added) != len(at_w):
            continue
        tried: set[frozenset[Edge]] = set()
        for order in permutations(at_w):
            at, gains = {"w": w}, {}
            if not all(
                _bind_vertex(at, p, u) and _solve(gn, gain, gains)
                for (p, gn), (u, gain) in zip(shape.added, order)
            ) or len(set(at.values())) < len(at):
                continue
            free = [nm for _, _, (_, names) in shape.removed
                    for nm in names if nm not in gains]
            for values in product((1, -1), repeat=len(free)):
                gains.update(zip(free, values))
                back = tuple(
                    edge(at[p], at[q], _value(gn, gains)) for p, q, gn in shape.removed
                )
                if frozenset(back) in tried:
                    continue
                tried.add(frozenset(back))
                forward = Move(
                    kind,
                    vertices=tuple(at[x] for x in shape.vertices),
                    gains=tuple(gains[x] for x in shape.gains),
                    removed=back,
                )
                yield from _try_reduction(g, signs, kept + list(back), forward, back, pi)


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
    if switched.has_edge(edge(keep, absorb, -1)):
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
        yield from _vertex_deletion_candidates(g, v, allowed)
    if "VertexToK4" in allowed:
        yield from _balanced_k4_contractions(g)
    if "VertexSplit" in allowed:
        yield from _triangle_contractions(g)


def is_admissible(
    r: Reduction, p: SparsityParams, carried: Partition
) -> Optional[Partition]:
    """The reduced graph's Partition if every component of it is p-tight,
    else None.  carried is the Partition of the graph r reduces; its edges
    are named in the reduced graph by map_edge(., r.pi, r.signs), and every
    reduced edge outside r.new_edges must be such an image."""
    return tight_partition(
        r.reduced, p, carried, lambda e: map_edge(e, r.pi, r.signs), r.new_edges
    )
