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

ARITY fixes how many vertices, gains and removed edges each kind takes;
a kind's other fields are its own (OWN_FIELDS), and every field a kind
does not read keeps its default.

move_delta is a move's one check.  Each added edge has an end the move
creates, so none repeats a kept edge, and none repeats another (an H
move's named vertices are distinct, and so are a split's moved edges and a
K4's attached ones): with the deleted edges in g and gains +-1, the delta
is valid as it stands, and GainGraph.spliced builds its graph unchecked.

Under a relabel+switch (pi, signs) a move translates the same way for every
kind (translate_move): vertices map through pi, every edge field through
map_edge, and each gain is multiplied by the sign of its anchor: a gain's
anchor is the vertex its added edge joins.  A created vertex gets sign +1,
except under H3b, VertexToK4 and VertexSplit, where it inherits the sign of
vertices[0]; that keeps the H3b gain rules, the balanced K4 and the gains of
edges re-ended onto the new vertices intact.

A Reduction undoes a move on the input's vertex ids, renaming none: a vertex
deletion drops its vertex's id, a triangle contraction drops `absorb`'s,
and a K4 contraction drops the K4's four for the fresh id n, above every
live one; a dropped id stays as an isolated dead vertex.  It holds its
delta, the forward Move (on the reduced graph's ids), the dropped ids in
the order that move creates them, and the clique vertices it switches.  A
candidate is checked by its added edges alone (_fits); apply_reduction
builds only the reduced graph taken.  Admissibility is semantic: every
component of the reduced graph must be tight.  is_admissible hands the
delta to the input's carried matroid partition, which Partition.step edits
in place into the reduced graph's, or leaves as it was; move_delta gives a
forward move's delta the same way.

The clique reverses contract a balanced K4 or a triangle's gain-1 edge.
_cliques grows the 3- and 4-cliques from neighbourhoods, in
combinations(range(n), k) order; a contraction's edges (added, attach or
moved, v2_edge) are the input's under the clique's switching with the
merged vertices sent to their target.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .graph import Edge, GainGraph, edge
from .iso import map_edge
from .sparsity import Partition

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

# The fields besides ARITY's counted ones that a kind reads.
OWN_FIELDS = {"VertexToK4": ("attach", "loop_attach"), "VertexSplit": ("v2_edge", "moved", "move_loop")}

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


# Per kind, the fields besides ARITY's counted ones that it does not read, with their defaults.
_FOREIGN = {kind: [(f, getattr(Move, f)) for f in ("attach", "loop_attach", "v2_edge", "moved", "move_loop")
                   if f not in OWN_FIELDS.get(kind, ())] for kind in ARITY}


@dataclass(frozen=True)
class Reduction:
    forward: Move  # re-creates the input from the reduced graph, on its ids
    deleted: tuple[Edge, ...]  # the input's edges the reduced graph lacks
    added: tuple[Edge, ...]  # the reduced graph's edges that are not the input's, switched
    dropped: tuple[int, ...]  # the input's vertices it deletes, as forward creates them
    flipped: tuple[int, ...] = ()  # the clique vertices it switches


def _require(cond: bool, msg: str | Callable[[], str]) -> None:  # a function msg is called only on failure
    if not cond:
        raise MoveError(msg() if callable(msg) else msg)


def arity_error(mv: Move) -> Optional[str]:
    """Why mv's kind is unknown, a counted field has the wrong length or a
    field the kind does not read is set; None if mv fits ARITY and
    OWN_FIELDS."""
    if mv.kind not in ARITY:
        return f"unknown move kind {mv.kind!r}"
    for field, want in zip(("vertices", "gains", "removed"), ARITY[mv.kind]):
        got = len(getattr(mv, field))
        if got != want:
            return f"{mv.kind} needs {want} {field}, got {got}"
    for field, default in _FOREIGN[mv.kind]:
        if getattr(mv, field) != default:
            return f"{mv.kind} takes no {field}"
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
            lambda: f"{mv.kind} cannot delete {e.as_list()}",
        )
    _require(len(set(at.values())) == len(at), lambda: f"{mv.kind} needs distinct vertices")
    return at, gains


def move_delta(
    g: GainGraph, mv: Move
) -> tuple[int, list[Edge], list[Edge], Optional[list[int]]]:
    """What apply_move(g, mv) changes, as GainGraph.spliced and
    Partition.step take it: the new graph's vertex count, the edges of g it
    deletes, the edges it adds (named in the new graph), and each vertex's
    new name, or None if every vertex keeps its name.  Only VertexToK4
    renames: the vertices after v shift down by one, and v is deleted (its
    name is past the new graph's last vertex).  The one check of a move:
    MoveError on any constraint violation, else a valid delta."""
    problem = arity_error(mv)
    _require(problem is None, problem)
    for v in mv.vertices:
        _require(0 <= v < g.n, lambda: f"no vertex {v}")
    _require(all(gn in (1, -1) for gn in mv.gains), "gains must be +1 or -1")
    if mv.kind not in H_SHAPES:
        delta = (_vertex_to_k4_delta if mv.kind == "VertexToK4" else _vertex_split_delta)(g, mv)
    else:
        at, gains = _bind(H_SHAPES[mv.kind], mv, g.n)
        added = [edge(at[p], g.n, _value(gn, gains)) for p, gn in H_SHAPES[mv.kind].added]
        delta = g.n + 1, list(mv.removed), added, None
    for e in delta[1]:
        _require(g.has_edge(e), lambda: f"edge {e.as_list()} not present")
    return delta


def apply_move(g: GainGraph, mv: Move) -> GainGraph:
    """Forward application; raises MoveError on any constraint violation."""
    return g.spliced(*move_delta(g, mv))


def _vertex_to_k4_delta(g: GainGraph, mv: Move) -> tuple[int, list[Edge], list[Edge], list[int]]:
    (v,) = mv.vertices
    incident = g.edges_at(v, include_loop=False)
    loop = g.loop_at(v)
    attach = dict(mv.attach)
    _require(
        sorted(attach) == sorted(incident) and len(mv.attach) == len(incident),
        "attach must map each non-loop incident edge exactly once",
    )
    _require(all(0 <= i < 4 for i in attach.values()), "attach index in 0..3")
    _require(loop is None or mv.loop_attach is not None, "loop present: need loop_attach")
    _require(loop is not None or mv.loop_attach is None, "no loop to reattach")

    pi = [u - (u > v) if u != v else g.n + 3 for u in range(g.n)]
    m = g.n - 1  # first K4 vertex index after removing v
    added = [edge(m + i, m + j, 1) for i, j in combinations(range(4), 2)]
    for e, idx in sorted(attach.items()):
        added.append(edge(pi[e.other(v)], m + idx, e.gain))
    if loop is not None:
        i, j = mv.loop_attach
        _require(0 <= i < 4 and 0 <= j < 4, "loop_attach index in 0..3")
        added.append(edge(m + i, m + j, -1))
    return g.n + 3, g.edges_at(v), added, pi


def _vertex_split_delta(g: GainGraph, mv: Move) -> tuple[int, list[Edge], list[Edge], None]:
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
    added = [edge(mvd.other(v1), v0, mvd.gain) for mvd in moved]
    if mv.move_loop:
        loop = g.loop_at(v1)
        _require(loop is not None, "move_loop set but v1 has no loop")
        moved.append(loop)
        added.append(edge(v0, v0, -1))
    added += [edge(v0, v1, 1), edge(v0, v2, e12.gain)]
    return v0 + 1, moved, added, None


# ---------------------------------------------------------------------------
# Isomorphism translation: image of a move under a relabel+switch.
# ---------------------------------------------------------------------------


def translate_move(
    mv: Move, pi: Sequence[int], signs: Sequence[int]
) -> tuple[Move, int]:
    """Image mv2 of mv under (pi, signs), and the sign of the vertices mv
    creates (see the module docstring for the rule).

    apply_move(apply_iso(g, pi, signs), mv2) == apply_iso(apply_move(g, mv),
    pi2, signs2), where (pi2, signs2) sends each vertex mv creates, with
    that sign, to the one mv2 creates at the same index, and under
    VertexToK4 shifts the vertices after the replaced one down by one.
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
    return mv2, signs[mv.vertices[0]] if mv.kind in _INHERITS_SIGN else 1


# ---------------------------------------------------------------------------
# Reductions (reverse moves).
# ---------------------------------------------------------------------------


def _fits(g: GainGraph, added: Sequence[Edge], flipped: Sequence[int]) -> bool:
    """Whether a reduction of g that adds these edges, switching g's edges at
    the flipped vertices, gives a valid graph: no added edge is a gain +1
    loop, repeats another or repeats a kept edge, found by bisection in g
    (an added edge never touches a vertex whose edges the reduction deletes)."""
    was = [e if e.is_loop() or (e.u in flipped) == (e.v in flipped) else Edge(e.u, e.v, -e.gain)
           for e in added]
    return (len(set(added)) == len(added) and not any(e.is_loop() and e.gain == 1 for e in added)
            and not any(map(g.has_edge, was)))


def _vertex_deletion_candidates(g: GainGraph, v: int, kinds: set[str]) -> Iterator[Reduction]:
    """Reverse H moves at v: v plays w, its edges are assigned to a shape's
    added edges in every order, each assignment that fits recovers the
    removed edges (a gain only they hold runs over +-1), and each (kind, set
    of recovered edges) is tried once, first assignment first."""
    gone = tuple(g.edges_at(v))
    at_w = sorted((e.other(v), e.gain) for e in gone)  # a loop binds only w
    for kind, shape in H_SHAPES.items():
        if kind not in kinds or len(shape.added) != len(at_w):
            continue
        tried: set[frozenset[Edge]] = set()
        for order in permutations(at_w):
            at, gains = {"w": v}, {}
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
                if (key := frozenset(back)) in tried:
                    continue
                tried.add(key)
                if _fits(g, back, ()):
                    forward = Move(kind, tuple(at[x] for x in shape.vertices),
                                   tuple(gains[x] for x in shape.gains), back)
                    yield Reduction(forward, gone, back, (v,))


def _cliques(
    g: GainGraph, k: int
) -> Iterator[tuple[tuple[int, ...], dict[int, int], list[Edge], list[Edge]]]:
    """Each k-set of vertices whose pairs are all joined, in
    combinations(range(g.n), k) order: a set grows only by a later neighbour
    of its last vertex that is joined to all the others.  For each set, every
    switching (its first vertex +1: a global flip is moot) under which each
    pair has a gain-1 edge is yielded as (the set, its vertices' signs, one
    such edge per pair, the set's induced edges in edge order)."""
    joined: dict[tuple[int, int], list[Edge]] = {}
    for e in g.edges:
        if not e.is_loop():
            joined.setdefault((e.u, e.v), []).append(e)
    later: dict[int, list[int]] = {}
    for u, v in joined:  # in edge order, so each list ascends
        later.setdefault(u, []).append(v)
    sets = [(v,) for v in later]
    for _ in range(k - 1):
        sets = [s + (v,) for s in sets for v in later.get(s[-1], ())
                if all((u, v) in joined for u in s[:-1])]
    for s in sets:
        pairs = list(combinations(s, 2))
        loops = [loop for loop in map(g.loop_at, s) if loop is not None]
        induced = sorted([e for pair in pairs for e in joined[pair]] + loops)
        for rest in product((1, -1), repeat=k - 1):
            local = dict(zip(s, (1,) + rest))
            chosen = [e for u, v in pairs for e in joined[(u, v)]
                      if e.gain == local[u] * local[v]]
            if len(chosen) == len(pairs):
                yield s, local, chosen, induced


def _image(e: Edge, local: dict[int, int], absorb: int, keep: int) -> Edge:
    """e under a clique's switching, with absorb sent to keep."""
    u, v = (keep if x == absorb else x for x in e[:2])
    return edge(u, v, e.gain if e.is_loop() else e.gain * local.get(e.u, 1) * local.get(e.v, 1))


def _k4_contractions(g: GainGraph) -> Iterator[Reduction]:
    """Contract each balanced K4 that induces at most one extra edge into
    the fresh vertex g.n, which becomes a loop there."""
    merged = g.n
    for quad, local, chosen, induced in _cliques(g, 4):
        extra = [e for e in induced if e not in chosen]
        if len(extra) > 1:
            continue
        gone = sorted({e for q in quad for e in g.edges_at(q)})
        attach = [(_image(e, local, q, merged), quad.index(q))
                  for e in gone for q in e[:2] if q in quad and e.other(q) not in quad]
        added = [image for image, _ in attach]
        loop_attach = next(((quad.index(xe.u), quad.index(xe.v)) for xe in extra), None)
        added += [Edge(merged, merged, _image(xe, local, xe.u, xe.v).gain) for xe in extra]
        flipped = tuple(q for q in quad if local[q] < 0)
        if _fits(g, added, flipped):
            forward = Move("VertexToK4", vertices=(merged,), attach=tuple(sorted(attach)),
                           loop_attach=loop_attach)
            yield Reduction(forward, tuple(gone), tuple(added), quad, flipped)


def _triangle_contractions(g: GainGraph) -> Iterator[Reduction]:
    """Reverse vertex splits: contract a gain-1 edge of a balanced triangle,
    merging `absorb` into `keep`; the triangle's gain-1 edge at keep that
    stays becomes the split's v2_edge."""
    for tri, local, chosen, _ in _cliques(g, 3):
        flipped = tuple(v for v in tri if local[v] < 0)
        for pair in combinations(tri, 2):
            for keep, absorb in (pair, pair[::-1]):
                gone = g.edges_at(absorb)
                added = [_image(e, local, absorb, keep) for e in gone if e not in chosen]
                # a parallel keep-absorb edge would contract to a loop
                if any(e.other(absorb) == keep and e not in chosen for e in gone):
                    continue
                if not _fits(g, added, flipped):
                    continue
                (v2_edge,) = [_image(e, local, absorb, keep)
                              for e in chosen if not e.touches(absorb)]
                forward = Move("VertexSplit", vertices=(keep,), v2_edge=v2_edge,
                               moved=tuple(sorted(e for e in added if not e.is_loop())),
                               move_loop=g.loop_at(absorb) is not None)
                yield Reduction(forward, tuple(gone), tuple(added), (absorb,), flipped)


def enumerate_reductions(g: GainGraph, kinds: Optional[Sequence[str]] = None,
                         order: Optional[Iterable[tuple[int, int]]] = None) -> Iterator[Reduction]:
    """All well-formed reduction candidates of g, on g's ids,
    deterministically ordered: the vertex-deletion reverses at each vertex
    of ``order``, its (degree, vertex) pairs ascending (by default every
    vertex of g), then K4 contractions, then triangle contractions (reverse
    splits).  A vertex whose edge count no allowed shape takes is skipped."""
    allowed = set(kinds) if kinds is not None else set(ALL_KINDS)
    sizes = {len(s.added) for k, s in H_SHAPES.items() if k in allowed}
    top = max(sizes, default=-1) + 1  # a loop counts 2 in a degree but is one edge
    for d, v in sorted((d, v) for v, d in enumerate(g.degrees)) if order is None else order:
        if d > top:
            break
        if d - g.has_edge(Edge(v, v, -1)) in sizes:
            yield from _vertex_deletion_candidates(g, v, allowed)
    if "VertexToK4" in allowed:
        yield from _k4_contractions(g)
    if "VertexSplit" in allowed:
        yield from _triangle_contractions(g)


def apply_reduction(g: GainGraph, r: Reduction) -> GainGraph:
    """The graph r reduces g to, on g's ids: r's dropped vertices stay as
    isolated dead ids and a K4 contraction's merged vertex is g.n.  g's
    edges at r's flipped vertices are switched (those r does not delete,
    with one end flipped), and the edges are spliced (GainGraph.spliced)."""
    switched = [e for v in r.flipped for e in g.edges_at(v)
                if e not in r.deleted and (e.u in r.flipped) != (e.v in r.flipped)]
    return g.spliced(g.n + (r.forward.kind == "VertexToK4"), r.deleted + tuple(switched),
                     r.added + tuple(Edge(e.u, e.v, -e.gain) for e in switched))


def is_admissible(r: Reduction, carried: Partition) -> bool:
    """Whether every component of the graph r reduces to is tight.  carried
    is the Partition of the graph r reduces, on its ids; r's delta edits it
    in place into apply_reduction's graph's if so, and it is left as it was
    if not (Partition.step)."""
    return carried.step(len(carried.ids) + (r.forward.kind == "VertexToK4"), r.deleted, r.added,
                        flipped=r.flipped, dropped=r.dropped)
