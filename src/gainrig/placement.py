"""Synthesis of verified isostatic placements along construction sequences.

By the colouring criterion (colouring.py), a well-positioned half-turn
framework is character-0 isostatic exactly when both facet colour classes
are frame-matroid bases, and character-1 isostatic exactly when both are
spanning trees.  So a new vertex needs no generic position, only one inside
the facet cones its colours name, and one candidate per step suffices.

A move adding one vertex w (H1-H3, vertex split) keeps the old positions
and colours.  A new edge to x with gain g points along p_w - g p_x from its
anchor g p_x; a loop's anchor is the origin.  Colour c and sign s (facets
f_c, f_o) put p_w in the wedge (s f_c -+ f_o).(p - q) > 0 at the anchor q.
In the coordinates u = (a + b).p, v = (a - b).p of facets a, b that wedge
is a quadrant: u > u_q iff s = +1, and v > v_q iff s = +1 at colour 0 or
s = -1 at colour 1.  Wedges thus meet in an open box, non-empty when lo < hi
on both axes.  Colourings of the new edges are tried in product((0, 1))
order, keeping those that pass colouring.isostatic_classes, and for each,
sign vectors in product((1, -1)) order, not extending a prefix whose box is
empty.  The first non-empty box is the region (none: PlacementError).  The
point rule cuts its unbounded sides at distance 1 from the bounded ones and
takes the centre of that finite part; if the centre is forbidden (the
origin or +-an old position), points on to the finite part's upper corner
follow, |forbidden| + 1 distinct interior ones, so one is free.  That point,
rounded to the coarsest dyadic grid 2^-k keeping it inside and free, is p_w.

Vertex-to-K4 puts the four new vertices at p_v + t s_i for the silhouette s
below, whose edges split by colour into two spanning paths; contracting a
path gives back the old class, so both classes stay bases.  With
rho(d) = max(|u_d|, |v_d|) and S = max rho(s_i), t is the largest 2^-k with
2 t S below every colour margin min(|u_d|, |v_d|) of v's edges (loop
included) and below rho(p_v - q) for the origin and every other covering
point q, so re-attached edges keep their colours and covering points stay
distinct.

Every placement is accepted only through _verified: the colouring verdict
for the step's character, then the rank, which must agree.  A step adding w
with two edges and removing none (H1a-c, or a vertex split moving no edge)
has the orbit matrix [[M, 0], [X, B]], B being those rows on w's columns.
If its parent framework was certified for the same character (M has full
row rank) and det B != 0, it has full row rank: the block certificate.
Otherwise (a loop row at character 1, another move) analyse decides.
Nothing is random.  Base fixtures come from scripts/find_base_placements.py
and are re-verified on use; the i-th base of a union is scaled by
(2i + 2) / (2i + 1), keeping its colours.  A step's covector table is
carried over from its parent (rigidity.carry_covectors), so each edge is
coloured once, when created.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import inf
from typing import Optional, Sequence
from weakref import WeakValueDictionary

from .catalog import graph_for_base_id
from .colouring import isostatic_classes, monochrome_quotients
from .construct import ConstructionSequence, check_kinds
from .graph import GainGraph, invariant
from .moves import Move, apply_move
from .norms import LINF
from .rigidity import (
    Framework,
    FrameworkError,
    NotWellPositioned,
    analyse,
    carry_covectors,
    orbit_blocks,
)

Point = tuple[Fraction, Fraction]
ORIGIN: Point = (Fraction(0), Fraction(0))


class PlacementError(RuntimeError):
    pass


@dataclass(frozen=True)
class RealisationConfig:
    """Accepted by realize and ignored: placement is deterministic and the
    seed has no effect.  Kept because the benchmark's realize workload
    builds one."""

    seed: int = 0


# Frozen integer fixtures (l-infinity, half turn), each verified by both the
# colouring and the rank oracle for character 0.
BASE_PLACEMENTS: dict[str, tuple[tuple[int, int], ...]] = {
    "a": ((-2, -1), (-1, 2)),
    "b": ((-2, -1), (-2, 1), (0, -2)),
    "c": ((-2, -1), (-2, 1), (0, -2)),
    "d": ((-2, -1), (0, -2), (-2, 1), (1, 0)),
    "e": ((-2, -1), (-1, 2), (0, -2), (1, 1)),
    "f": ((-2, -2), (-2, 0), (0, -1), (1, 2)),
    "g": ((-2, -2), (-2, 0), (0, -1), (1, 2)),
    "h": ((-2, -2), (-2, 1), (0, -2), (1, 0)),
}

# Under the l-infinity norm the six edges of this K4 split by colour into
# the spanning paths 0-1-2-3 and 2-0-3-1.
_K4_SHAPE = ((0, 0), (3, 1), (-1, 4), (3, 5))


def _base_points(bid: str) -> list[Point]:
    """The frozen fixture of a base; the (2,2,2) seed k1 sits at (1, 2)."""
    fixture = ((1, 2),) if bid == "k1" else BASE_PLACEMENTS[bid]
    return [(Fraction(x), Fraction(y)) for x, y in fixture]


# The frameworks _verified has certified, by (id, character), held weakly.
_CERTIFIED: WeakValueDictionary = WeakValueDictionary()


def _block_certified(fw: Framework, parent: Framework, j: int) -> bool:
    """Whether fw, grown from parent by a step of extend_placement, has full
    character-j row rank by the block certificate: parent is certified, fw
    adds one vertex w and two edges, both at w (a step adds edges only at w,
    so it removed none), and det B != 0 for their rows B on w's columns."""
    w = parent.graph.n
    if (_CERTIFIED.get((id(parent), j)) is not parent or fw.graph.n != w + 1
            or len(fw.graph.edges) != len(parent.graph.edges) + 2):
        return False
    b = [orbit_blocks(e, fw.covectors[e], j)[w] for e in fw.graph.edges_at(w)]
    return len(b) == 2 and b[0][0] * b[1][1] != b[0][1] * b[1][0]


def _verified(fw: Framework, j: int, parent: Optional[Framework] = None) -> bool:
    """Both oracles for character j, which must agree: the colouring verdict,
    then the rank (the block certificate from parent, else analyse)."""
    try:
        classes = monochrome_quotients(fw)
    except NotWellPositioned:
        return False
    if not isostatic_classes(fw.graph, classes, j):
        return False
    algebraic = parent is not None and _block_certified(fw, parent, j) or analyse(fw, j).isostatic
    invariant(algebraic, "rank and colouring verdicts disagree")
    _CERTIFIED[id(fw), j] = fw
    return True


def _framework(g: GainGraph, positions: Sequence[Point], norm, what: str) -> Framework:
    try:
        return Framework(g, tuple(positions), norm, 2)
    except FrameworkError as exc:
        raise PlacementError(f"{what}: {exc}") from exc


def _accept(
    g: GainGraph, positions: Sequence[Point], norm, j: int, what: str,
    parent: Optional[Framework] = None,
) -> Framework:
    """The framework at positions if both oracles call it character-j
    isostatic, else PlacementError naming `what`.  Its covector table is
    carried over from `parent`, the framework a move starts from, if given."""
    fw = _framework(g, positions, norm, what)
    if parent is not None:
        carry_covectors(parent, fw)
    if not _verified(fw, j, parent):
        raise PlacementError(f"{what} failed verification for character {j}")
    return fw


def base_placement(bid: str) -> Framework:
    """Verified isostatic placement of a catalogue base: character 0, or
    character 1 for the single vertex k1."""
    return _accept(graph_for_base_id(bid), _base_points(bid), LINF, int(bid == "k1"),
                   f"frozen placement for base {bid}")


def _uv(facets, p) -> Point:
    """p in the coordinates u = (a + b).p, v = (a - b).p of facets a, b."""
    (a1, a2), (b1, b2) = facets
    return (a1 + b1) * p[0] + (a2 + b2) * p[1], (a1 - b1) * p[0] + (a2 - b2) * p[1]


def _xy(facets, q) -> Point:
    """The point p with _uv(facets, p) == q."""
    (a1, a2), (b1, b2) = facets
    s1, s2, t1, t2 = a1 + b1, a2 + b2, a1 - b1, a2 - b2
    det = s1 * t2 - s2 * t1
    return Fraction(t2 * q[0] - s2 * q[1], det), Fraction(s1 * q[1] - t1 * q[0], det)


def _cut(box, colour: int, sign: int, q: Point):
    """The box ((lo_u, hi_u), (lo_v, hi_v)) cut by the wedge of an edge of
    `colour` and `sign` anchored at q (in (u, v)), or None if it is empty."""
    out = []
    for (lo, hi), x, above in zip(box, q, (sign > 0, (sign > 0) == (colour == 0))):
        lo, hi = (max(lo, x), hi) if above else (lo, min(hi, x))
        if lo >= hi:
            return None
        out.append((lo, hi))
    return tuple(out)


def _region(colours, anchors, box=((-inf, inf), (-inf, inf))):
    """The box of the first sign vector, in product((1, -1)) order, whose
    wedges (new edge i has colours[i] and anchors[i], in (u, v)) meet, or
    None; a prefix whose box is empty is not extended."""
    if not anchors:
        return box
    for sign in (1, -1):
        cut = _cut(box, colours[0], sign, anchors[0])
        found = None if cut is None else _region(colours[1:], anchors[1:], cut)
        if found is not None:
            return found
    return None


def _grid_point(box, facets, forbidden: set) -> Point:
    """The new position in a non-empty box (in (u, v)) by the point rule of
    the module docstring."""
    # every anchor bounds both axes, so each axis has a finite side
    lo = [hi - 1 if lo == -inf else lo for lo, hi in box]
    hi = [lo + 1 if hi == inf else hi for lo, hi in box]
    mid = [(a + b) / 2 for a, b in zip(lo, hi)]
    m = len(forbidden) + 1
    c = next(p for p in (
        _xy(facets, [x + (h - x) * Fraction(i, m) for x, h in zip(mid, hi)]) for i in range(m)
    ) if p not in forbidden)
    k = 1  # c is strictly inside and free, so a fine enough grid keeps it so
    while True:
        pt = (Fraction(round(c[0] * k), k), Fraction(round(c[1] * k), k))
        if pt not in forbidden and all(a < x < b for (a, b), x in zip(box, _uv(facets, pt))):
            return pt
        k *= 2


def extend_placement(fw: Framework, mv: Move, j: int = 0) -> Framework:
    """Grow a verified placement across one move, placing the created
    vertices and re-verifying with both oracles."""
    h = apply_move(fw.graph, mv)
    if mv.kind == "VertexToK4":
        return _extend_k4(fw, mv, h, j)
    # One new vertex w, appended; old vertices keep their indices.
    w = fw.graph.n
    kept = {e for e in h.edges if not e.touches(w)}
    old = [[e for e in cls if e in kept] for cls in monochrome_quotients(fw)]
    new = h.edges_at(w)
    anchors = [_uv(fw.norm.facets, ORIGIN if e.is_loop() else
                   tuple(e.gain * c for c in fw.positions[e.other(w)])) for e in new]
    forbidden = {ORIGIN} | {q for p in fw.positions for q in (tuple(p), tuple(-c for c in p))}
    for colours in product((0, 1), repeat=len(new)):
        classes = [old[c] + [e for e, ce in zip(new, colours) if ce == c] for c in (0, 1)]
        if not isostatic_classes(h, classes, j):
            continue
        box = _region(colours, anchors)
        if box is not None:
            pt = _grid_point(box, fw.norm.facets, forbidden)
            return _accept(h, tuple(fw.positions) + (pt,), fw.norm, j, mv.kind, fw)
    raise PlacementError(f"no region places the new vertex of {mv.kind} on {fw.graph.triples()}")


def _extend_k4(fw: Framework, mv: Move, h: GainGraph, j: int) -> Framework:
    (v,) = mv.vertices
    pv = fw.positions[v]

    def rho(d) -> Fraction:
        return max(map(abs, _uv(fw.norm.facets, d)))

    margins = [min(map(abs, _uv(fw.norm.facets, d)))
               for d in map(fw.edge_delta, fw.graph.edges_at(v))]
    others = [ORIGIN] + [q for x, p in enumerate(fw.positions) if x != v
                         for q in (p, tuple(-c for c in p))]
    bound = min(margins + [rho((pv[0] - q[0], pv[1] - q[1])) for q in others])
    if bound <= 0:
        raise PlacementError(f"{mv.kind} needs a well-positioned placement")
    reach, scale = 2 * max(rho(s) for s in _K4_SHAPE), Fraction(1)
    while scale * reach >= bound:
        scale /= 2
    kept = [p for x, p in enumerate(fw.positions) if x != v]
    k4 = [(pv[0] + scale * x, pv[1] + scale * y) for x, y in _K4_SHAPE]
    return _accept(h, kept + k4, fw.norm, j, mv.kind, fw)


def _bases_placement(ids: Sequence[str]) -> Framework:
    """Unverified placement of a disjoint union of bases (see the module
    docstring for the scalars)."""
    g, positions = GainGraph(0, ()), []
    for i, bid in enumerate(ids):
        g = g.union(graph_for_base_id(bid))
        s = Fraction(2 * i + 2, 2 * i + 1) if len(ids) > 1 else 1
        positions += [(s * x, s * y) for x, y in _base_points(bid)]
    return _framework(g, positions, LINF, f"bases {list(ids)}")


def realize(
    seq: ConstructionSequence,
    j: int = 0,
    cfg: Optional[RealisationConfig] = None,
) -> Framework:
    """Fold the construction sequence through extend_placement, producing a
    framework verified character-j isostatic by both oracles.  `cfg` is
    accepted and has no effect."""
    if j not in (0, 1):
        raise ValueError("character must be 0 or 1")
    if not seq.initial:
        raise ValueError("sequence has no initial base")
    check_kinds(seq)
    fw = _bases_placement(seq.initial)
    if not _verified(fw, j):
        raise PlacementError(f"bases {list(seq.initial)} do not verify for character {j}")
    for mv in seq.steps:
        fw = extend_placement(fw, mv, j)
    return fw
