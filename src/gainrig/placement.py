"""Synthesis of verified isostatic placements along construction sequences.

By the colouring criterion (colouring.py), a well-positioned half-turn
framework is character-0 isostatic exactly when both facet colour classes
are frame-matroid bases, and character-1 isostatic exactly when both are
spanning trees.  So a new vertex needs no generic position, only one inside
the facet cones its colours name, and one candidate per step suffices: it
has the chosen colouring by construction, and the exact rank must agree.

A move adding one vertex w (H1-H3, vertex split) keeps the old positions,
and so the old colours.  A new edge to x with gain g points along
p_w - g p_x and is anchored at g p_x; a loop at w is anchored at the origin.
The colours of the new edges are tried in a fixed order, keeping those that
pass colouring.isostatic_classes.  For each, sign choices are tried in
order: an edge of colour c and sign s (facets f_c, f_o) lies in the open
wedge (s f_c - f_o).(p - q) > 0, (s f_c + f_o).(p - q) > 0 at its anchor q,
and the wedges clip a box around the anchors.  The first polygon of
positive area is the region.  Its vertex average, rounded to the coarsest
dyadic grid 2^-k that stays strictly inside every wedge and off the origin
and +-every old position, is the new position.  No region: PlacementError.

Vertex-to-K4 puts the four new vertices at p_v + t s_i for the silhouette s
below, whose edges split by colour into two spanning paths; contracting a
path gives back the old class, so both classes stay bases.  With
rho(d) = |a.d| + |b.d| for facets a, b and S = max rho(s_i), t is the
largest 2^-k with 2 t S below every colour margin ||a.d| - |b.d|| of v's
edges (loop included) and below rho(p_v - q) for the origin and every other
covering point q, so re-attached edges keep their colours and the covering
points stay distinct.

Every placement is accepted only through _verified: the colouring and the
exact rank oracle both run and must agree.  Nothing is random.  The base
fixtures were found by scripts/find_base_placements.py and are re-verified
on use; a single base sits at its fixture, and the i-th base of a union is
scaled by (2i + 2) / (2i + 1), which keeps its colours (translations would
break the central symmetry).  The old edges' colours are read from the
covector table of the framework being extended, which its own verification
filled.  The new framework's table is carried over from that one
(rigidity.carry_covectors): an edge reuses the old entry exactly when both
endpoint positions, the gain and the norm are unchanged, so only the new
vertex's edges (after vertex-to-K4, the edges at the four new vertices) are
coloured.  Every edge of a realized framework is thus coloured once, in the
step that creates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .catalog import graph_for_base_id
from .colouring import edge_colour, geometric_verdict, isostatic_classes
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
)

Point = tuple[Fraction, Fraction]
ORIGIN: Point = (Fraction(0), Fraction(0))


class PlacementError(RuntimeError):
    pass


@dataclass(frozen=True)
class RealisationConfig:
    """Accepted for compatibility: placement is deterministic and the seed
    has no effect."""

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


def _verified(fw: Framework, j: int) -> bool:
    try:
        gv = geometric_verdict(fw)
    except NotWellPositioned:
        return False
    combinatorial = gv.chi0_isostatic if j == 0 else gv.chi1_isostatic
    if not combinatorial:
        return False
    algebraic = analyse(fw, j).isostatic
    invariant(algebraic == combinatorial, "rank and colouring verdicts disagree")
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
    if not _verified(fw, j):
        raise PlacementError(f"{what} failed verification for character {j}")
    return fw


def base_placement(bid: str) -> Framework:
    """Verified isostatic placement of a catalogue base: character 0, or
    character 1 for the single vertex k1."""
    return _accept(
        graph_for_base_id(bid), _base_points(bid), LINF, int(bid == "k1"),
        f"frozen placement for base {bid}",
    )


def _dot(f, p) -> Fraction:
    return f[0] * p[0] + f[1] * p[1]


def _wedge(facets, colour: int, sign: int, q: Point) -> list[tuple[Point, Fraction]]:
    """The half-planes ell.p > h whose intersection is the set of p with
    p - q in the cone of facet `colour` with `sign`."""
    fc, fo = facets[colour], facets[1 - colour]
    ells = [(sign * fc[0] + t * fo[0], sign * fc[1] + t * fo[1]) for t in (-1, 1)]
    return [(ell, _dot(ell, q)) for ell in ells]


def _clip(poly: list[Point], ell: Point, h: Fraction) -> list[Point]:
    """The part of the convex polygon poly where ell.p >= h."""
    vals = [_dot(ell, p) - h for p in poly]
    out = []
    for i, (p, b) in enumerate(zip(poly, vals)):
        prev, a = poly[i - 1], vals[i - 1]
        if (a >= 0) != (b >= 0):
            t = a / (a - b)
            out.append((prev[0] + t * (p[0] - prev[0]), prev[1] + t * (p[1] - prev[1])))
        if b >= 0:
            out.append(p)
    return out


def _area2(poly: list[Point]) -> Fraction:
    """Twice the signed area, positive for a counter-clockwise polygon."""
    return sum((poly[i - 1][0] * p[1] - p[0] * poly[i - 1][1] for i, p in enumerate(poly)), 0)


def _box(anchors: Sequence[Point]) -> list[Point]:
    """Counter-clockwise box around the anchors, widened on every side by
    their spread plus one; under l-infinity and l1 facets every corner of a
    wedge intersection lies inside it."""
    xs, ys = [q[0] for q in anchors], [q[1] for q in anchors]
    pad = max(max(xs) - min(xs), max(ys) - min(ys)) + 1
    lo, hi = (min(xs) - pad, min(ys) - pad), (max(xs) + pad, max(ys) + pad)
    return [lo, (hi[0], lo[1]), hi, (lo[0], hi[1])]


def _region(poly: list[Point], wedges: Sequence[Sequence[list]]):
    """(polygon, planes) for the first sign choice, in product order, whose
    wedges (wedges[i][s] for edge i and sign index s) cut poly to positive
    area, or None; a prefix that cuts poly to nothing is not extended."""
    if not wedges:
        return poly, []
    for planes in wedges[0]:
        cut = poly
        for ell, h in planes:
            cut = _clip(cut, ell, h)
        found = _region(cut, wedges[1:]) if _area2(cut) > 0 else None
        if found is not None:
            return found[0], planes + found[1]
    return None


def _grid_point(poly: list[Point], planes, forbidden: set) -> Optional[Point]:
    """The vertex average of poly (or, if that is forbidden, its midpoint
    with a vertex), rounded to the coarsest dyadic grid 2^-k that keeps it
    strictly inside every plane and out of `forbidden`."""
    n = len(poly)
    centre = (sum(p[0] for p in poly) / n, sum(p[1] for p in poly) / n)
    for c in [centre] + [((centre[0] + p[0]) / 2, (centre[1] + p[1]) / 2) for p in poly]:
        if c in forbidden:
            continue
        k = 1  # c is strictly inside, so a fine enough grid keeps it there
        while True:
            pt = (Fraction(round(c[0] * k), k), Fraction(round(c[1] * k), k))
            if pt not in forbidden and all(_dot(ell, pt) > h for ell, h in planes):
                return pt
            k *= 2
    return None


def extend_placement(fw: Framework, mv: Move, j: int = 0) -> Framework:
    """Grow a verified placement across one move, placing the created
    vertices and re-verifying with both oracles."""
    h = apply_move(fw.graph, mv)
    if mv.kind == "VertexToK4":
        return _extend_k4(fw, mv, h, j)
    # One new vertex w, appended; old vertices keep their indices.
    w = fw.graph.n
    old: tuple[list, list] = ([], [])
    for e in h.edges:
        if not e.touches(w):
            old[edge_colour(fw, e)].append(e)
    new = h.edges_at(w)
    anchors = [
        ORIGIN if e.is_loop() else tuple(e.gain * c for c in fw.positions[e.other(w)])
        for e in new
    ]
    forbidden = {ORIGIN} | {q for p in fw.positions for q in (tuple(p), tuple(-c for c in p))}
    for colours in product((0, 1), repeat=len(new)):
        classes = [old[c] + [e for e, ce in zip(new, colours) if ce == c] for c in (0, 1)]
        if not isostatic_classes(h, classes, j):
            continue
        wedges = [[_wedge(fw.norm.facets, c, s, q) for s in (1, -1)]
                  for c, q in zip(colours, anchors)]
        found = _region(_box(anchors), wedges)
        pt = None if found is None else _grid_point(*found, forbidden)
        if pt is not None:
            return _accept(h, tuple(fw.positions) + (pt,), fw.norm, j, mv.kind, fw)
    raise PlacementError(f"no region places the new vertex of {mv.kind} on {fw.graph.triples()}")


def _extend_k4(fw: Framework, mv: Move, h: GainGraph, j: int) -> Framework:
    (v,) = mv.vertices
    a, b = fw.norm.facets
    pv = fw.positions[v]

    def rho(d) -> Fraction:
        return abs(_dot(a, d)) + abs(_dot(b, d))

    margins = [abs(abs(_dot(a, d)) - abs(_dot(b, d)))
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
