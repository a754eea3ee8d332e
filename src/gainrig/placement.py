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
order, keeping those under which both classes are bases: the edges each
class keeps sit in a colouring.ColourClass, built once per step, and a
colouring's new edges alone are tested against it.  For each kept
colouring, sign vectors are tried in product((1, -1)) order, not extending
a prefix whose box is empty.  The first non-empty box is the region (none:
PlacementError).  The point rule cuts its unbounded sides at distance 1
from the bounded ones and takes the centre of that finite part; if the
centre is forbidden (the origin or +-an old position: the parent's covering
set), points on to the finite part's upper corner follow, |forbidden| + 1
distinct interior ones, so one is free.  That point, rounded to the
coarsest dyadic grid 2^-k keeping it inside and free, is p_w.

Vertex-to-K4 puts the four new vertices at p_v + t s_i for the silhouette s
below, whose edges split by colour into two spanning paths; contracting a
path gives back the old class, so both classes stay bases.  With
rho(d) = max(|u_d|, |v_d|) and S = max rho(s_i), t is the largest 2^-k with
2 t S below every colour margin min(|u_d|, |v_d|) of v's edges (loop
included) and below rho(p_v - q) for the origin and every other covering
point q, so re-attached edges keep their colours and covering points stay
distinct.  A step's geometry is in integers: its points scaled by the lcm
of their denominators, and the point rule's points as integer numerators
over one denominator, made Fractions only for the forbidden set (asked
after the box test) and the new positions.

Every placement is accepted only through _verified: the colouring verdict
for the step's character, then the rank, which must agree.  The colouring
verdict is read from the new framework's own classes: when they are the
classes the step chose, the step's test decided it; otherwise
colouring.isostatic_classes does.  A step adding w
with two edges and removing none (H1a-c, or a vertex split moving no edge)
has the orbit matrix [[M, 0], [X, B]], B being those rows on w's columns.
If its parent framework was certified for the same character (M has full
row rank) and det B != 0, it has full row rank: the block certificate.
Otherwise (a loop row at character 1, another move) analyse decides.
Nothing is random.  Base fixtures come from scripts/find_base_placements.py
and are re-verified on use; the i-th base of a union is scaled by
(2i + 2) / (2i + 1), keeping its colours.

A step carries its parent's state instead of rebuilding it: the colour
classes (Framework.classes, read from the table once per framework), the
covering set (Framework.covering: the new framework, grown from the parent,
checks only its appended positions against it) and the covector table
(rigidity.carry_covectors, by the move's edge map, with the orbit rows of
the edges a one-vertex step keeps), so each edge is coloured once, when
created, and its row is built once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import inf
from typing import Optional, Sequence

from .catalog import graph_for_base_id
from .colouring import ColourClass, isostatic_classes, monochrome_quotients
from .construct import ConstructionSequence
from .graph import GainGraph, invariant
from .moves import Move, apply_move, deleted_edges, kept_edge_map
from .norms import L1, LINF, PolyhedralNorm
from .rigidity import (
    Framework,
    FrameworkError,
    NotWellPositioned,
    analyse,
    carry_covectors,
    orbit_rows,
)

Point = tuple[Fraction, Fraction]


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


def _block_certified(fw: Framework, parent: Framework, j: int) -> bool:
    """Whether fw, grown from parent by a step of extend_placement, has full
    character-j row rank by the block certificate: parent is certified, fw
    adds one vertex w and two edges, both at w (a step adds edges only at w,
    so it removed none), and det B != 0 for their orbit rows B on w's columns."""
    w = parent.graph.n
    if (j not in parent.certified or fw.graph.n != w + 1
            or len(fw.graph.edges) != len(parent.graph.edges) + 2):
        return False
    rows = orbit_rows(fw, j)
    b = [(rows[e].get(2 * w, 0), rows[e].get(2 * w + 1, 0)) for e in fw.graph.edges_at(w)]
    return len(b) == 2 and b[0][0] * b[1][1] != b[0][1] * b[1][0]


def _verified(fw: Framework, j: int, parent: Optional[Framework] = None, chosen=None) -> bool:
    """Both oracles for character j, which must agree: the colouring verdict,
    then the rank (the block certificate from parent, else analyse).  If
    fw's own classes are `chosen`, which extend_placement found to be bases,
    that is the colouring verdict; else isostatic_classes decides."""
    try:
        classes = monochrome_quotients(fw)
    except NotWellPositioned:
        return False
    if classes != chosen and not isostatic_classes(fw.graph, classes, j):
        return False
    algebraic = parent is not None and _block_certified(fw, parent, j) or analyse(fw, j).isostatic
    invariant(algebraic, "rank and colouring verdicts disagree")
    fw.certified.add(j)
    return True


def _framework(g: GainGraph, positions: Sequence[Point], norm, what: str,
               parent: Optional[Framework] = None) -> Framework:
    try:
        return Framework(g, tuple(positions), norm, 2, parent)
    except FrameworkError as exc:
        raise PlacementError(f"{what}: {exc}") from exc


def _accept(
    g: GainGraph, positions: Sequence[Point], norm, j: int, what: str,
    parent: Optional[Framework] = None, mv: Optional[Move] = None, chosen=None,
) -> Framework:
    """The framework at positions if both oracles call it character-j
    isostatic (see _verified for `chosen`), else PlacementError naming
    `what`.  Its covering set and covector table are carried over from
    `parent`, the framework the move mv starts from, if given."""
    fw = _framework(g, positions, norm, what, parent)
    if parent is not None:
        carry_covectors(parent, fw, kept_edge_map(mv))
    if not _verified(fw, j, parent, chosen):
        raise PlacementError(f"{what} failed verification for character {j}")
    return fw


def base_placement(bid: str) -> Framework:
    """Verified isostatic placement of a catalogue base: character 0, or
    character 1 for the single vertex k1."""
    return _accept(graph_for_base_id(bid), _base_points(bid), LINF, int(bid == "k1"),
                   f"frozen placement for base {bid}")


def _scaled(points) -> tuple[int, list[tuple[int, int]]]:
    """(L, the points times L), L the lcm of their coordinates' denominators."""
    scale = math.lcm(*(c.denominator for p in points for c in p))
    return scale, [tuple(c.numerator * (scale // c.denominator) for c in p) for p in points]


def _uv(facets, p) -> tuple:
    """p in the coordinates u = (a + b).p, v = (a - b).p of facets a, b."""
    (a1, a2), (b1, b2) = facets
    return (a1 + b1) * p[0] + (a2 + b2) * p[1], (a1 - b1) * p[0] + (a2 - b2) * p[1]


def _cut(box, colour: int, sign: int, q):
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


def _round(n: int, d: int) -> int:
    """n / d (d > 0) rounded half to even, as round() rounds a Fraction."""
    q, r = divmod(n, d)
    return q + (2 * r > d or 2 * r == d and q % 2)


def _grid_point(box, facets, scale: int, taken, m: int) -> Point:
    """The new position in a non-empty box, given in (u, v) times `scale`, by
    the point rule of the module docstring; taken(p) tells the forbidden
    points, fewer than m."""
    (s1, t1), (s2, t2) = _uv(facets, (1, 0)), _uv(facets, (0, 1))
    det = s1 * t2 - s2 * t1
    den = det * det * 2 * m * scale  # the candidates' common denominator
    # every anchor bounds both axes, so each axis has a finite side
    lo = [hi - scale if lo == -inf else lo for lo, hi in box]
    hi = [lo + scale if hi == inf else hi for lo, hi in box]
    for i in range(m):  # i/m of the way on from the centre to the corner
        u, v = ((a + b) * (m - i) + 2 * b * i for a, b in zip(lo, hi))
        c = ((t2 * u - s2 * v) * det, (s1 * v - t1 * u) * det)
        if not taken((Fraction(c[0], den), Fraction(c[1], den))):
            break
    k = 1  # c is strictly inside and free, so a fine enough grid keeps it so
    while True:
        q = [_round(x * k, den) for x in c]
        if all(a * k < scale * x < b * k for (a, b), x in zip(box, _uv(facets, q))):
            if not taken(pt := (Fraction(q[0], k), Fraction(q[1], k))):
                return pt
        k *= 2


def extend_placement(fw: Framework, mv: Move, j: int = 0) -> Framework:
    """Grow a verified placement across one move, placing the created
    vertices and re-verifying with both oracles."""
    h = apply_move(fw.graph, mv)
    if mv.kind == "VertexToK4":
        return _extend_k4(fw, mv, h, j)
    # One new vertex w, appended; old vertices keep their indices and old
    # edges their names.
    w, facets = fw.graph.n, fw.norm.facets
    gone = set(deleted_edges(fw.graph, mv))
    kept = [ColourClass(h.n, [e for e in cls if e not in gone] if gone else cls, j)
            for cls in monochrome_quotients(fw)]
    new = h.edges_at(w)
    scale, ends = _scaled([(0, 0) if e.is_loop() else fw.positions[e.other(w)] for e in new])
    anchors = [tuple(e.gain * x for x in _uv(facets, p)) for e, p in zip(new, ends)]
    for colours in product((0, 1), repeat=len(new)):
        added = [[e for e, ce in zip(new, colours) if ce == c] for c in (0, 1)]
        if not all(k.is_basis(a) for k, a in zip(kept, added)):
            continue
        box = _region(colours, anchors)
        if box is not None:
            pt = _grid_point(box, facets, scale, lambda p: not any(p) or p in fw.covering,
                             len(fw.covering) + 2)
            chosen = tuple(k.extended(a) for k, a in zip(kept, added))
            return _accept(h, fw.positions + (pt,), fw.norm, j, mv.kind, fw, mv, chosen)
    raise PlacementError(f"no region places the new vertex of {mv.kind} on {fw.graph.triples()}")


def _extend_k4(fw: Framework, mv: Move, h: GainGraph, j: int) -> Framework:
    (v,) = mv.vertices
    pv, facets, edges = fw.positions[v], fw.norm.facets, fw.graph.edges_at(v)
    others = (fw.covering | {(0, 0)}) - {pv, (-pv[0], -pv[1])}
    scale, (sv, *qs) = _scaled([pv, *(fw.positions[e.other(v)] for e in edges), *others])
    # |(u, v)| of p_v - g q, times scale: up to sign the difference of v's edge
    # to q with gain g, then p_v - q for the origin and the other points q
    uv = [[abs(x) for x in _uv(facets, (sv[0] - g * q[0], sv[1] - g * q[1]))]
          for g, q in zip([e.gain for e in edges] + [1] * len(others), qs)]
    bound = min([min(d) for d in uv[:len(edges)]] + [max(d) for d in uv[len(edges):]])
    if bound <= 0:
        raise PlacementError(f"{mv.kind} needs a well-positioned placement")
    reach, t = 2 * max(max(map(abs, _uv(facets, s))) for s in _K4_SHAPE) * scale, 1
    while reach >= bound * t:  # t = 1 / the docstring's 2^-k
        t *= 2
    kept = [p for x, p in enumerate(fw.positions) if x != v]
    k4 = [(pv[0] + Fraction(x, t), pv[1] + Fraction(y, t)) for x, y in _K4_SHAPE]
    return _accept(h, kept + k4, fw.norm, j, mv.kind, fw, mv)


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
    norm: PolyhedralNorm = LINF,
) -> Framework:
    """Fold the construction sequence through extend_placement, producing a
    framework verified character-j isostatic by both oracles.  `cfg` is
    accepted and has no effect.  Under norm=L1 the l-infinity realisation
    is mapped by (x, y) -> ((x + y)/2, (x - y)/2), which takes the
    l-infinity ball onto the l1 ball and keeps every edge's length and
    colour, and verified again."""
    if j not in (0, 1):
        raise ValueError("character must be 0 or 1")
    if norm not in (LINF, L1):
        raise ValueError("realize places under the l-infinity or the l1 norm")
    if not seq.initial:
        raise ValueError("sequence has no initial base")
    fw = _bases_placement(seq.initial)
    if not _verified(fw, j):
        raise PlacementError(f"bases {list(seq.initial)} do not verify for character {j}")
    for mv in seq.steps:
        fw = extend_placement(fw, mv, j)
    if norm == L1:
        fw = _accept(fw.graph, [((x + y) / 2, (x - y) / 2) for x, y in fw.positions], L1, j,
                     "l1 image of the l-infinity placement")
    return fw
