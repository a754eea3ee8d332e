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
on both axes.  Colourings of the new edges are tried path first: a deleted
edge (x, y, g) is replaced by the new (x, w, a) and (w, y, b) with ab = g (a
deleted loop at x by w's two edges to x), and the colourings that give
those edges the deleted edge's colour come first, then the others, each
group in product((0, 1)) order; a new edge that two deleted edges want in
different colours takes either.  Each class is a signed spanning forest
(sparsity.Forest) less the deleted edges, and a colouring is kept if both
reach n - j edges with its new edges, each of which Forest.independent
admits in O(1) before it is added; a colouring refused, or without a
region, is taken out again.  For each kept colouring, sign vectors are
tried in product((1, -1)) order, not extending a prefix whose box is empty.  The first non-empty box is the region (none:
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
distinct.  A step's geometry is in integers: its points' keys
(rigidity.point_key) scaled by the lcm of their denominators, and the point
rule's points as integer numerators over one denominator, keyed for the
forbidden set (after the box test) and made Fractions only when returned.

Every placement is accepted by both oracles for the step's character, which
must agree.  The colouring verdict is always the class forests
(Framework.forests): a fresh framework (the base union, a vertex-to-K4
child, the l1 image) builds them from its classes in _accept, and a
one-vertex step edits its parent's by its delta (below).  _verified then
checks the rank.  The rank of a one-vertex step has a local certificate.
Let the parent be certified (its r rows independent), D be its rows of the
deleted edges and N the child's rows of the |D| + 2 edges at w.  If N has
rank 2 on w's columns and span(N) holds D, the child has full row rank.
Proof: its rows span the parent's rows and N, of rank at least r + 2 as the
parent's rows vanish on w's columns; and it has r + 2 rows.  With D empty
this is det != 0 of N on w's columns.  linalg.step_certified decides it
in one pass over the sparse orbit rows, fraction-free (Bareiss, Math. Comp.
1968).  Under a path first colouring span(N) holds D: a path's edges share
the deleted edge's facet pair, so in the covering their rows add up to its
row, as in subdividing an edge (Kitson and Power, Bull. LMS 2014).  So
every H1 and H2 step from a certified
parent is certified: its path colouring always has bases (a class
subdivides an edge and the other gains a pendant edge or loop) and a region
(the path's wedges either way round meet the third edge's unless its anchor
is one of theirs, which distinct covering points rule out).  Vertex-to-K4,
which renumbers the columns, and a step the test (linalg.step_certified)
refuses (an H3 or vertex split step whose path colourings fail) are ranked
by analyse.  Nothing is random.  Base fixtures come from
scripts/find_base_placements.py and are re-verified on use; the i-th base
of a union is scaled by (2i + 2) / (2i + 1), keeping its colours.

A one-vertex step takes its parent's state instead of rebuilding it: the
child is built with the step (rigidity.Framework's step), so it checks
only its new position and takes the parent's covering set, covector table
and orbit rows, each edited in place by the step's delta (the parent
builds any again if asked), and the step takes the parent's class forests
(built from the parent's classes if a framework from elsewhere has none),
which it edits by its delta and hands on to the child: the new point lies
strictly inside every chosen wedge, so each new edge has its chosen
colour.  So no table is copied, and each edge is coloured and its row
built once.  A vertex-to-K4 child, whose edges are renamed, builds its
tables and its forests fresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import inf
from typing import Optional, Sequence

from .catalog import graph_for_base_id
from .colouring import monochrome_quotients
from .construct import ConstructionSequence
from .graph import Edge, GainGraph, invariant
from .linalg import step_certified
from .moves import Move, apply_delta, move_delta
from .norms import L1, LINF, PolyhedralNorm
from .rigidity import Framework, FrameworkError, analyse, covering_keys, orbit_rows, point_key
from .sparsity import Forest

Point = tuple[Fraction, Fraction]
_ORIGIN = (0, 1, 0, 1)  # point_key((0, 0))


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


def _rank_certified(fw: Framework, parent: Optional[Framework], gone, added, j: int) -> bool:
    """Whether fw, grown from parent by a one-vertex step deleting the edges
    whose character-j rows are `gone` and adding `added` (w's edges), has
    full character-j row rank by the local certificate (module docstring)."""
    if parent is None or j not in parent.certified:
        return False
    w, rows = parent.graph.n, orbit_rows(fw, j)
    return step_certified([rows[e] for e in added], gone, (2 * w, 2 * w + 1))


def _verified(fw: Framework, j: int, parent=None, gone=(), added=()) -> Framework:
    """fw, whose class forests for j hold its classes as bases (the
    colouring verdict), once the rank agrees: the local certificate of the
    step from parent deleting edges with rows `gone` and adding `added`,
    else analyse."""
    invariant(_rank_certified(fw, parent, gone, added, j) or analyse(fw, j).isostatic,
              "rank and colouring verdicts disagree")
    fw.certified.add(j)
    return fw


def _accept(g: GainGraph, positions: Sequence[Point], norm, j: int, what: str) -> Framework:
    """The framework at positions, its tables built fresh and its class
    forests for j left on it for the next step, if both oracles call it
    character-j isostatic, else PlacementError naming `what`."""
    try:
        fw = Framework(g, tuple(positions), norm, 2)
        fw.forests[j] = _class_forests(fw, j)
    except (FrameworkError, PlacementError) as exc:
        raise PlacementError(f"{what} do not verify for character {j}: {exc}") from exc
    return _verified(fw, j)


def base_placement(bid: str) -> Framework:
    """Verified isostatic placement of a catalogue base: character 0, or
    character 1 for the single vertex k1."""
    return _accept(graph_for_base_id(bid), _base_points(bid), LINF, int(bid == "k1"),
                   f"the frozen positions of base {bid}")


def _scaled(keys) -> tuple[int, list[tuple[int, int]]]:
    """(L, the points with these keys (point_key) times L), L the lcm of their denominators."""
    scale = math.lcm(*(d for k in keys for d in k[1::2]))
    return scale, [(a * (scale // b), c * (scale // d)) for a, b, c, d in keys]


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


def _key(xs, den) -> tuple:
    """point_key of the point xs / den (den > 0): from ints alone, unless a
    norm with Fraction facets made den a Fraction."""
    if type(den) is not int:
        return point_key([x / den for x in xs])
    g, h = math.gcd(xs[0], den), math.gcd(xs[1], den)
    return xs[0] // g, den // g, xs[1] // h, den // h


def _grid_point(box, facets, scale: int, taken, m: int) -> Point:
    """The new position in a non-empty box, given in (u, v) times `scale`, by
    the point rule of the module docstring; taken(k) tells the forbidden
    points by their keys (rigidity.point_key), fewer than m."""
    (s1, t1), (s2, t2) = _uv(facets, (1, 0)), _uv(facets, (0, 1))
    det = s1 * t2 - s2 * t1
    den = det * det * 2 * m * scale  # the candidates' common denominator
    # every anchor bounds both axes, so each axis has a finite side
    lo = [hi - scale if lo == -inf else lo for lo, hi in box]
    hi = [lo + scale if hi == inf else hi for lo, hi in box]
    for i in range(m):  # i/m of the way on from the centre to the corner
        u, v = ((a + b) * (m - i) + 2 * b * i for a, b in zip(lo, hi))
        c = ((t2 * u - s2 * v) * det, (s1 * v - t1 * u) * det)
        if not taken(_key(c, den)):
            break
    k = 1  # c is strictly inside and free, so a fine enough grid keeps it so
    while True:
        q = [_round(x * k, den) for x in c]
        if all(a * k < scale * x < b * k for (a, b), x in zip(box, _uv(facets, q))):
            if not taken(_key(q, k)):
                return Fraction(q[0], k), Fraction(q[1], k)
        k *= 2


def _add_coloured(forests: list[Forest], edges: Sequence[Edge], colours, size: int) -> bool:
    """Add each edge to the forest of its colour if every class then holds
    `size` edges and stays independent (Forest.independent); else leave the
    forests as they were."""
    if any(len(f) + colours.count(c) != size for c, f in enumerate(forests)):
        return False
    for i, (e, c) in enumerate(zip(edges, colours)):
        if not forests[c].independent(e):
            for x, cx in zip(edges[:i], colours):
                forests[cx].remove(x)
            return False
        forests[c].add(e)
    return True


def _class_forests(fw: Framework, j: int) -> list[Forest]:
    """fw's colour classes as frame (j = 0) or graphic (j = 1) forests, if both are bases."""
    forests = [Forest(fw.graph.n, j == 0) for _ in range(2)]
    for f, cls in zip(forests, monochrome_quotients(fw)):
        if not _add_coloured([f], cls, [0] * len(cls), fw.graph.n - j):
            raise PlacementError(f"the colour classes are not bases for character {j}")
    return forests


def _path_colours(fw: Framework, deleted, new: Sequence[Edge]) -> list[tuple[int, ...]]:
    """The colours each new edge takes in the colourings tried first: the
    colour of the deleted edge on whose replacing path through w it lies,
    either colour where it lies on none or on two of different colours
    (module docstring).  w is the largest vertex, so a new edge's u is its
    other end."""
    wants: list[set] = [set() for _ in new]
    for d in deleted:
        at = [[i for i, e in enumerate(new) if e.u == x] for x in (d.u, d.v)]
        for i in next(([a, b] for a in at[0] for b in at[1] if new[a].gain * new[b].gain == d.gain), []):
            wants[i].add(fw.norm.colours[fw.covectors[d]])
    return [tuple(c) if len(c) == 1 else (0, 1) for c in wants]


def extend_placement(fw: Framework, mv: Move, j: int = 0) -> Framework:
    """Grow a verified placement across one move, placing the created
    vertices and re-verifying with both oracles.  A one-vertex step takes
    fw's class forests for j and hands them on (module docstring)."""
    _check_character(j)
    deleted, added, pi = move_delta(fw.graph, mv)
    h = apply_delta(fw.graph, deleted, added, pi)
    if pi is not None:
        return _extend_k4(fw, mv, h, j)
    # One new vertex w, appended; old vertices keep their indices and old
    # edges their names.
    w, facets, colour, new = fw.graph.n, fw.norm.facets, fw.norm.colours, sorted(added)
    forests = fw.forests.pop(j, None) or _class_forests(fw, j)
    for e in deleted:
        forests[colour[fw.covectors[e]]].remove(e)
    for f in forests:
        f.grow()
    scale, ends = _scaled([point_key(fw.positions[e.other(w)]) if e.u != w else _ORIGIN for e in new])
    anchors = [tuple(e.gain * x for x in _uv(facets, p)) for e, p in zip(new, ends)]
    first = _path_colours(fw, deleted, new)
    rest = (cs for cs in product((0, 1), repeat=len(new)) if any(c not in f for c, f in zip(cs, first)))
    for colours in chain(product(*first), rest):
        if not _add_coloured(forests, new, colours, h.n - j):
            continue
        box = _region(colours, anchors)
        if box is None:
            for e, c in zip(new, colours):
                forests[c].remove(e)
            continue
        cover, rows = fw.covering, orbit_rows(fw, j)
        pt = _grid_point(box, facets, scale, lambda k: k in cover or k == _ORIGIN, len(cover) + 2)
        gone = [rows[e] for e in deleted]  # D, read before the child takes the rows
        child = Framework(h, fw.positions + (pt,), fw.norm, 2, (fw, deleted, new))  # pt is free and in every cone
        invariant(all(colour[child.covectors[e]] == c for e, c in zip(new, colours)),
                  "a new edge left its chosen wedge")
        child.forests[j] = forests
        return _verified(child, j, fw, gone, new)
    raise PlacementError(f"no region places the new vertex of {mv.kind} on {fw.graph.triples()}")


def _extend_k4(fw: Framework, mv: Move, h: GainGraph, j: int) -> Framework:
    (v,) = mv.vertices
    pv, facets, edges = fw.positions[v], fw.norm.facets, fw.graph.edges_at(v)
    others = [_ORIGIN, *(fw.covering - covering_keys(2, pv))]
    scale, (sv, *qs) = _scaled([*map(point_key, (pv, *(fw.positions[e.other(v)] for e in edges))), *others])
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
    return _accept(h, kept + k4, fw.norm, j, f"the positions of {mv.kind}")


def _check_character(j) -> None:
    """ValueError unless j is the int 0 or 1 (a bool is refused)."""
    if type(j) is not int or j not in (0, 1):
        raise ValueError("character must be 0 or 1")


def _bases_positions(ids: Sequence[str]) -> list[Point]:
    """The positions of a disjoint union of bases (see the module docstring
    for the scalars)."""
    positions = []
    for i, bid in enumerate(ids):
        s = Fraction(2 * i + 2, 2 * i + 1) if len(ids) > 1 else 1
        positions += [(s * x, s * y) for x, y in _base_points(bid)]
    return positions


def realize(
    seq: ConstructionSequence,
    j: int = 0,
    cfg: Optional[RealisationConfig] = None,
    norm: PolyhedralNorm = LINF,
) -> Framework:
    """Fold the construction sequence through extend_placement, producing a
    framework verified character-j isostatic by both oracles; ValueError
    unless j is the sequence's character.  `cfg` is accepted and has no
    effect.  Under norm=L1 the l-infinity realisation is mapped by
    (x, y) -> ((x + y)/2, (x - y)/2), which takes the l-infinity ball onto
    the l1 ball and keeps every edge's length and colour, and verified
    again."""
    _check_character(j)
    if j != seq.character:
        raise ValueError(f"counts {seq.params.as_tuple()} place for character {seq.character}, not {j}")
    if norm not in (LINF, L1):
        raise ValueError("realize places under the l-infinity or the l1 norm")
    if not seq.initial:
        raise ValueError("sequence has no initial base")
    fw = _accept(seq.initial_graph(), _bases_positions(seq.initial), LINF, j, f"bases {list(seq.initial)}")
    for mv in seq.steps:
        fw = extend_placement(fw, mv, j)
    if norm == L1:
        fw = _accept(fw.graph, [((x + y) / 2, (x - y) / 2) for x, y in fw.positions], L1, j,
                     "the l1 image's positions")
    return fw
