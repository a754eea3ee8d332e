"""Synthesis of verified isostatic placements along construction sequences.

Every accepted placement is double-checked: the colouring oracle
(geometric_verdict) runs first because it is cheap, then the exact rank
oracle (analyse) must agree.  "Generic position" is replaced by rational
grid sampling plus this verification loop: candidate points for a new vertex
come from intersections of facet-direction lines through the anchor points
of its new edges, from grid samples in shrinking balls around those
intersections, and from a coarse random box as a fallback; a candidate is
kept only if the grown framework passes both oracles for the target
character.  The whole process is deterministic in the configured seed.

Base placements were found by exhaustive small-integer search
(scripts/find_base_placements.py) and are frozen here; each is re-verified
on first use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .catalog import graph_for_base_id
from .colouring import geometric_verdict
from .construct import ConstructionSequence, check_kinds
from .graph import GainGraph, invariant
from .moves import Move, apply_move
from .norms import LINF, PolyhedralNorm
from .rigidity import Framework, FrameworkError, NotWellPositioned, analyse


class PlacementError(RuntimeError):
    pass


class RetriesExhausted(PlacementError):
    """Sampling schedule failed to produce a verified placement."""


@dataclass(frozen=True)
class RealisationConfig:
    seed: int = 0


# Sampling schedule: balls around the centres start at RADIUS and halve each
# round, MAX_RETRIES bounds the attempts, and sampled coordinates lie on the
# grid of spacing 1/GRID_DENOMINATOR.
RADIUS = Fraction(1)
MAX_RETRIES = 400
GRID_DENOMINATOR = 64


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


def _frozen_positions(bid: str) -> tuple[tuple[Fraction, Fraction], ...]:
    return tuple(
        (Fraction(x), Fraction(y)) for x, y in BASE_PLACEMENTS[bid]
    )


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


def base_placement(bid: str) -> Framework:
    """Verified character-0 isostatic placement of a catalogue base."""
    g = graph_for_base_id(bid)
    if bid == "k1":
        fw = Framework(g, ((Fraction(1), Fraction(2)),), LINF, 2)
        if not _verified(fw, 1):
            raise PlacementError("single-vertex seed failed verification")
        return fw
    fw = Framework(g, _frozen_positions(bid), LINF, 2)
    if not _verified(fw, 0):
        raise PlacementError(f"frozen placement for base {bid} failed verification")
    return fw


# ---------------------------------------------------------------------------
# Candidate generation.
# ---------------------------------------------------------------------------


def _facet_directions(norm: PolyhedralNorm) -> list[tuple[Fraction, Fraction]]:
    """One interior direction per facet cone: the kernel direction of the
    other facet's covector (where only this facet's functional is active)."""
    (a1, a2), (b1, b2) = norm.facets
    return [(-b2, b1), (-a2, a1)]


def _line_intersection(q1, d1, q2, d2):
    """Exact intersection of q1 + t d1 and q2 + s d2, or None if parallel."""
    det = d1[0] * (-d2[1]) - d1[1] * (-d2[0])
    if det == 0:
        return None
    rx, ry = q2[0] - q1[0], q2[1] - q1[1]
    t = (rx * (-d2[1]) - ry * (-d2[0])) / det
    return (q1[0] + t * d1[0], q1[1] + t * d1[1])


def _anchors(h: GainGraph, positions: Sequence, v: int) -> list:
    """Anchor points for new vertex v: the symmetry image of each neighbour
    that v's edges connect to, plus the origin if v carries a loop (a loop's
    direction is v's own position)."""
    out = []
    for e in h.edges_at(v, include_loop=False):
        x = e.other(v)
        px = positions[x]
        if px is None:
            continue
        if e.gain == -1:
            px = (-px[0], -px[1])
        out.append(px)
    if h.loop_at(v) is not None:
        out.append((Fraction(0), Fraction(0)))
    return out


def _candidate_points(
    h: GainGraph,
    positions: Sequence,
    v: int,
    norm: PolyhedralNorm,
    rng: random.Random,
) -> Iterator[tuple[Fraction, Fraction]]:
    """Deterministic stream of rational candidate positions for vertex v."""
    dirs = _facet_directions(norm)
    anchors = _anchors(h, positions, v)
    centres = []
    for i, qa in enumerate(anchors):
        for qb in anchors[i + 1:]:
            for da in dirs:
                for db in dirs:
                    pt = _line_intersection(qa, da, qb, db)
                    if pt is not None:
                        centres.append(pt)
    # Anchors themselves are sampling centres too: several move recipes place
    # the new vertex in a small ball around an existing image point.
    centres.extend(anchors)
    if not centres:
        known = [p for p in positions if p is not None]
        centres = [known[0] if known else (Fraction(1), Fraction(1))]
    yield from centres
    den = GRID_DENOMINATOR
    radius = RADIUS
    per_round = MAX_RETRIES // 8
    for _round in range(8):
        for _ in range(per_round):
            c = centres[rng.randrange(len(centres))]
            lim = int(radius * den)
            if lim < 1:
                lim = 1
            dx = Fraction(rng.randint(-lim, lim), den)
            dy = Fraction(rng.randint(-lim, lim), den)
            yield (c[0] + dx, c[1] + dy)
        radius = radius / 2
    for _ in range(MAX_RETRIES):
        yield (
            Fraction(rng.randint(-8 * den, 8 * den), den),
            Fraction(rng.randint(-8 * den, 8 * den), den),
        )


def _try_framework(h, positions, norm, j):
    if any(p is None for p in positions):
        return None
    try:
        fw = Framework(h, tuple(positions), norm, 2)
    except FrameworkError:
        return None
    return fw if _verified(fw, j) else None


def extend_placement(
    fw: Framework,
    mv: Move,
    cfg: RealisationConfig,
    j: int = 0,
    rng: Optional[random.Random] = None,
) -> Framework:
    """Grow a verified placement across one move, placing the created
    vertices and re-verifying with both oracles."""
    if rng is None:
        rng = random.Random(cfg.seed)
    g = fw.graph
    h = apply_move(g, mv)
    norm = fw.norm
    if mv.kind == "VertexToK4":
        return _extend_k4(fw, mv, h, j, rng)
    # One new vertex, appended at index g.n; old positions are kept
    # (VertexSplit and the H moves never relabel existing vertices).
    positions: list = list(fw.positions) + [None]
    budget = 0
    for cand in _candidate_points(h, positions, g.n, norm, rng):
        budget += 1
        positions[g.n] = cand
        out = _try_framework(h, positions, norm, j)
        if out is not None:
            return out
        if budget > 4 * MAX_RETRIES:
            break
    raise RetriesExhausted(
        f"could not place new vertex for {mv.kind} on {g.triples()}"
    )


# A fixed well-shaped K4 silhouette; scaled into a shrinking ball around the
# replaced vertex and perturbed on the grid until verification passes.
_K4_SHAPE = ((0, 0), (5, 2), (2, 5), (7, 7))


def _extend_k4(fw, mv, h, j, rng):
    g = fw.graph
    (v,) = mv.vertices
    pv = fw.positions[v]
    kept = [p for i, p in enumerate(fw.positions) if i != v]
    norm = fw.norm
    den = GRID_DENOMINATOR
    scale = RADIUS / 16
    for _round in range(10):
        for _ in range(MAX_RETRIES // 10):
            pts = []
            for sx, sy in _K4_SHAPE:
                jx = Fraction(rng.randint(-den, den), den * den)
                jy = Fraction(rng.randint(-den, den), den * den)
                pts.append(
                    (
                        pv[0] + scale * (sx + jx),
                        pv[1] + scale * (sy + jy),
                    )
                )
            out = _try_framework(h, kept + pts, norm, j)
            if out is not None:
                return out
        scale = scale / 2
    raise RetriesExhausted(
        f"could not place K4 copy replacing vertex {v} on {g.triples()}"
    )


# ---------------------------------------------------------------------------
# Whole-sequence realisation.
# ---------------------------------------------------------------------------


def _union_base_placement(ids: Sequence[str], rng) -> Framework:
    """Placement of a disjoint union of bases: each component uses its frozen
    fixture scaled by a distinct positive rational so covering positions stay
    distinct (translations would break the central symmetry)."""
    graphs = [graph_for_base_id(b) for b in ids]
    g = GainGraph(0, ())
    for bg in graphs:
        g = g.union(bg)
    scalars = [Fraction(2 * i + 2, 2 * i + 1) for i in range(len(ids))]
    for attempt in range(MAX_RETRIES):
        positions = []
        for i, bid in enumerate(ids):
            base = (
                ((Fraction(1), Fraction(2)),) if bid == "k1"
                else _frozen_positions(bid)
            )
            s = scalars[i]
            positions.extend((s * x, s * y) for x, y in base)
        fw = _try_framework(g, positions, LINF, 0 if ids[0] != "k1" else 1)
        if fw is not None:
            return fw
        scalars = [
            s * Fraction(rng.randint(GRID_DENOMINATOR + 1, 3 * GRID_DENOMINATOR),
                         GRID_DENOMINATOR)
            for s in scalars
        ]
    raise RetriesExhausted(f"could not place base union {tuple(ids)}")


def realize(
    seq: ConstructionSequence,
    j: int = 0,
    cfg: Optional[RealisationConfig] = None,
) -> Framework:
    """Fold the construction sequence through extend_placement, producing a
    framework verified character-j isostatic by both oracles."""
    if cfg is None:
        cfg = RealisationConfig()
    if j not in (0, 1):
        raise ValueError("character must be 0 or 1")
    if not seq.initial:
        raise ValueError("sequence has no initial base")
    check_kinds(seq)
    # Early placements can drift into configurations where a later step has
    # no nearby verified position; on exhaustion, restart the whole fold with
    # a seed derived from cfg.seed so the result stays deterministic.
    last_error: Optional[RetriesExhausted] = None
    for attempt in range(10):
        rng = random.Random(f"{cfg.seed}:{attempt}")
        try:
            if len(seq.initial) == 1:
                fw = base_placement(seq.initial[0])
            else:
                fw = _union_base_placement(seq.initial, rng)
            if not _verified(fw, j):
                raise PlacementError(
                    f"bases {list(seq.initial)} do not verify for character {j}"
                )
            for mv in seq.steps:
                fw = extend_placement(fw, mv, cfg, j, rng)
            return fw
        except RetriesExhausted as err:
            last_error = err
    raise last_error
