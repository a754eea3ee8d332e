import dataclasses
import random
from fractions import Fraction as F
from itertools import product, takewhile
from math import inf
from pathlib import Path

import pytest

from gainrig import placement
from gainrig.catalog import BASE_CATALOG, PARAMS_220, PARAMS_222, regime
from gainrig.colouring import geometric_verdict, isostatic_classes, monochrome_quotients
from gainrig.construct import (
    ConstructionSequence,
    _random_move,
    decompose,
    random_tight,
)
from gainrig.graph import InvariantViolation
from gainrig.jsonio import load_json, sequence_from_dict
from gainrig.moves import ALL_KINDS, Move, MoveError, apply_move, kept_edge_map
from gainrig.norms import L1, LINF, PolyhedralNorm
from gainrig.placement import (
    BASE_PLACEMENTS,
    PlacementError,
    RealisationConfig,
    base_placement,
    extend_placement,
    realize,
)
from gainrig.rigidity import (
    Framework,
    FrameworkError,
    analyse,
    orbit_matrix,
    orbit_rows,
    well_positioned,
)
from gainrig.sparsity import tight_partition

DATA = Path(__file__).parent / "data"


def test_all_base_placements_doubly_verified():
    for bid in BASE_PLACEMENTS:
        fw = base_placement(bid)
        assert well_positioned(fw)
        assert geometric_verdict(fw).chi0_isostatic
        assert analyse(fw, 0).isostatic


def test_k1_seed_verifies_chi1():
    fw = base_placement("k1")
    assert analyse(fw, 1).isostatic


def test_extend_placement_single_move():
    fw = base_placement("a")
    out = extend_placement(fw, Move("H1a", vertices=(0, 1), gains=(1, -1)))
    assert out.graph.n == 3
    assert out.positions[:2] == fw.positions
    assert analyse(out, 0).isostatic


def test_realisation_deterministic():
    g = random_tight(6, PARAMS_220, seed=77)
    seq, _, _ = decompose(g, PARAMS_220)
    cfg = RealisationConfig(seed=123)
    fw1 = realize(seq, 0, cfg)
    fw2 = realize(seq, 0, cfg)
    assert fw1.positions == fw2.positions


def test_realize_chi0_end_to_end():
    for i in range(10):
        g = random_tight(2 + i % 6, PARAMS_220, seed=4000 + i)
        seq, _, _ = decompose(g, PARAMS_220)
        fw = realize(seq, 0, RealisationConfig(seed=i))
        assert geometric_verdict(fw).chi0_isostatic
        assert analyse(fw, 0).isostatic


def test_realize_chi1_end_to_end():
    for i in range(10):
        g = random_tight(1 + i % 7, PARAMS_222, seed=5000 + i)
        seq, _, _ = decompose(g, PARAMS_222)
        fw = realize(seq, 1, RealisationConfig(seed=i))
        assert geometric_verdict(fw).chi1_isostatic
        assert analyse(fw, 1).isostatic
        assert len(fw.graph.edges) == 2 * fw.graph.n - 2


def test_realize_disconnected_union():
    g = BASE_CATALOG["a"].union(BASE_CATALOG["b"])
    seq, _, _ = decompose(g, PARAMS_220)
    fw = realize(seq, 0, RealisationConfig(seed=2))
    assert analyse(fw, 0).isostatic


@pytest.mark.parametrize("ids", [("a",), ("a", "b")])
def test_realize_rejects_bases_that_do_not_verify(ids):
    # (2,2,0) bases are placed for character 0; a union is checked like one base
    seq = ConstructionSequence(PARAMS_220, ids, ())
    with pytest.raises(PlacementError, match="do not verify for character 1"):
        realize(seq, 1)


def test_realize_rejects_bad_character():
    seq = ConstructionSequence(PARAMS_220, ("a",), ())
    with pytest.raises(ValueError):
        realize(seq, 2)


def _assert_isostatic(fw, j):
    gv = geometric_verdict(fw)
    assert (gv.chi0_isostatic if j == 0 else gv.chi1_isostatic)
    assert analyse(fw, j).isostatic


@pytest.mark.parametrize("name, j", [("k4_then_h2e", 0), ("h1a_blowup", 1)])
def test_realize_regression_fixtures(name, j):
    # Both come from perfbench's forward generator (gen.py).  k4_then_h2e:
    # forward_sequence(Random(1), 17, "220"), a vertex-to-K4 drawn from the
    # same rng, then forward moves up to 31 vertices; its last step is an H2e
    # beside the K4, whose points sit at a small scale, so the regions there
    # are small.  h1a_blowup: forward_sequence(Random(1304273654), 22, "222"),
    # whose H1a regions are narrow.  Blind grid sampling failed on the first
    # and needed a restart of the whole fold on the second.
    seq = sequence_from_dict(load_json(DATA / f"{name}.json"))
    _assert_isostatic(realize(seq, j), j)


def _grown_sequence(p, seed, n=12, initial=None):
    """A sequence grown like random_tight from the given bases (by default
    one random base): random moves of every allowed kind, each kept if the
    components stay tight."""
    rng = random.Random(seed)
    if initial is None:
        initial = ("k1",) if p == PARAMS_222 else (rng.choice("abcdefgh"),)
    g, steps = ConstructionSequence(p, initial, ()).initial_graph(), []
    part = tight_partition(g, p)
    while g.n < n:
        usable = [k for k in regime(p)[0] if k != "VertexToK4" or n - g.n >= 3]
        mv = _random_move(g, usable, rng)
        if mv is None:
            continue
        try:
            h = apply_move(g, mv)
        except MoveError:
            continue
        h_part = tight_partition(h, p, part, kept_edge_map(mv))
        if h_part is not None:
            g, part, steps = h, h_part, steps + [mv]
    return ConstructionSequence(p, initial, tuple(steps))


def test_placement_builds_one_framework_per_step(monkeypatch):
    builds = []

    def counting(*args, **kwargs):
        builds.append(1)
        return Framework(*args, **kwargs)

    monkeypatch.setattr(placement, "Framework", counting)
    kinds = set()
    for p, j in ((PARAMS_220, 0), (PARAMS_222, 1)):
        for seed in range(20):
            seq = _grown_sequence(p, seed)
            kinds.update(mv.kind for mv in seq.steps)
            builds.clear()
            fw = realize(seq, j)
            assert len(builds) == 1 + len(seq.steps)
            _assert_isostatic(fw, j)
    assert kinds == set(ALL_KINDS)


def test_seed_has_no_effect():
    seq = _grown_sequence(PARAMS_220, 3)
    fw1 = realize(seq, 0, RealisationConfig(seed=1))
    fw2 = realize(seq, 0, RealisationConfig(seed=2))
    assert fw1.positions == fw2.positions


BASES = [(PARAMS_220, 0, ("d",)), (PARAMS_220, 0, ("c", "a")), (PARAMS_222, 1, ("k1",))]


@pytest.mark.parametrize("p, j, initial", BASES, ids=["single", "union", "k1"])
def test_each_framework_is_verified_once(monkeypatch, p, j, initial):
    calls = []

    def counting(fw, j, parent=None, chosen=None):
        calls.append(fw)
        return verified(fw, j, parent, chosen)

    verified = placement._verified
    monkeypatch.setattr(placement, "_verified", counting)
    for seed in range(5):
        seq = _grown_sequence(p, seed, initial=initial)
        calls.clear()
        realize(seq, j)
        assert len(calls) == 1 + len(seq.steps)


@pytest.mark.parametrize("p, j, initial", BASES, ids=["single", "union", "k1"])
def test_each_edge_is_coloured_once(monkeypatch, p, j, initial):
    # the covector table is the only caller of facet_of, and a step's table
    # is carried over from the framework before it: one call per edge of the
    # base framework, then one per edge at the vertices each step creates
    facet_calls, graphs = [], []

    def counting_facet_of(norm, delta):
        facet_calls.append(delta)
        return facet_of(norm, delta)

    def counting_framework(g, *args):
        graphs.append(g)
        return Framework(g, *args)

    facet_of = PolyhedralNorm.facet_of
    monkeypatch.setattr(PolyhedralNorm, "facet_of", counting_facet_of)
    monkeypatch.setattr(placement, "Framework", counting_framework)
    for seed in range(5):
        seq = _grown_sequence(p, seed, initial=initial)
        facet_calls.clear()
        graphs.clear()
        fw = realize(seq, j)
        assert len(graphs) == 1 + len(seq.steps)
        created = [4 if mv.kind == "VertexToK4" else 1 for mv in seq.steps]
        new_edges = [sum(e.v >= h.n - c for e in h.edges) for h, c in zip(graphs[1:], created)]
        assert len(facet_calls) == len(graphs[0].edges) + sum(new_edges)
        _assert_isostatic(fw, j)
        assert len(facet_calls) == len(graphs[0].edges) + sum(new_edges)


def _sequences_with_k4_partway(p, initial, wanted=2):
    found = []
    for seed in range(100):
        seq = _grown_sequence(p, seed, initial=initial)
        if any(mv.kind == "VertexToK4" for mv in seq.steps[:-1]):
            found.append(seq)
            if len(found) == wanted:
                return found
    raise AssertionError("no grown sequence has a vertex-to-K4 before its last step")


@pytest.mark.parametrize("p, j, initial", BASES, ids=["single", "union", "k1"])
def test_carried_covector_table_matches_a_fresh_one(p, j, initial):
    seqs = [_grown_sequence(p, seed, initial=initial) for seed in range(3)]
    seqs += _sequences_with_k4_partway(p, initial)
    if initial == ("d",):  # once: a K4 then an H2e beside it, from base b
        seqs.append(sequence_from_dict(load_json(DATA / "k4_then_h2e.json")))
    for seq in seqs:
        fw = realize(ConstructionSequence(seq.params, seq.initial, ()), j)
        for mv in seq.steps:
            fw = extend_placement(fw, mv, j)
            fresh = Framework(fw.graph, fw.positions, fw.norm, fw.group_order)
            assert fw.covectors == fresh.covectors
            assert list(fw.covectors) == list(fresh.covectors)
            assert fw.covering == fresh.covering and fw.classes == fresh.classes


@pytest.mark.parametrize("norm", [LINF, L1], ids=["linf", "l1"])
@pytest.mark.parametrize("p, j, initial", BASES, ids=["single", "union", "k1"])
def test_carried_orbit_rows_match_fresh_ones(p, j, initial, norm):
    # a one-vertex step takes the row of every edge it keeps, the same
    # object, from the framework before it and builds rows for w's edges
    # only; a vertex-to-K4 renames edges, so it builds all its rows again
    seqs = [_grown_sequence(p, seed, initial=initial) for seed in range(3)]
    if norm == LINF:
        seqs += _sequences_with_k4_partway(p, initial)
    else:  # _K4_SHAPE splits into spanning paths under l-infinity only
        seqs = [ConstructionSequence(p, s.initial, tuple(
            takewhile(lambda mv: mv.kind != "VertexToK4", s.steps))) for s in seqs]
    shared = 0
    for seq in seqs:
        fw = realize(ConstructionSequence(seq.params, seq.initial, ()), j, norm=norm)
        for mv in seq.steps:
            parent, fw = fw, extend_placement(fw, mv, j)
            fresh = Framework(fw.graph, fw.positions, fw.norm, fw.group_order)
            # the step's own character, and the other one analysed below
            # unless the step renamed edges
            k4 = mv.kind == "VertexToK4"
            assert set(fw.rows) == ({j} if k4 else set(parent.rows)) and j in fw.rows
            w = parent.graph.n
            for c, rows in fw.rows.items():
                assert list(rows) == list(fw.covectors) and rows == orbit_rows(fresh, c)
                kept = {e for e, row in rows.items() if row is parent.rows[c].get(e)}
                assert kept == (set() if k4 else {e for e in rows if not e.touches(w)})
                shared += len(kept)
            for c in (0, 1):
                assert analyse(fw, c) == analyse(fresh, c)
    assert shared > 0


# The polygon search placement used before its interval test, kept as the
# oracle: clip a box around the anchors (x, y) by each wedge's two
# half-planes and ask for positive area.


def _dot(f, p):
    return f[0] * p[0] + f[1] * p[1]


def _wedge(facets, colour, sign, q):
    """The half-planes ell.p > h whose intersection is the set of p with
    p - q in the cone of facet `colour` with `sign`."""
    fc, fo = facets[colour], facets[1 - colour]
    ells = [(sign * fc[0] + t * fo[0], sign * fc[1] + t * fo[1]) for t in (-1, 1)]
    return [(ell, _dot(ell, q)) for ell in ells]


def _clip(poly, ell, h):
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


def _area2(poly):
    return sum((poly[i - 1][0] * p[1] - p[0] * poly[i - 1][1] for i, p in enumerate(poly)), 0)


def _clip_box(anchors):
    """Counter-clockwise box around the anchors, widened on every side by
    their spread plus one; under l-infinity every corner of a wedge
    intersection lies inside it."""
    xs, ys = [q[0] for q in anchors], [q[1] for q in anchors]
    pad = max(max(xs) - min(xs), max(ys) - min(ys)) + 1
    lo, hi = (min(xs) - pad, min(ys) - pad), (max(xs) + pad, max(ys) + pad)
    return [lo, (hi[0], lo[1]), hi, (lo[0], hi[1])]


def _clipped_area2(facets, colours, signs, anchors):
    poly = _clip_box(anchors)
    for c, s, q in zip(colours, signs, anchors):
        for ell, h in _wedge(facets, c, s, q):
            poly = _clip(poly, ell, h)
    return _area2(poly)


def _interval_box(facets, colours, signs, anchors):
    box = ((-inf, inf), (-inf, inf))
    for c, s, q in zip(colours, signs, anchors):
        box = box and placement._cut(box, c, s, placement._uv(facets, q))
    return box


def _oracle_sequences():
    """(sequence, character): grown sequences of both regimes, some with a
    vertex-to-K4 partway, and both regression fixtures."""
    out = []
    for p, j in ((PARAMS_220, 0), (PARAMS_222, 1)):
        initial = ("k1",) if j else None
        seqs = [_grown_sequence(p, seed) for seed in range(3)]
        out += [(seq, j) for seq in seqs + _sequences_with_k4_partway(p, initial)]
    return out + [(sequence_from_dict(load_json(DATA / f"{name}.json")), j)
                  for name, j in (("k4_then_h2e", 0), ("h1a_blowup", 1))]


def _steps(seq, j):
    """(parent framework, move, realized child) for every step of seq."""
    fw = realize(ConstructionSequence(seq.params, seq.initial, ()), j)
    for mv in seq.steps:
        child = extend_placement(fw, mv, j)
        yield fw, mv, child
        fw = child


def test_interval_test_agrees_with_polygon_clipping():
    facets, checked = LINF.facets, 0
    for seq, j in _oracle_sequences():
        for fw, mv, child in _steps(seq, j):
            if mv.kind == "VertexToK4":
                continue
            w = fw.graph.n
            new = child.graph.edges_at(w)
            anchors = [(F(0), F(0)) if e.is_loop()
                       else tuple(e.gain * c for c in fw.positions[e.other(w)]) for e in new]
            kept = set(child.graph.edges)
            old = [[e for e in cls if e in kept] for cls in monochrome_quotients(fw)]
            first = None  # the first pair placement may take, in its search order
            for colours in product((0, 1), repeat=len(new)):
                classes = [old[c] + [e for e, ce in zip(new, colours) if ce == c] for c in (0, 1)]
                bases = isostatic_classes(child.graph, classes, j)
                for signs in product((1, -1), repeat=len(new)):
                    box = _interval_box(facets, colours, signs, anchors)
                    area2 = _clipped_area2(facets, colours, signs, anchors)
                    assert (box is not None) == (area2 > 0)
                    checked += 1
                    if bases and box is not None and first is None:
                        first = (colours, signs)
            # the new vertex has that pair's colours and signs, inside its box
            pw = child.positions[w]
            own = [LINF.facet_of((pw[0] - q[0], pw[1] - q[1])) for q in anchors]
            assert first == (tuple(c for c, _ in own), tuple(s for _, s in own))
            box = _interval_box(facets, *first, anchors)
            assert all(lo < x < hi for (lo, hi), x in zip(box, placement._uv(facets, pw)))
    assert checked > 1000


def _grid_point(box, forbidden):
    """placement._grid_point under l-infinity at scale 1, forbidding exactly
    the given points."""
    return placement._grid_point(box, LINF.facets, 1, set(forbidden).__contains__,
                                 len(forbidden) + 1)


@pytest.mark.parametrize("forbidden, expected", [
    ((), (F(1), F(0))),                                   # the centre
    (((F(1), F(0)),), (F(3, 2), F(0))),                   # centre taken: 1/2 along
    (((F(1), F(0)), (F(5, 4), F(0)), (F(3, 2), F(0))), (F(7, 4), F(0))),  # the last one
])
def test_grid_point_steps_off_a_forbidden_centre(forbidden, expected):
    # u = x + y and v = x - y in (0, 2): the centre is (u, v) = (1, 1), that
    # is (x, y) = (1, 0); further candidates run towards the corner (2, 2)
    box = ((0, 2), (0, 2))
    pt = _grid_point(box, forbidden)
    assert pt == expected
    assert all(lo < x < hi for (lo, hi), x in zip(box, placement._uv(LINF.facets, pt)))


def test_grid_point_in_an_unbounded_box():
    # u > 3 and v < -1 only: the finite part is (3, 4) x (-2, -1)
    box = ((3, inf), (-inf, -1))
    # centre (u, v) = (7/2, -3/2), (x, y) = (1, 5/2); (1, 2) is on its edge
    assert _grid_point(box, ()) == (F(1), F(5, 2))
    assert _grid_point(box, {(F(1), F(5, 2))}) == (F(5, 4), F(5, 2))


def _block_det(fw, w, j):
    """det of the rows of w's edges on w's columns, from the orbit matrix."""
    b = [row[2 * w:2 * w + 2] for e, row in zip(fw.covectors, orbit_matrix(fw, j)) if e.touches(w)]
    return b[0][0] * b[1][1] - b[0][1] * b[1][0] if len(b) == 2 else 0


@pytest.mark.parametrize("p, j", [(PARAMS_220, 0), (PARAMS_222, 1)], ids=["chi0", "chi1"])
def test_block_certificate_agrees_with_analyse(monkeypatch, p, j):
    rank_checks = []
    monkeypatch.setattr(placement, "analyse",
                        lambda fw, jj: rank_checks.append(1) or analyse(fw, jj))
    initial = ("k1",) if j else None
    seqs = [_grown_sequence(p, seed) for seed in range(8)] + _sequences_with_k4_partway(p, initial)
    certified = 0
    for seq in seqs:
        for fw, mv, child in _steps(seq, j):
            block, w = False, fw.graph.n
            # H1a-c, or a vertex split moving no edge: w and two edges at it
            if child.graph.n == w + 1 and len(child.graph.edges_at(w)) == 2 \
                    and set(fw.graph.edges) <= set(child.graph.edges):
                # [[M, 0], [X, B]] with det B != 0 has rank M + 2, in either character
                for jj in (0, 1):
                    if _block_det(child, w, jj) != 0:
                        assert analyse(child, jj).rank == analyse(fw, jj).rank + 2
                # fw was certified for j, so only det B decides the certificate
                block = placement._block_certified(child, fw, j)
                assert block == (_block_det(child, w, j) != 0)
                assert analyse(child, j).isostatic
                certified += block
            # every other step is ranked by analyse
            rank_checks.clear()
            assert extend_placement(fw, mv, j) == child
            assert rank_checks == ([] if block else [1])
    assert certified > 20


def test_rank_and_colouring_verdicts_must_agree(monkeypatch):
    def dissenting(fw, j):
        return dataclasses.replace(analyse(fw, j), isostatic=False)

    monkeypatch.setattr(placement, "analyse", dissenting)
    with pytest.raises(InvariantViolation, match="disagree"):
        realize(_grown_sequence(PARAMS_220, 0), 0)


def test_block_certificate_needs_a_certified_parent_and_a_nonzero_det():
    # an H1c loop row is zero at character 1, so det B = 0; at (3, -2) the
    # loop has colour 0 and the edge to (1, 2) colour 1
    parent = base_placement("k1")
    h = apply_move(parent.graph, Move("H1c", vertices=(0,), gains=(1,)))
    child = Framework(h, parent.positions + ((F(3), F(-2)),), LINF, 2)
    assert _block_det(child, 1, 1) == 0
    assert not placement._block_certified(child, parent, 1)
    assert not analyse(child, 1).isostatic
    # a parent nobody certified does not count, even where det B != 0
    uncertified = Framework(parent.graph, parent.positions, LINF, 2)
    assert _block_det(child, 1, 0) != 0
    assert placement._block_certified(child, parent, 0) is False
    assert not placement._block_certified(child, uncertified, 1)


# Positions realize gave, before its steps carried the colour classes, the
# covering set and the covector table, for sequences grown like
# _grown_sequence ((2,2,0) from a random base at character 0, (2,2,2) from
# k1 at character 1, seeds 1-7, 16 to 64 vertices: every move kind), both
# regression fixtures, and three forward sequences of perfbench's generator
# (gen.forward_sequence(Random(s), n, regime) for s, n, regime = 267020169,
# 28, "220"; 2819268332, 22, "222"; 2928485758, 22, "222") whose regions
# often have a forbidden centre, the last one where the point rule's next
# candidate decides the position.  A change meant to move positions must
# regenerate the file; any other change must reproduce it exactly.
GOLDEN = load_json(DATA / "realize_positions.json")["cases"]


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{c['sequence']['counts']}-{i}" for i, c in enumerate(GOLDEN)])
def test_realize_reproduces_golden_positions(case):
    fw = realize(sequence_from_dict(case["sequence"]), case["character"])
    assert [[str(x), str(y)] for x, y in fw.positions] == case["positions"]


def test_golden_sequences_cover_every_move_kind():
    kinds = {step["kind"] for case in GOLDEN for step in case["sequence"]["steps"]}
    assert kinds == set(ALL_KINDS)


def test_growing_onto_an_old_covering_position_raises():
    # grown from a parent, only the appended position is checked, against
    # the parent's covering set: +-p of any old p is still refused
    parent = base_placement("a")
    h = apply_move(parent.graph, Move("H1a", vertices=(0, 1), gains=(1, -1)))
    for p in parent.positions:
        for q in (p, (-p[0], -p[1])):
            with pytest.raises(FrameworkError, match="distinct"):
                Framework(h, parent.positions + (q,), LINF, 2, parent)
            with pytest.raises(FrameworkError, match="distinct"):
                Framework(h, parent.positions + (q,), LINF, 2)
    with pytest.raises(FrameworkError, match="rotation centre"):
        Framework(h, parent.positions + ((F(0), F(0)),), LINF, 2, parent)
    grown = Framework(h, parent.positions + ((F(5), F(1)),), LINF, 2, parent)
    assert grown.covering == Framework(h, grown.positions, LINF, 2).covering
    assert len(grown.covering) == 2 * h.n


@pytest.mark.parametrize("p, j", [(PARAMS_220, 0), (PARAMS_222, 1)], ids=["chi0", "chi1"])
def test_realize_under_l1(p, j):
    # (x, y) -> ((x + y)/2, (x - y)/2) maps the l-infinity ball onto the l1
    # ball: the image keeps every edge's length and colour, and both oracles
    # verify it again under L1
    for seed in range(4):
        seq = _grown_sequence(p, seed, initial=("k1",) if j else None)
        linf, l1 = realize(seq, j), realize(seq, j, norm=L1)
        assert l1.norm == L1 and l1.graph == linf.graph
        assert l1.positions == tuple(((x + y) / 2, (x - y) / 2) for x, y in linf.positions)
        for e in l1.graph.edges:
            assert L1.value(l1.edge_delta(e)) == LINF.value(linf.edge_delta(e))
        assert monochrome_quotients(l1) == monochrome_quotients(linf)
        _assert_isostatic(l1, j)
    with pytest.raises(ValueError, match="l1 norm"):
        realize(seq, j, norm=PolyhedralNorm(((1, 0), (1, 1))))
