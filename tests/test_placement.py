import dataclasses
import random
from collections import Counter
from fractions import Fraction as F
from itertools import product, takewhile
from math import inf
from pathlib import Path

import pytest

from gainrig import colouring, graph, iso, placement, rigidity, sparsity
from gainrig.catalog import BASE_CATALOG, PARAMS_220, PARAMS_222, regime
from gainrig.colouring import geometric_verdict, isostatic_classes, monochrome_quotients
from gainrig.construct import (
    ConstructionSequence,
    _random_move,
    decompose,
    random_tight,
)
from gainrig.graph import GainGraph, InvariantViolation, edge
from gainrig.jsonio import load_json, sequence_from_dict
from gainrig.linalg import matrix_rank
from gainrig.moves import ALL_KINDS, Move, MoveError, apply_move, move_delta
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
    point_key,
    well_positioned,
)
from gainrig.sparsity import tight_partition

from conftest import perfbench_gen
from test_forest import assert_forest

ROOT = Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"


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


@pytest.mark.parametrize("p, ids, j", [(PARAMS_220, ("a",), 1), (PARAMS_220, ("a", "b"), 1),
                                       (PARAMS_222, ("k1",), 0)], ids=["a", "a+b", "k1"])
def test_realize_rejects_a_character_its_counts_cannot_reach(monkeypatch, p, ids, j):
    # 2n edges, (2,2,0), are isostatic only for character 0 and 2n - 2,
    # (2,2,2), only for character 1: a usage error before anything is placed
    monkeypatch.setattr(placement, "Framework", None)
    with pytest.raises(ValueError, match=f"place for character {1 - j}, not {j}"):
        realize(ConstructionSequence(p, ids, ()), j)


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
        if part.step(*move_delta(g, mv)):
            g, steps = h, steps + [mv]
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

    def counting(fw, j, *args):
        calls.append(fw)
        return verified(fw, j, *args)

    verified = placement._verified
    monkeypatch.setattr(placement, "_verified", counting)
    for seed in range(5):
        seq = _grown_sequence(p, seed, initial=initial)
        calls.clear()
        realize(seq, j)
        assert len(calls) == 1 + len(seq.steps)


@pytest.mark.parametrize("p, j, initial", BASES, ids=["single", "union", "k1"])
def test_each_edge_is_coloured_once(monkeypatch, p, j, initial):
    # the covector table is the only caller of facet_of, and a one-vertex
    # step grows its table from the framework before it: one call per edge
    # of the base framework, then one per edge at the vertex each one-vertex
    # step creates and one per edge of each vertex-to-K4 child, whose table
    # is built fresh
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
        new_edges = [len(h.edges) if mv.kind == "VertexToK4" else sum(e.v == h.n - 1 for e in h.edges)
                     for h, mv in zip(graphs[1:], seq.steps)]
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
            assert orbit_matrix(fw, j) == orbit_matrix(fresh, j)
            assert fw.covering == fresh.covering and fw.classes == fresh.classes


@pytest.mark.parametrize("p, j, initial", BASES, ids=["single", "union", "k1"])
def test_a_step_takes_its_parents_tables_and_the_parent_builds_them_again(p, j, initial):
    # a one-vertex child holds its parent's covector table, orbit rows and
    # covering set, the same objects edited in place, so no table is
    # copied, and no colour classes: its step read them from the forests;
    # the parent no longer holds the tables and, asked again, builds each
    # equal to a fresh framework's
    seqs = [_grown_sequence(p, seed, initial=initial) for seed in range(3)]
    seqs += _sequences_with_k4_partway(p, initial, wanted=1)
    taken = 0
    for seq in seqs:
        fw = realize(ConstructionSequence(seq.params, seq.initial, ()), j)
        for mv in seq.steps:
            covectors, rows, covering = fw.covectors, dict(fw.rows), fw.covering
            parent, fw = fw, extend_placement(fw, mv, j)
            if mv.kind != "VertexToK4":
                assert fw.covectors is covectors and fw.covering is covering
                assert "classes" not in fw.__dict__
                assert fw.rows.keys() == rows.keys() and all(fw.rows[c] is r for c, r in rows.items())
                assert not parent.rows and not {"covectors", "covering"} & parent.__dict__.keys()
                taken += 1
            fresh = Framework(parent.graph, parent.positions, parent.norm, parent.group_order)
            assert parent.covectors == fresh.covectors and parent.classes == fresh.classes
            assert parent.covering == fresh.covering
            for c in (0, 1):
                assert orbit_rows(parent, c) == orbit_rows(fresh, c)
    assert taken > 20


@pytest.mark.parametrize("norm", [LINF, L1], ids=["linf", "l1"])
@pytest.mark.parametrize("p, j, initial", BASES, ids=["single", "union", "k1"])
def test_carried_orbit_rows_match_fresh_ones(p, j, initial, norm):
    # a one-vertex step takes the row of every edge it keeps, the same
    # object, from the framework before it and builds rows for w's edges
    # only; a vertex-to-K4 renames edges, so it builds all its rows again.
    # The parent's rows are recorded before the step, which takes them.
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
            before = {c: dict(rows) for c, rows in fw.rows.items()}
            parent, fw = fw, extend_placement(fw, mv, j)
            fresh = Framework(fw.graph, fw.positions, fw.norm, fw.group_order)
            # the step's own character, and the other one analysed below
            # unless the step renamed edges
            k4 = mv.kind == "VertexToK4"
            assert set(fw.rows) == ({j} if k4 else set(before)) and j in fw.rows
            w = parent.graph.n
            for c, rows in fw.rows.items():
                assert rows == orbit_rows(fresh, c)
                kept = {e for e, row in rows.items() if row is before[c].get(e)}
                assert kept == (set() if k4 else {e for e in rows if not e.touches(w)})
                shared += len(kept)
            for c in (0, 1):
                assert analyse(fw, c) == analyse(fresh, c)
    assert shared > 0


@pytest.mark.parametrize("p, j, initial", BASES, ids=["single", "union", "k1"])
def test_analyse_ranks_grown_rows_in_edge_order(monkeypatch, p, j, initial):
    # a grown table holds the new vertex's rows last; analyse hands the rows
    # to matrix_rank in edge order, on which the elimination's fill-in
    # depends, as it does for a fresh table
    ranked = []
    monkeypatch.setattr(rigidity, "matrix_rank", lambda rows: ranked.append(rows) or matrix_rank(rows))
    seq = next(s for s in (_grown_sequence(p, seed, initial=initial) for seed in range(20))
               if all(mv.kind != "VertexToK4" for mv in s.steps[:4]))
    fw = realize(ConstructionSequence(seq.params, seq.initial, ()), j)
    for mv in seq.steps[:4]:
        fw = extend_placement(fw, mv, j)
    assert list(orbit_rows(fw, j)) != list(fw.graph.edges)
    fresh = Framework(fw.graph, fw.positions, fw.norm, fw.group_order)
    ranked.clear()
    assert analyse(fw, j) == analyse(fresh, j)
    assert ranked == [[orbit_rows(fresh, j)[e] for e in fw.graph.edges]] * 2


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


def _rows(fw, edges, j):
    """fw's character-j rows of these edges: the rows D a step deleting them
    hands to placement._rank_certified."""
    return [orbit_rows(fw, j)[e] for e in edges]


def _path_first(fw, mv, new):
    """Every colouring of w's edges new, in placement's search order: first
    those that give each deleted edge (x, y, g) its colour in fw on the new
    (x, w, a) and (w, y, b) with a * b = g (a new edge two deleted edges
    want in different colours takes either), then the others, each group in
    product((0, 1)) order."""
    _, deleted, _, _ = move_delta(fw.graph, mv)
    wants = [set() for _ in new]
    for d in deleted:
        p, q = fw.positions[d.u], fw.positions[d.v]
        colour, _ = LINF.facet_of((p[0] - d.gain * q[0], p[1] - d.gain * q[1]))
        paths = [(a, b) for a, ea in enumerate(new) for b, eb in enumerate(new)
                 if not ea.is_loop() and not eb.is_loop() and ea.touches(d.u) and eb.touches(d.v)
                 and ea.gain * eb.gain == d.gain]
        for i in paths[0] if paths else ():
            wants[i].add(colour)
    every = list(product((0, 1), repeat=len(new)))
    on_paths = [cs for cs in every if all(c in s for c, s in zip(cs, wants) if len(s) == 1)]
    return on_paths + [cs for cs in every if cs not in on_paths]


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
            for colours in _path_first(fw, mv, new):
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
    the given points (by their keys)."""
    return placement._grid_point(box, LINF.facets, 1, {point_key(p) for p in forbidden}.__contains__,
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
    b = [row[2 * w:2 * w + 2] for e, row in zip(fw.graph.edges, orbit_matrix(fw, j)) if e.touches(w)]
    return b[0][0] * b[1][1] - b[0][1] * b[1][0] if len(b) == 2 else 0


def _counting_analyse(monkeypatch):
    """The list that gets one entry per call placement makes to analyse."""
    calls = []
    monkeypatch.setattr(placement, "analyse", lambda fw, j: calls.append(1) or analyse(fw, j))
    return calls


def _certificate_sequences(p, j):
    """Grown, decomposed and golden sequences of regime p at character j,
    between them every move kind of the regime."""
    initial = ("k1",) if j else None
    seqs = [_grown_sequence(p, seed, initial=initial) for seed in range(6)]
    seqs += _sequences_with_k4_partway(p, initial)
    seqs += [decompose(random_tight(16, p, seed=seed), p)[0] for seed in range(3)]
    return seqs + [sequence_from_dict(c["sequence"]) for c in GOLDEN if c["character"] == j]


@pytest.mark.parametrize("p, j", [(PARAMS_220, 0), (PARAMS_222, 1)], ids=["chi0", "chi1"])
def test_rank_certificate_agrees_with_analyse(monkeypatch, p, j):
    rank_checks = _counting_analyse(monkeypatch)
    kinds, certified = set(), Counter()
    for seq in _certificate_sequences(p, j):
        for fw, mv, child in _steps(seq, j):
            kinds.add(mv.kind)
            _, deleted, added, _ = move_delta(fw.graph, mv)
            cert = placement._rank_certified(child, fw, _rows(fw, deleted, j), sorted(added), j)
            if cert:  # a certified step is isostatic by the rank oracle
                assert analyse(child, j).isostatic
                certified[mv.kind] += 1
            if not deleted and mv.kind != "VertexToK4":
                # D empty: the certificate is the 2x2 block test it replaced
                assert cert == (_block_det(child, fw.graph.n, j) != 0)
            # every H1 and H2 step is certified, an H2 step by its path
            # first colouring
            assert cert or not mv.kind.startswith(("H1", "H2"))
            # placement ranks by analyse exactly the steps not certified
            rank_checks.clear()
            assert extend_placement(fw, mv, j) == child
            assert rank_checks == ([] if cert else [1])
    assert kinds == set(regime(p)[0])
    # every kind but vertex-to-K4 is certified somewhere, not only H1
    assert set(certified) == kinds - {"VertexToK4"}
    assert sum(n for kind, n in certified.items() if not kind.startswith("H1")) > 40


def test_a_step_whose_deleted_rows_are_not_in_span_n_calls_analyse_once(monkeypatch):
    # both edges this H3b deletes from base b have colour 1, so its one path
    # first colouring puts all four new edges in class 1, two more than a
    # basis holds; the colouring taken leaves a path
    parent = base_placement("b")
    mv = Move("H3b", vertices=(1, 0, 2), removed=(edge(0, 1, 1), edge(1, 2, 1)))
    _, deleted, added, _ = move_delta(parent.graph, mv)
    assert [LINF.colours[parent.covectors[e]] for e in deleted] == [1, 1]
    assert _path_first(parent, mv, sorted(added))[:2] == [(1, 1, 1, 1), (0, 0, 0, 0)]
    calls = _counting_analyse(monkeypatch)
    child = extend_placement(parent, mv, 0)
    assert calls == [1] and analyse(child, 0).isostatic
    assert [LINF.colours[child.covectors[e]] for e in sorted(added)] == [1, 0, 1, 1]
    assert not placement._rank_certified(child, parent, _rows(parent, deleted, 0), sorted(added), 0)
    # N has rank 2 on w's columns, but adding the deleted rows raises its rank
    rows, w = orbit_rows(child, 0), parent.graph.n
    n = [rows[e] for e in child.graph.edges_at(w)]
    assert matrix_rank([{c: x for c, x in r.items() if c >= 2 * w} for r in n]) == 2
    assert matrix_rank(n + [orbit_rows(parent, 0)[e] for e in deleted]) > matrix_rank(n)


@pytest.mark.parametrize("regime_name, j", [("220", 0), ("222", 1)])
def test_forward_sequence_steps_never_call_analyse(monkeypatch, regime_name, j):
    # every step of perfbench's forward sequences is an H1 or H2 step, and
    # each is certified by its path first colouring: analyse ranks the base
    gen = perfbench_gen()
    calls = _counting_analyse(monkeypatch)
    for seed in (1, 2):
        seq, g = gen.forward_sequence(random.Random(seed), 100, regime_name)
        assert {mv.kind[:2] for mv in seq.steps} == {"H1", "H2"}
        calls.clear()
        assert realize(seq, j).graph == g and calls == [1]


def test_rank_certificate_needs_a_certified_parent_and_a_nonzero_block():
    # an H1c loop row is zero at character 1, so N has rank 1 on w's
    # columns; at (3, -2) the loop has colour 0 and the edge to (1, 2) colour 1
    parent = base_placement("k1")
    h = apply_move(parent.graph, Move("H1c", vertices=(0,), gains=(1,)))
    child = Framework(h, parent.positions + ((F(3), F(-2)),), LINF, 2)
    new = child.graph.edges_at(1)
    assert _block_det(child, 1, 1) == 0
    assert not placement._rank_certified(child, parent, (), new, 1)
    assert not analyse(child, 1).isostatic
    # a parent nobody certified for the character does not count, even where
    # the block is nonsingular
    assert _block_det(child, 1, 0) != 0
    assert placement._rank_certified(child, parent, (), new, 0) is False
    assert placement._rank_certified(child, None, (), new, 0) is False


def test_uncertified_parents_and_vertex_to_k4_go_to_analyse(monkeypatch):
    calls = _counting_analyse(monkeypatch)
    parent = base_placement("a")
    mv = Move("H1a", vertices=(0, 1), gains=(1, -1))
    calls.clear()
    certified = extend_placement(parent, mv, 0)
    assert calls == []
    uncertified = Framework(parent.graph, parent.positions, LINF, 2)
    assert extend_placement(uncertified, mv, 0) == certified and calls == [1]
    for p, j, initial in ((PARAMS_220, 0, None), (PARAMS_222, 1, ("k1",))):
        seq = _sequences_with_k4_partway(p, initial, wanted=1)[0]
        k4 = [(fw, mv, child) for fw, mv, child in _steps(seq, j) if mv.kind == "VertexToK4"]
        for fw, mv, child in k4:
            _, deleted, added, _ = move_delta(fw.graph, mv)
            assert not placement._rank_certified(child, fw, _rows(fw, deleted, j), sorted(added), j)
            calls.clear()
            assert extend_placement(fw, mv, j) == child and calls == [1]
        assert k4


def test_a_parent_whose_classes_are_not_bases_is_refused():
    # the step's forests hold bases only: a well-positioned parent with a
    # dependent class (three edges in colour 0 on two vertices) is bad input
    parent = Framework(base_placement("a").graph, ((F(-3), F(-2)), (F(-3), F(-1))), LINF, 2)
    assert [len(c) for c in parent.classes] == [3, 1]
    with pytest.raises(PlacementError, match="not bases for character 0"):
        extend_placement(parent, Move("H1a", vertices=(0, 1), gains=(1, -1)), 0)


def test_golden_sequences_rank_few_steps_by_analyse(monkeypatch):
    # 264 calls when only H1 steps were certified (by their 2x2 block);
    # 149 with the local certificate; 88 with path first colourings: the
    # 19 bases, 46 vertex-to-K4 steps, and 9 H3 and 14 vertex split steps
    calls = _counting_analyse(monkeypatch)
    for case in GOLDEN:
        realize(sequence_from_dict(case["sequence"]), case["character"])
    assert len(calls) <= 88


def test_rank_and_colouring_verdicts_must_agree(monkeypatch):
    def dissenting(fw, j):
        return dataclasses.replace(analyse(fw, j), isostatic=False)

    monkeypatch.setattr(placement, "analyse", dissenting)
    with pytest.raises(InvariantViolation, match="disagree"):
        realize(_grown_sequence(PARAMS_220, 0), 0)


# Positions realize gives with path first colourings, for sequences grown like
# _grown_sequence ((2,2,0) from a random base at character 0, (2,2,2) from
# k1 at character 1, seeds 1-7, 16 to 64 vertices: every move kind), both
# regression fixtures, and three forward sequences of perfbench's generator
# (gen.forward_sequence(Random(s), n, regime) for s, n, regime = 267020169,
# 28, "220"; 2819268332, 22, "222"; 2928485758, 22, "222") whose regions
# often have a forbidden centre, the last one where the point rule's next
# candidate decides the position.  A change meant to move positions must
# regenerate the file (realize each case's sequence at its character and
# write its positions as [str(x), str(y)] pairs, keeping the sequences);
# any other change must reproduce it exactly.
GOLDEN = load_json(DATA / "realize_positions.json")["cases"]


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{c['sequence']['counts']}-{i}" for i, c in enumerate(GOLDEN)])
def test_realize_reproduces_golden_positions(case):
    fw = realize(sequence_from_dict(case["sequence"]), case["character"])
    assert [[str(x), str(y)] for x, y in fw.positions] == case["positions"]


def test_golden_sequences_cover_every_move_kind():
    kinds = {step["kind"] for case in GOLDEN for step in case["sequence"]["steps"]}
    assert kinds == set(ALL_KINDS)


def _h1a_step(parent):
    """The graph an H1a step at vertices 0, 1 makes from parent's, and the
    step (parent, deleted, added) that grows a framework on it."""
    mv = Move("H1a", vertices=(0, 1), gains=(1, -1))
    _, deleted, added, _ = move_delta(parent.graph, mv)
    return apply_move(parent.graph, mv), (parent, deleted, sorted(added))


def test_growing_onto_an_old_covering_position_raises():
    # grown by a step, only the appended position is checked, against
    # the parent's covering set: +-p of any old p is still refused
    parent = base_placement("a")
    h, step = _h1a_step(parent)
    for p in parent.positions:
        for q in (p, (-p[0], -p[1])):
            with pytest.raises(FrameworkError, match="distinct"):
                Framework(h, parent.positions + (q,), LINF, 2, step)
            with pytest.raises(FrameworkError, match="distinct"):
                Framework(h, parent.positions + (q,), LINF, 2)
    with pytest.raises(FrameworkError, match="rotation centre"):
        Framework(h, parent.positions + ((F(0), F(0)),), LINF, 2, step)
    grown = Framework(h, parent.positions + ((F(5), F(1)),), LINF, 2, step)
    assert grown.covering == Framework(h, grown.positions, LINF, 2).covering
    assert len(grown.covering) == 2 * h.n


def test_a_refused_step_takes_nothing():
    # every refusal comes before the parent's tables are taken: its
    # covering set, covector table and rows of both characters stay with it
    # and equal a fresh framework's
    parent = base_placement("a")
    for c in (0, 1):
        orbit_rows(parent, c)
    held = parent.covering, parent.covectors, dict(parent.rows)
    h, step = _h1a_step(parent)
    (p, q), free = parent.positions, (F(5), F(1))
    refused = [
        (h, (p, (-q[0], -q[1]), free), "appends one position"),  # not a prefix
        (GainGraph(h.n + 1, h.edges), (p, q, free, (F(7), F(1))), "appends one position"),  # n + 2 vertices
        (h, (p, q, p), "distinct"),
        (h, (p, q, (-p[0], -p[1])), "distinct"),
        (h, (p, q, (F(0), F(0))), "rotation centre"),
        (h, (p, q, (p[0] + 1, p[1] + 1)), "edge \\[0, 2, 1\\]"),  # on the cone boundary from p
    ]
    for g, positions, message in refused:
        with pytest.raises(FrameworkError, match=message):
            Framework(g, positions, LINF, 2, step)
        assert (parent.covering, parent.covectors, parent.rows) == held
        assert all(a is b for a, b in zip(held[:2], (parent.covering, parent.covectors)))
        assert all(parent.rows[c] is rows for c, rows in held[2].items())
    fresh = Framework(parent.graph, parent.positions, LINF, 2)
    assert parent.covering == fresh.covering and parent.covectors == fresh.covectors
    assert all(parent.rows[c] == orbit_rows(fresh, c) for c in (0, 1))
    grown = Framework(h, (p, q, free), LINF, 2, step)
    assert grown.covectors is held[1] and not parent.rows


@pytest.mark.parametrize("j", [2, -1, True, False, 0.0, 1.0, "0", None])
def test_realize_and_extend_placement_refuse_a_bad_character(j):
    mv = Move("H1a", vertices=(0, 1), gains=(1, -1))
    seq, fw = ConstructionSequence(PARAMS_220, ("a",), (mv,)), base_placement("a")
    for call in (lambda: realize(seq, j), lambda: extend_placement(fw, mv, j)):
        with pytest.raises(ValueError, match="character must be 0 or 1"):
            call()


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


@pytest.mark.parametrize("p, j", [(PARAMS_220, 0), (PARAMS_222, 1)], ids=["chi0", "chi1"])
def test_class_forests_match_isostatic_classes_on_every_step(p, j):
    # every colouring of each one-vertex step's new edges, tested on the
    # parent's class forests less the deleted edges, is accepted exactly
    # when isostatic_classes accepts the whole classes; a refused colouring
    # is rolled back, and so is an accepted one here, to the kept classes
    tried = Counter()
    for seq in _certificate_sequences(p, j):
        for fw, mv, child in _steps(seq, j):
            if mv.kind == "VertexToK4":
                continue
            _, deleted, added, _ = move_delta(fw.graph, mv)
            new = sorted(added)
            kept = [[e for e in cls if e not in deleted] for cls in fw.classes]
            forests = placement._class_forests(fw, j)
            for e in deleted:
                forests[0 if e in fw.classes[0] else 1].remove(e)
            for f in forests:
                f.grow()
            accepted = set()
            for colours in product((0, 1), repeat=len(new)):
                whole = [sorted(k + [e for e, c in zip(new, colours) if c == i])
                         for i, k in enumerate(kept)]
                step = placement._add_coloured(forests, new, colours, child.graph.n - j)
                assert step == isostatic_classes(child.graph, whole, j)
                tried[step] += 1
                if step:
                    accepted.add(colours)
                if step:
                    for f, cls in zip(forests, whole):
                        assert_forest(f, set(cls))
                    for e, c in zip(new, colours):
                        forests[c].remove(e)
                for f, cls in zip(forests, kept):
                    assert_forest(f, set(cls))
            # the step's own colouring is among those accepted
            assert tuple(int(e in child.classes[1]) for e in new) in accepted
    assert tried[True] > 100 and tried[False] > 100, tried


def _spy_whole_graph_work(monkeypatch):
    """A Counter of signed_components calls, GainGraph._incident builds and
    Framework.classes reads from the covector table."""
    calls = Counter()

    def counting(real):
        def call(*args):
            calls["signed_components"] += 1
            return real(*args)
        return call

    def cached(name, build):
        def get(self):
            if name not in self.__dict__:
                calls[name] += 1
                self.__dict__[name] = build(self)
            return self.__dict__[name]
        return property(get)

    for module in (graph, colouring, iso, sparsity):
        monkeypatch.setattr(module, "signed_components", counting(graph.signed_components))
    monkeypatch.setattr(GainGraph, "_incident", cached("_incident", GainGraph._incident.func))
    monkeypatch.setattr(Framework, "classes", cached("classes", Framework.classes.func))
    return calls


@pytest.mark.parametrize("p, j", [(PARAMS_220, 0), (PARAMS_222, 1)], ids=["chi0", "chi1"])
def test_one_vertex_steps_do_no_whole_graph_search(monkeypatch, p, j):
    # realize folds the sequence through extend_placement; a one-vertex
    # step reads its classes from the forests it is handed and its new
    # edges from the move's delta: no graph search, no incidence index and
    # no read of the covector table's classes.  Vertex-to-K4 and the bases
    # do all three, which shows that the spy sees them.
    calls = _spy_whole_graph_work(monkeypatch)
    seen = Counter()
    for seq in _certificate_sequences(p, j):
        fw = realize(ConstructionSequence(seq.params, seq.initial, ()), j)
        seen["bases"] += calls["classes"] > 0 and calls["signed_components"] > 0
        for mv in seq.steps:
            calls.clear()
            fw = extend_placement(fw, mv, j)
            if mv.kind == "VertexToK4":
                seen["k4"] += calls["classes"] > 0 and calls["_incident"] > 0
            else:
                assert not calls, (mv.kind, calls)
                seen["one-vertex"] += 1
        assert fw.positions == realize(seq, j).positions
    assert seen["bases"] and seen["k4"] and seen["one-vertex"] > 200, seen


@pytest.mark.parametrize("p, j", [(PARAMS_220, 0), (PARAMS_222, 1)], ids=["chi0", "chi1"])
def test_two_steps_from_one_parent_give_equal_children(p, j):
    # a step takes the forests its parent carries and hands them on to its
    # child: a second step from the same parent builds its own from the
    # parent's classes, and both children are equal and verified
    for seq in _certificate_sequences(p, j)[:8]:
        fw = realize(ConstructionSequence(seq.params, seq.initial, ()), j)
        for mv in seq.steps:
            carried = fw.forests.get(j)
            first = extend_placement(fw, mv, j)
            second = extend_placement(fw, mv, j)
            assert first == second and first.classes == second.classes
            assert first.certified == second.certified == {j}
            if mv.kind == "VertexToK4":  # renames edges: each child builds its own, the parent keeps its
                assert first.forests.keys() == second.forests.keys() == {j}
                assert first.forests[j] is not second.forests[j]
                assert fw.forests.get(j) is carried
            else:
                assert not fw.forests
                assert first.forests[j] is carried or carried is None
                assert first.forests[j] is not second.forests[j]
            fw = first
        assert fw == realize(seq, j)


def test_class_forests_are_built_once_per_fresh_framework(monkeypatch):
    # the class forests are placement's only colouring verdict: _accept
    # builds them for each fresh framework (the bases, each vertex-to-K4
    # child, the l1 image) and leaves them on it, and a one-vertex step
    # edits its parent's and builds none; every framework realize,
    # base_placement and extend_placement return holds them
    fresh, built = [], []

    def framework(*args):
        fw = Framework(*args)
        if len(args) == 4:  # no step: built fresh
            fresh.append(fw)
        return fw

    def class_forests(fw, j):
        built.append(fw)
        return real_class_forests(fw, j)

    def step(fw, mv, j=0):
        before = len(built)
        child = real_extend(fw, mv, j)
        assert j in child.forests
        assert built[before:] == ([child] if mv.kind == "VertexToK4" else [])
        kinds[mv.kind] += 1
        return child

    real_class_forests, real_extend, kinds = placement._class_forests, placement.extend_placement, Counter()
    monkeypatch.setattr(placement, "Framework", framework)
    monkeypatch.setattr(placement, "_class_forests", class_forests)
    monkeypatch.setattr(placement, "extend_placement", step)
    for bid in [*BASE_PLACEMENTS, "k1"]:
        built.clear()
        fw = base_placement(bid)
        assert built == [fw] and fw.forests.keys() == {int(bid == "k1")}
    cases = [(sequence_from_dict(c["sequence"]), c["character"], LINF) for c in GOLDEN]
    for p, j in ((PARAMS_220, 0), (PARAMS_222, 1)):
        for seed in range(2):
            seq = decompose(random_tight(40, p, seed), p)[0]
            cases += [(seq, j, LINF), (seq, j, L1)]
    for seq, j, norm in cases:
        fresh.clear()
        built.clear()
        fw = realize(seq, j, norm=norm)
        k4 = sum(mv.kind == "VertexToK4" for mv in seq.steps)
        assert len(built) == len(fresh) == 1 + k4 + (norm == L1)
        assert all(a is b for a, b in zip(built, fresh))
        assert fw.forests.keys() == {j}
    assert set(kinds) == set(ALL_KINDS) and kinds["VertexToK4"] > 10, kinds
