import random
from pathlib import Path

import pytest

from gainrig import placement
from gainrig.catalog import BASE_CATALOG, PARAMS_220, PARAMS_222
from gainrig.colouring import geometric_verdict
from gainrig.construct import (
    ConstructionSequence,
    _random_move,
    allowed_kinds,
    decompose,
    random_tight,
)
from gainrig.jsonio import load_json, sequence_from_dict
from gainrig.moves import ALL_KINDS, Move, MoveError, apply_move, kept_edge_map
from gainrig.norms import PolyhedralNorm
from gainrig.placement import (
    BASE_PLACEMENTS,
    PlacementError,
    RealisationConfig,
    base_placement,
    extend_placement,
    realize,
)
from gainrig.rigidity import Framework, analyse, well_positioned
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
        usable = [k for k in allowed_kinds(p) if k != "VertexToK4" or n - g.n >= 3]
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

    def counting(fw, j):
        calls.append(fw)
        return verified(fw, j)

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
