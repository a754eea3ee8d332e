import random
import sys
from dataclasses import replace

import pytest

from gainrig.catalog import BASE_CATALOG, PARAMS_220, PARAMS_222, regime
from gainrig.construct import (
    ConstructionSequence,
    NoAdmissibleReduction,
    NotTight,
    _random_move,
    construct,
    decompose,
    random_tight,
)
from gainrig.graph import GainGraph, InvariantViolation
from gainrig.iso import apply_iso, are_isomorphic
from gainrig.moves import KINDS_222, Move, MoveError, apply_move
from gainrig.sparsity import Partition, check_tight, tight_partition

from conftest import assert_partition, two_base_union


def test_empty_sequence_is_base():
    seq = ConstructionSequence(PARAMS_220, ("a",), ())
    assert construct(seq) == BASE_CATALOG["a"]


def test_construct_verifies_intermediates():
    # an H1a landing on one vertex twice is rejected at apply time; a legal
    # H1a keeps tightness
    seq = ConstructionSequence(
        PARAMS_220, ("a",), (Move("H1a", vertices=(0, 1), gains=(1, 1)),)
    )
    g = construct(seq)
    assert g.n == 3 and check_tight(g, PARAMS_220)


def test_construct_rejects_wrong_kind_for_222():
    with pytest.raises(MoveError, match=r"move kind H1c not allowed for \(2, 2, 2\)"):
        ConstructionSequence(PARAMS_222, ("k1",), (Move("H1c", vertices=(0,), gains=(1,)),))


def test_decompose_requires_tight():
    with pytest.raises(NotTight):
        decompose(GainGraph.from_triples(2, [[0, 1, 1]]), PARAMS_220)


def test_decompose_base_is_empty_sequence():
    for bid, g in BASE_CATALOG.items():
        seq, pi, signs = decompose(g, PARAMS_220)
        assert seq.initial == (bid,)
        assert seq.steps == ()
        assert apply_iso(g, pi, signs) == construct(seq)


def test_decompose_disconnected_union():
    g = BASE_CATALOG["a"].union(BASE_CATALOG["c"])
    seq, pi, signs = decompose(g, PARAMS_220)
    assert sorted(seq.initial) == ["a", "c"]
    assert apply_iso(g, pi, signs) == construct(seq)


def test_roundtrip_220():
    for i in range(30):
        g = random_tight(2 + i % 7, PARAMS_220, seed=100 + i)
        seq, pi, signs = decompose(g, PARAMS_220)
        c = construct(seq)
        assert apply_iso(g, pi, signs) == c
        assert are_isomorphic(g, c)


def test_roundtrip_222_restricted_moves():
    for i in range(30):
        g = random_tight(1 + i % 8, PARAMS_222, seed=200 + i)
        seq, pi, signs = decompose(g, PARAMS_222)
        assert seq.initial == ("k1",)
        assert all(m.kind in KINDS_222 for m in seq.steps)
        assert apply_iso(g, pi, signs) == construct(seq)


@pytest.mark.parametrize("p", [PARAMS_220, PARAMS_222], ids=["220", "222"])
@pytest.mark.parametrize("n", [6, 8, 10, 12, 16, 32, 64])
def test_decompose_graphs_not_built_by_moves(p, n):
    # unions of two matroid bases, so the greedy reduction search meets
    # graphs that random_tight's move sequences would not produce
    for seed in range(4):
        g = two_base_union(random.Random(1000 * n + seed), n, p)
        assert check_tight(g, p)
        seq, pi, signs = decompose(g, p)
        assert apply_iso(g, pi, signs) == construct(seq, verify=True)


def test_222_tight_graphs_are_connected_and_loopless():
    for i in range(20):
        g = random_tight(2 + i % 7, PARAMS_222, seed=300 + i)
        assert len(g.components()) == 1
        assert all(not e.is_loop() for e in g.edges)


@pytest.mark.parametrize("p", [PARAMS_220, PARAMS_222], ids=["220", "222"])
def test_random_tight_deterministic(p):
    a = random_tight(6, p, seed=42)
    b = random_tight(6, p, seed=42)
    assert a == b
    assert check_tight(a, p)


@pytest.mark.parametrize("p", [PARAMS_220, PARAMS_222])
@pytest.mark.parametrize("n", [0, -3])
def test_random_tight_needs_a_vertex(p, n):
    with pytest.raises(ValueError, match="n >= 1"):
        random_tight(n, p, seed=0)


def _all_components_tight(g, p):
    """The from-scratch check: every component re-checked on its own."""
    return all(check_tight(g.subgraph(c), p) for c in g.components())


@pytest.mark.parametrize("p, ids", [(PARAMS_220, "abc"), (PARAMS_222, ["k1"])])
def test_incremental_verify_matches_full_recheck(p, ids):
    # tight-preserving random moves, then one unchecked random move, from a
    # union of one or two bases; construct(verify=True) must raise NotTight
    # exactly when the from-scratch check fails on the last graph.  Moves
    # keep (2,2,0) tight; (2,2,2) fails when a move joins two K1 seeds.
    rng = random.Random(2024)
    kinds = regime(p)[0]
    outcomes = set()
    for _ in range(40):
        initial = tuple(rng.choice(ids) for _ in range(rng.randint(1, 2)))
        g = ConstructionSequence(p, initial, ()).initial_graph()
        steps, target = [], rng.randint(1, 4)
        while len(steps) < target:
            mv = _random_move(g, kinds, rng)
            if mv is None:
                continue
            try:
                h = apply_move(g, mv)
            except MoveError:
                continue
            if len(steps) < target - 1 and not _all_components_tight(h, p):
                continue
            steps.append(mv)
            g = h
        expected = _all_components_tight(g, p)
        seq = ConstructionSequence(p, initial, tuple(steps))
        if expected:
            assert construct(seq, verify=True) == g
        else:
            with pytest.raises(NotTight):
                construct(seq, verify=True)
        outcomes.add(expected)
    assert outcomes == ({True} if p == PARAMS_220 else {True, False})


@pytest.mark.parametrize("p", [PARAMS_220, PARAMS_222], ids=["220", "222"])
def test_construct_carries_a_partition_of_every_graph(p, monkeypatch):
    # the partition construct(verify=True) builds for the first graph, and
    # edits in place at each step, is one of that step's graph (named through
    # its stable ids) into two independent sides; it is checked as each step
    # leaves it, since the next step edits it again
    seqs = [decompose(random_tight(12, p, seed), p)[0] for seed in range(6)]
    seqs += [decompose(two_base_union(random.Random(n), n, p), p)[0] for n in (12, 20)]
    checked = []
    real_step = Partition.step

    def first(g, params):
        part = tight_partition(g, params)
        assert_partition(g, part, p)
        checked.append(g)
        return part

    def step(part, g, *delta):
        assert real_step(part, g, *delta)
        assert_partition(g, part, p)
        checked.append(g)
        return True

    # gainrig.construct names the function, so take the module itself.
    monkeypatch.setattr(sys.modules["gainrig.construct"], "tight_partition", first)
    monkeypatch.setattr(Partition, "step", step)
    kinds = set()
    for seq in seqs:
        checked.clear()
        construct(seq, verify=True)
        assert len(checked) == len(seq.steps) + 1
        kinds.update(mv.kind for mv in seq.steps)
    assert "VertexToK4" in kinds


@pytest.mark.parametrize("corrupt", ["gain", "vertex"])
def test_replay_catches_one_corrupted_step(corrupt, monkeypatch):
    # the replay checks each step by the edges it changes, against the psi
    # images of the edges its reduction changed: one H1a translated with a
    # flipped gain, or onto another vertex, still builds a valid graph, but
    # decompose stops with InvariantViolation at that step
    g = random_tight(12, PARAMS_220, seed=1)
    real = sys.modules["gainrig.construct"].translate_move
    corrupted = []

    def translate(mv, pi, signs):
        mv2, ext_pi, ext_signs = real(mv, pi, signs)
        if mv2.kind == "H1a" and not corrupted:
            a, b = mv2.vertices
            if corrupt == "gain":
                mv2 = replace(mv2, gains=(-mv2.gains[0], mv2.gains[1]))
            else:
                mv2 = replace(mv2, vertices=(a, next(x for x in range(len(pi)) if x not in (a, b))))
            corrupted.append(mv2)
        return mv2, ext_pi, ext_signs

    monkeypatch.setattr(sys.modules["gainrig.construct"], "translate_move", translate)
    with pytest.raises(InvariantViolation, match="replay of H1a diverged"):
        decompose(g, PARAMS_220)
    assert corrupted
