import random
import sys
from dataclasses import replace

import pytest

from gainrig.catalog import BASE_CATALOG, PARAMS_220, PARAMS_222, is_base_graph, regime
from gainrig.construct import (
    ConstructionSequence,
    NoAdmissibleReduction,
    NotTight,
    _match_components,
    _random_move,
    construct,
    decompose,
    random_tight,
)
from gainrig.graph import Edge, GainGraph, InvariantViolation
from gainrig.iso import apply_iso, are_isomorphic
from gainrig.moves import (
    KINDS_222, Move, MoveError, apply_move, apply_reduction, enumerate_reductions, is_admissible,
)
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


def test_decompose_empty_graph():
    # the empty graph is (2,2,0)-tight, built by the empty sequence; it is
    # two edges short of (2,2,2)-tight
    empty = GainGraph(0, ())
    seq, pi, signs = decompose(empty, PARAMS_220)
    assert (seq, pi, signs) == (ConstructionSequence(PARAMS_220, (), ()), (), ())
    assert construct(seq, verify=True) == empty
    with pytest.raises(NotTight):
        decompose(empty, PARAMS_222)


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
    checked, built = [], []
    real_step, real_spliced = Partition.step, GainGraph.spliced

    def first(g, params):
        part = tight_partition(g, params)
        assert_partition(g, part, p)
        checked.append(g)
        return part

    def spliced(g, *delta):
        built.append(real_spliced(g, *delta))
        return built[-1]

    def step(part, *delta):
        assert real_step(part, *delta)
        assert_partition(built[-1], part, p)
        checked.append(built[-1])
        return True

    # gainrig.construct names the functions, so take the module itself.
    monkeypatch.setattr(sys.modules["gainrig.construct"], "tight_partition", first)
    monkeypatch.setattr(GainGraph, "spliced", spliced)
    monkeypatch.setattr(Partition, "step", step)
    kinds = set()
    for seq in seqs:
        checked.clear()
        construct(seq, verify=True)
        assert len(checked) == len(seq.steps) + 1
        kinds.update(mv.kind for mv in seq.steps)
    assert "VertexToK4" in kinds


@pytest.mark.parametrize("p", [PARAMS_220, PARAMS_222], ids=["220", "222"])
def test_tree_size_gate_skips_no_match(p):
    # at every step of decompose's reduction chain, the gate of
    # _match_components (a tree of a side on more vertices than the largest
    # base) fires only where a whole-graph pass finds a component that is
    # not a base, and the gated match agrees with that pass
    kinds, bases = regime(p)
    largest = max(b.n for b in bases.values())
    graphs = [random_tight(n, p, seed) for n in (6, 12, 24) for seed in range(4)]
    graphs += [two_base_union(random.Random(n), n, p) for n in (8, 16)]
    skipped = steps = 0
    for g in graphs:
        part, cur, dead = tight_partition(g, p), g, set()
        while True:
            live = [c for c in cur.components() if c[0] not in dead]
            ungated = all(is_base_graph(cur.subgraph(c), p) is not None for c in live)
            gated = any(max(f.size.values()) > largest for f in part.forests)
            assert not (gated and ungated)
            assert (_match_components(cur, p, largest, part, dead) is not None) == ungated
            skipped, steps = skipped + gated, steps + 1
            if ungated:
                break
            r = next(r for r in enumerate_reductions(cur, kinds) if is_admissible(r, part))
            cur, dead = apply_reduction(cur, r), dead | set(r.dropped)
    assert 0 < skipped < steps


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
        mv2, sign = real(mv, pi, signs)
        if mv2.kind == "H1a" and not corrupted:
            a, b = mv2.vertices
            if corrupt == "gain":
                mv2 = replace(mv2, gains=(-mv2.gains[0], mv2.gains[1]))
            else:
                mv2 = replace(mv2, vertices=(a, next(x for x in range(max(pi)) if x not in (a, b))))
            corrupted.append(mv2)
        return mv2, sign

    monkeypatch.setattr(sys.modules["gainrig.construct"], "translate_move", translate)
    with pytest.raises(InvariantViolation, match="replay of H1a diverged"):
        decompose(g, PARAMS_220)
    assert corrupted


@pytest.mark.parametrize("p", [PARAMS_220, PARAMS_222], ids=["220", "222"])
def test_reduction_steps_build_only_their_delta(p, monkeypatch):
    # within decompose's reduction steps (the candidate search, the carried
    # admissibility test and the splice of the accepted reduced graph) no
    # graph is validated as a whole, and the edges built per step average
    # under the same constant at n = 100 and at n = 400: each candidate is
    # checked by its added edges alone
    module = sys.modules["gainrig.construct"]
    inside, built, post = [False], [0], [0]
    real_new, real_post = Edge.__new__, GainGraph.__post_init__

    def new(cls, *args):
        built[0] += inside[0]
        return real_new(cls, *args)

    def post_init(g):
        post[0] += inside[0]
        real_post(g)

    def within(fn):
        def call(*args):
            inside[0] = True
            try:
                return fn(*args)
            finally:
                inside[0] = False
        return call

    real_search = module.enumerate_reductions

    def search(*args):
        found = real_search(*args)
        while (r := within(next)(found, None)) is not None:
            yield r

    steps = []
    monkeypatch.setattr(Edge, "__new__", new)
    monkeypatch.setattr(GainGraph, "__post_init__", post_init)
    monkeypatch.setattr(module, "enumerate_reductions", search)
    monkeypatch.setattr(module, "is_admissible", within(module.is_admissible))
    monkeypatch.setattr(module, "apply_reduction", lambda *args: steps.append(1) or within(apply_reduction)(*args))
    for n in (100, 400):
        for seed in range(2):
            g = two_base_union(random.Random(seed), n, p)
            built[0], steps[:] = 0, []
            decompose(g, p)
            assert post[0] == 0
            assert len(steps) >= n - 6 and built[0] <= 8 * len(steps), (n, seed, built[0])
