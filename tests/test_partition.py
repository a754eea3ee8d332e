"""The matroid partition that construct, random_tight and decompose carry
from each graph to the next (sparsity.Partition.step): a rejected step
leaves it as it found it, its component rule agrees with a whole-graph
count, and no step makes a pass over the whole graph."""

import random

import pytest

from gainrig import sparsity
from gainrig.catalog import PARAMS_220, PARAMS_222, graph_for_base_id, regime
from gainrig.construct import ConstructionSequence, _random_move, construct, decompose, random_tight
from gainrig.graph import GainGraph, edge, signed_components
from gainrig.moves import Move, MoveError, apply_delta, enumerate_reductions, is_admissible, move_delta
from gainrig.sparsity import Partition, SparsityParams, check_sparsity, check_tight, tight_partition

from conftest import two_base_union
from test_forest import all_edges, assert_forest

REGIMES = pytest.mark.parametrize("p", [PARAMS_220, PARAMS_222], ids=["220", "222"])


def _state(part):
    return dict(part.side), list(part.ids), list(part.flips)


def _assert_state(part, state):
    """part holds state's sides and id map, and each forest is a valid
    forest of exactly its side's edges."""
    side, ids, flips = state
    assert (part.side, part.ids, part.flips) == (side, ids, flips)
    for i, f in enumerate(part.forests):
        assert_forest(f, {e for e, s in side.items() if s == i})


def _forward_steps(p, rng, count):
    """(partition, next graph, delta) for random moves from unions of bases,
    each step taken on the partition as the last accepted one left it."""
    kinds = regime(p)[0]
    for _ in range(count):
        ids = ["k1"] * rng.randint(1, 4) if p == PARAMS_222 else rng.sample("abcdefgh", rng.randint(1, 3))
        g = ConstructionSequence(p, tuple(ids), ()).initial_graph()
        part = tight_partition(g, p)
        for _ in range(10):
            mv = _random_move(g, kinds, rng)
            if mv is None:
                continue
            try:
                delta = move_delta(g, mv)
                h = apply_delta(g, *delta)
            except MoveError:
                continue
            accepted = yield part, h, delta
            if accepted:
                g = h


@REGIMES
def test_a_rejected_step_leaves_the_partition_as_it_was(p, monkeypatch):
    # every rejected candidate reduction of grown graphs and two-base unions,
    # and every rejected random move, leaves the sides, the id map and each
    # forest as it found them; among them are rejections whose augmenting
    # paths had already moved edges from one side to another
    batches = []
    real_move = Partition._move

    def recording(part, path):
        # each edge's side before the move, and the move
        batches.append(([part.side.get(x) for x, _ in path], path))
        real_move(part, path)

    monkeypatch.setattr(Partition, "_move", recording)
    rng = random.Random(3)
    graphs = [random_tight(n, p, seed) for n in (5, 7, 9) for seed in range(8)]
    graphs += [random_tight(12, p, 6)] + [two_base_union(rng, n, p) for n in (4, 6, 8) for _ in range(8)]
    rejected, shifted = 0, 0

    def attempt(part, take) -> bool:
        nonlocal rejected, shifted
        state = _state(part)
        batches.clear()
        accepted = take()
        if not accepted:
            # the last batch is the roll-back; the ones before it are the step's
            rejected += 1
            shifted += any(side is not None and i is not None for sides, path in batches[:-1]
                           for side, (_, i) in zip(sides, path))
            _assert_state(part, state)
        return accepted

    for g in graphs:
        part = tight_partition(g, p)
        for r in enumerate_reductions(g, regime(p)[0]):
            if attempt(part, lambda: is_admissible(r, part)):
                part = tight_partition(g, p)
    steps = _forward_steps(p, rng, 150)
    accepted = None
    while True:
        try:
            part, h, delta = steps.send(accepted)
        except StopIteration:
            break
        accepted = attempt(part, lambda: part.step(h, *delta))
    assert rejected and shifted


def _components_tight(g, p) -> bool:
    """The whole-graph count: every component has k|V(C)| - m edges."""
    return all(count == p.k * size - p.m for size, count, _ in signed_components(g.n, g.edges)[2])


@REGIMES
def test_component_rule_matches_a_whole_graph_count(p):
    # on random moves from unions of bases, a step is accepted exactly when
    # the next graph is sparse and every component of it is tight by count
    verdicts = set()
    steps = _forward_steps(p, random.Random(5), 150)
    accepted = None
    while True:
        try:
            part, h, delta = steps.send(accepted)
        except StopIteration:
            break
        accepted = part.step(h, *delta)
        assert accepted == (check_sparsity(h, p).passed and _components_tight(h, p))
        verdicts.add(accepted)
    assert verdicts == ({True} if p == PARAMS_220 else {True, False})


def test_sparse_steps_that_are_not_tight_are_rejected():
    # k1 + k1 is (2,2,2)-tight, component by component; an H1a vertex joined
    # to both is sparse with 2|V| - 2 edges overall, but its one component of
    # three vertices needs four edges.  In (2,2,0), dropping an edge of base
    # a leaves it sparse but short of 2|V| edges.
    g = ConstructionSequence(PARAMS_222, ("k1", "k1"), ()).initial_graph()
    delta = move_delta(g, Move("H1a", vertices=(0, 1), gains=(1, -1)))
    base = graph_for_base_id("a")
    cases = [(PARAMS_222, g, apply_delta(g, *delta), delta),
             (PARAMS_220, base, GainGraph(base.n, base.edges[1:]), (base.edges[:1], []))]
    for p, g, h, delta in cases:
        part = tight_partition(g, p)
        state = _state(part)
        assert check_sparsity(h, p).passed and not _components_tight(h, p)
        assert not part.step(h, *delta)
        _assert_state(part, state)


@REGIMES
def test_steps_make_no_whole_graph_pass(p, monkeypatch):
    # decompose and construct(verify=True) build forests for their first
    # graph only, and sparsity never counts components over a whole graph
    g = random_tight(100, p, seed=2)
    seq = decompose(g, p)[0]
    calls = {"signed_components": 0, "_Forest": 0}
    real_count, real_init = sparsity.signed_components, sparsity._Forest.__init__

    def count(*args):
        calls["signed_components"] += 1
        return real_count(*args)

    def init(forest, *args):
        calls["_Forest"] += 1
        real_init(forest, *args)

    monkeypatch.setattr(sparsity, "signed_components", count)
    monkeypatch.setattr(sparsity._Forest, "__init__", init)
    for run in (lambda: decompose(g, p), lambda: construct(seq, verify=True)):
        run()
        assert calls == {"signed_components": 0, "_Forest": p.k}
        calls.update(dict.fromkeys(calls, 0))


def _circuit_first_insert(part, y):
    """Partition.insert as it was before _Forest.independent: each reached
    edge's circuit is read on each other side in turn, and the first side
    where it is None takes the edge; the test's oracle."""
    label = {y: None}
    queue = [y]
    for x in queue:
        for i, forest in enumerate(part.forests):
            if part.side.get(x) == i:
                continue
            circuit = forest.circuit(x)
            if circuit is None:
                path = [(x, i)]
                while label[x] is not None:
                    x, i = label[x]
                    path.append((x, i))
                part._move(path)
                return None
            for z in circuit:
                if z not in label:
                    label[z] = (x, i)
                    queue.append(z)
    return queue


@pytest.mark.parametrize("counts", [(2, 2, 0), (2, 2, 2), (3, 3, 1)])
def test_insert_matches_the_circuit_first_search(counts):
    # on random edge sequences, loops among them, insert leaves the same
    # sides, the same journal of the edges it moved (reset before each
    # insert, as a step does) and the same forests as the circuit-first
    # search, and a blocked edge reaches the same edges
    p = SparsityParams(*counts)
    rng = random.Random(str(counts))
    blocked = moved = 0
    for n in (3, 5, 8, 12):
        pool = all_edges(n)
        for _ in range(6):
            part, oracle = Partition(n, p), Partition(n, p)
            for y in rng.sample(pool, min(len(pool), p.k * n + 4)):
                sides = dict(part.side)
                part.before, oracle.before = {}, {}
                reached = part.insert(y)
                assert reached == _circuit_first_insert(oracle, y)
                assert list(part.side.items()) == list(oracle.side.items())
                assert list(part.before.items()) == list(oracle.before.items())
                blocked += reached is not None
                moved += any(part.side.get(x) != i for x, i in sides.items())
            for f, o in zip(part.forests, oracle.forests):
                assert (f.root, f.parent, f.extra) == (o.root, o.parent, o.extra)
    assert blocked and moved


def test_free_edges_read_no_circuit(monkeypatch):
    # two spanning trees, the first's edges inserted before the second's:
    # side 0 takes each of the first, side 1 each of the second, with no
    # circuit read; the circuit-first search reads one per edge and side
    # tried (two for each edge of the second), and the union is
    # (2,2,2)-tight
    rng = random.Random(11)
    n = 40
    trees = []
    for gain in (1, -1):
        order = rng.sample(range(n), n)
        trees.append([edge(order[i], order[rng.randrange(i)], gain) for i in range(1, n)])
    calls = []
    real = sparsity._Forest.circuit

    def circuit(forest, x):
        calls.append(x)
        return real(forest, x)

    monkeypatch.setattr(sparsity._Forest, "circuit", circuit)
    part, oracle = Partition(n, PARAMS_222), Partition(n, PARAMS_222)
    for i, tree in enumerate(trees):
        for y in tree:
            assert part.insert(y) is None and part.side[y] == i
    assert calls == []
    for y in trees[0] + trees[1]:
        assert _circuit_first_insert(oracle, y) is None
    assert calls == trees[0] + [y for y in trees[1] for _ in range(2)]
    g = GainGraph(n, tuple(sorted(trees[0] + trees[1])))
    assert check_sparsity(g, PARAMS_222).passed and check_tight(g, PARAMS_222)
