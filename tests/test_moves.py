import random

import pytest

from gainrig.catalog import BASE_CATALOG, PARAMS_220, PARAMS_222
from gainrig.construct import _random_move, allowed_kinds, random_tight
from gainrig.graph import GainGraph, edge
from gainrig.iso import apply_iso
from gainrig.moves import (
    ALL_KINDS,
    ARITY,
    H_KINDS,
    Move,
    MoveError,
    apply_move,
    enumerate_reductions,
    is_admissible,
    translate_move,
)
from gainrig.sparsity import check_tight, tight_partition

from conftest import assert_partition, two_base_union


BASE_A = BASE_CATALOG["a"]


def grow(g, rng, steps, kinds=ALL_KINDS):
    for _ in range(steps):
        mv = _random_move(g, kinds, rng)
        if mv is None:
            continue
        try:
            g = apply_move(g, mv)
        except MoveError:
            continue
    return g


def test_h1a_adds_degree_two_vertex():
    g = apply_move(BASE_A, Move("H1a", vertices=(0, 1), gains=(1, -1)))
    assert g.n == 3
    assert g.degree(2) == 2
    assert g.has_edge(edge(0, 2, 1)) and g.has_edge(edge(1, 2, -1))


def test_h1b_parallel_pair():
    g = apply_move(BASE_A, Move("H1b", vertices=(0,)))
    assert g.has_edge(edge(0, 2, 1)) and g.has_edge(edge(0, 2, -1))


def test_h1c_loop():
    g = apply_move(BASE_A, Move("H1c", vertices=(1,), gains=(-1,)))
    assert g.loop_at(2) is not None


def test_h2a_gain_constraint():
    g = GainGraph.from_triples(3, [[0, 1, -1], [1, 2, 1], [0, 2, 1], [0, 0, -1], [1, 1, -1], [2, 2, -1]])
    mv = Move("H2a", removed=(edge(0, 1, -1),), vertices=(0, 2), gains=(1, 1))
    h = apply_move(g, mv)
    assert not h.has_edge(edge(0, 1, -1))
    # subdivided edge: gains multiply to the removed gain
    assert h.has_edge(edge(0, 3, 1)) and h.has_edge(edge(1, 3, -1))
    assert h.has_edge(edge(2, 3, 1))


def test_move_validation_errors():
    with pytest.raises(MoveError):
        apply_move(BASE_A, Move("H1a", vertices=(0, 0), gains=(1, 1)))
    with pytest.raises(MoveError):
        apply_move(BASE_A, Move("H2a", removed=(edge(0, 5, 1),),
                                vertices=(0, 1), gains=(1, 1)))
    with pytest.raises(MoveError):
        apply_move(BASE_A, Move("nope"))


def test_vertex_to_k4_structure():
    g = GainGraph.from_triples(2, [[0, 1, 1], [0, 1, -1], [0, 0, -1], [1, 1, -1]])
    attach = tuple((e, i) for i, e in enumerate(g.edges_at(0, include_loop=False)))
    mv = Move("VertexToK4", vertices=(0,), attach=attach, loop_attach=(0, 1))
    h = apply_move(g, mv)
    assert h.n == 5  # one removed, four added
    # balanced K4 present on the new vertices
    newv = [1, 2, 3, 4]
    k4_edges = [e for e in h.induced_edges(newv) if e.gain == 1 and not e.is_loop()]
    assert len(k4_edges) == 6


def test_vertex_split_moves_edges():
    g = BASE_CATALOG["b"]
    e12 = edge(0, 1, 1)
    others = [e for e in g.edges_at(0, include_loop=False) if e != e12]
    mv = Move("VertexSplit", vertices=(0,), v2_edge=e12,
              moved=tuple(others), move_loop=True)
    h = apply_move(g, mv)
    assert h.n == 4
    assert h.has_edge(edge(0, 3, 1)) and h.has_edge(edge(1, 3, 1))
    assert h.loop_at(3) is not None and h.loop_at(0) is None


def test_reductions_replay_exactly(rng):
    # enumerate_reductions checks only that the reduced graph is valid, so
    # every candidate's forward move must rebuild the input exactly: on
    # grown graphs in both regimes, and on two-base unions, with K4 and
    # split candidates among them
    graphs = [
        grow(random.choice(list(BASE_CATALOG.values())), rng, rng.randrange(3))
        for _ in range(60)
    ]
    for p in (PARAMS_220, PARAMS_222):
        graphs += [random_tight(n, p, seed) for n in (3, 5, 7, 9) for seed in range(6)]
        graphs += [two_base_union(rng, n, p) for n in (4, 5, 6, 8) for _ in range(8)]
        pool = [two_base_union(rng, 6, p) for _ in range(300)]
        graphs += [g for g in pool if next(enumerate_reductions(g, ["VertexToK4"]), None)]
    kinds = set()
    for g in graphs:
        for r in enumerate_reductions(g):
            assert apply_iso(g, r.pi, r.signs) == apply_move(r.reduced, r.forward)
            kinds.add(r.forward.kind)
    assert kinds == set(ALL_KINDS)


def test_admissible_matches_full_recheck(rng):
    for _ in range(40):
        g = grow(random.choice(list(BASE_CATALOG.values())), rng, rng.randrange(3))
        part = tight_partition(g, PARAMS_220)
        for r in enumerate_reductions(g):
            carried = is_admissible(r, PARAMS_220, part)
            assert (carried is not None) == check_tight(r.reduced, PARAMS_220)


@pytest.mark.parametrize("p", [PARAMS_220, PARAMS_222], ids=["220", "222"])
def test_carried_verdict_matches_full_recheck(p):
    # every candidate of every allowed kind, from graphs random_tight grew
    # and from two-base unions: the partition carried into the reduced graph
    # exists exactly when the reduced graph is tight, and is a partition of
    # it into two independent sides
    kinds = allowed_kinds(p)
    graphs = [("grown", random_tight(n, p, seed)) for n in (5, 7, 9) for seed in range(8)]
    rng = random.Random(11)
    graphs += [("union", two_base_union(rng, n, p)) for n in (4, 5, 6, 8) for _ in range(8)]
    # Few two-base unions hold a balanced K4 with at most 7 induced edges.
    pool = [two_base_union(rng, 6, p) for _ in range(300)]
    graphs += [
        ("union", g) for g in pool if next(enumerate_reductions(g, ["VertexToK4"]), None)
    ]
    seen, from_unions, verdicts = set(), set(), set()
    for source, g in graphs:
        part = tight_partition(g, p)
        for r in enumerate_reductions(g, kinds):
            carried = is_admissible(r, p, part)
            verdicts.add(carried is not None)
            assert (carried is not None) == check_tight(r.reduced, p)
            if carried is not None:
                assert_partition(r.reduced, carried, p)
            seen.add(r.forward.kind)
            if source == "union":
                from_unions.add(r.forward.kind)
    assert seen == set(kinds)
    assert {"VertexToK4", "VertexSplit"} <= from_unions
    assert verdicts == {True, False}


def test_translate_and_extend_contract(rng):
    done = 0
    kinds = set()
    while done < 120 or kinds != set(ALL_KINDS):
        g = grow(random.choice(list(BASE_CATALOG.values())), rng, rng.randrange(3))
        pi = list(range(g.n))
        rng.shuffle(pi)
        signs = [rng.choice((1, -1)) for _ in range(g.n)]
        h = apply_iso(g, pi, signs)
        mv = _random_move(g, ALL_KINDS, rng)
        if mv is None:
            continue
        try:
            g2 = apply_move(g, mv)
        except MoveError:
            continue
        mv2, pi2, s2 = translate_move(mv, pi, signs)
        assert apply_iso(g2, pi2, s2) == apply_move(h, mv2), mv.kind
        kinds.add(mv.kind)
        done += 1
        assert done < 5000, f"kinds never applied: {set(ALL_KINDS) - kinds}"


def test_h_moves_preserve_tightness(rng):
    from gainrig.construct import random_tight

    done = 0
    while done < 100:
        g = random_tight(2 + rng.randrange(5), PARAMS_220, seed=rng.randrange(10**6))
        mv = _random_move(g, H_KINDS, rng)
        if mv is None:
            continue
        try:
            h = apply_move(g, mv)
        except MoveError:
            continue
        assert check_tight(h, PARAMS_220), (g.triples(), mv)
        done += 1


def test_every_h_move_is_undone_in_place(rng):
    # reducing at the new vertex (the last, so pi is the identity) must give
    # back the graph the move was applied to
    from gainrig.construct import random_tight

    graphs = [random_tight(n, PARAMS_220, seed) for n in range(2, 8) for seed in range(5)]
    for kind in H_KINDS:
        done = tries = 0
        while done < 50:
            tries += 1
            assert tries < 5000, f"{kind} never applied"
            g = rng.choice(graphs)
            mv = _random_move(g, (kind,), rng)
            if mv is None:
                continue
            try:
                h = apply_move(g, mv)
            except MoveError:
                continue
            identity = tuple(range(h.n))
            assert any(
                r.reduced == g and r.pi == identity
                for r in enumerate_reductions(h, kinds=(kind,))
            ), (g.triples(), mv)
            done += 1


def test_random_moves_are_mostly_accepted():
    # each draw takes distinct removed edges and orients an edge at an
    # endpoint its shape has already bound; drawing the edges independently,
    # each oriented at random, leaves under a tenth of H3b draws applicable
    from gainrig.construct import random_tight

    pool = [random_tight(n, PARAMS_220, seed) for n in (6, 10, 16) for seed in range(5)]
    rng = random.Random(11)
    draws = 500
    for kind in ALL_KINDS:
        accepted = 0
        for _ in range(draws):
            g = rng.choice(pool)
            mv = _random_move(g, (kind,), rng)
            if mv is None:
                continue
            try:
                apply_move(g, mv)
            except MoveError:
                continue
            accepted += 1
        assert accepted >= 0.3 * draws, (kind, accepted)


def test_balanced_k4_contracts_to_single_vertex():
    k4 = GainGraph.from_triples(
        4, [[0, 1, 1], [0, 2, 1], [0, 3, 1], [1, 2, 1], [1, 3, 1], [2, 3, 1]]
    )
    rs = [r for r in enumerate_reductions(k4, kinds=("VertexToK4",))]
    assert any(r.reduced == GainGraph(1, ()) for r in rs)


def test_restricted_kind_filter():
    g = BASE_CATALOG["a"]
    assert list(enumerate_reductions(g, kinds=("H1a",))) == []


@pytest.mark.parametrize(
    "mv, field",
    [
        (Move("H2a", removed=(edge(0, 1, 1),), vertices=(0, 1)), "gains"),
        (Move("H1b", vertices=(0, 1)), "vertices"),
        (Move("H3d", removed=(edge(0, 0, -1),)), "removed"),
    ],
)
def test_wrong_arity_names_kind_and_field(mv, field):
    with pytest.raises(MoveError, match=f"{mv.kind} needs .* {field}"):
        apply_move(BASE_A, mv)


def test_kind_order_is_fixed():
    # random generation draws kinds in this order, so it fixes random_tight
    assert ALL_KINDS == tuple(ARITY) == (
        "H1a", "H1b", "H1c", "H2a", "H2b", "H2c", "H2d", "H2e",
        "H3a", "H3b", "H3c", "H3d", "VertexToK4", "VertexSplit",
    )
    assert H_KINDS == ALL_KINDS[:12]
