import random
from dataclasses import replace
from itertools import combinations, product

import pytest

from gainrig.catalog import BASE_CATALOG, PARAMS_220, PARAMS_222, regime
from gainrig.construct import _random_move, random_tight
from gainrig.graph import GainGraph, edge
from gainrig import moves
from gainrig.iso import apply_iso
from gainrig.moves import (
    _cliques,
    ALL_KINDS,
    ARITY,
    H_SHAPES,
    Move,
    MoveError,
    apply_move,
    apply_reduction,
    enumerate_reductions,
    is_admissible,
    move_delta,
    translate_move,
)
from gainrig.sparsity import check_tight, tight_partition

from conftest import assert_partition, random_gain_graph, rebuilds, reduced_graph, two_base_union


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


def test_vertex_to_k4_refuses_an_edge_attached_twice():
    # base a's vertex 0 has two non-loop edges; naming one of them twice
    # is refused, not read as its last index
    e1, e2 = BASE_A.edges_at(0, include_loop=False)
    mv = Move("VertexToK4", vertices=(0,), attach=((e1, 0), (e1, 2), (e2, 1)), loop_attach=(0, 1))
    with pytest.raises(MoveError, match="attach must map each non-loop incident edge exactly once"):
        apply_move(BASE_A, mv)
    assert apply_move(BASE_A, Move("VertexToK4", vertices=(0,), attach=((e1, 2), (e2, 1)),
                                   loop_attach=(0, 1))).n == 5


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
    # enumerate_reductions checks only that the reduced graph is valid, from
    # its added edges, so every candidate's reduced graph must pass a whole
    # build and its forward move must rebuild the input exactly: on grown
    # graphs in both regimes, and on two-base unions, with K4 and split
    # candidates among them
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
            h = apply_reduction(g, r)
            assert GainGraph(h.n, h.edges).edges == h.edges
            assert rebuilds(g, r)
            kinds.add(r.forward.kind)
    assert kinds == set(ALL_KINDS)


def test_admissible_matches_full_recheck(rng):
    for _ in range(40):
        g = grow(random.choice(list(BASE_CATALOG.values())), rng, rng.randrange(3))
        part = tight_partition(g, PARAMS_220)
        for r in enumerate_reductions(g):
            accepted = is_admissible(r, part)
            assert accepted == check_tight(reduced_graph(g, r), PARAMS_220)
            if accepted:  # part is now r.reduced's: start g's afresh
                part = tight_partition(g, PARAMS_220)


@pytest.mark.parametrize("p", [PARAMS_220, PARAMS_222], ids=["220", "222"])
def test_carried_verdict_matches_full_recheck(p):
    # every candidate of every allowed kind, from graphs random_tight grew
    # and from two-base unions: a candidate is accepted exactly when the
    # reduced graph is tight; the partition carried into it then holds
    # exactly its edges (named through the stable ids) in two independent
    # sides, and a rejected one leaves g's partition exactly as it was
    kinds = regime(p)[0]
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
            accepted = is_admissible(r, part)
            verdicts.add(accepted)
            assert accepted == check_tight(reduced_graph(g, r), p)
            if accepted:  # named on g's ids, r's dropped ones isolated
                assert_partition(apply_reduction(g, r), part, p)
                part = tight_partition(g, p)
            else:
                assert_partition(g, part, p)
            seen.add(r.forward.kind)
            if source == "union":
                from_unions.add(r.forward.kind)
    assert seen == set(kinds)
    assert {"VertexToK4", "VertexSplit"} <= from_unions
    assert verdicts == {True, False}


def extended(mv, pi, signs, sign):
    """(pi, signs) extended across mv: each vertex mv creates goes to the
    one its image creates at the same index, with the sign translate_move
    gives, and under VertexToK4 the vertices after the replaced one shift
    down by one on both sides."""
    n = len(pi)
    if mv.kind != "VertexToK4":
        return pi + [n], signs + [sign]
    (v,) = mv.vertices
    kept = [u for u in range(n) if u != v]
    return ([pi[u] - (pi[u] > pi[v]) for u in kept] + list(range(n - 1, n + 3)),
            [signs[u] for u in kept] + [sign] * 4)


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
        mv2, sign = translate_move(mv, pi, signs)
        pi2, s2 = extended(mv, pi, signs, sign)
        assert apply_iso(g2, pi2, s2) == apply_move(h, mv2), mv.kind
        kinds.add(mv.kind)
        done += 1
        assert done < 5000, f"kinds never applied: {set(ALL_KINDS) - kinds}"


def test_h_moves_preserve_tightness(rng):
    from gainrig.construct import random_tight

    done = 0
    while done < 100:
        g = random_tight(2 + rng.randrange(5), PARAMS_220, seed=rng.randrange(10**6))
        mv = _random_move(g, tuple(H_SHAPES), rng)
        if mv is None:
            continue
        try:
            h = apply_move(g, mv)
        except MoveError:
            continue
        assert check_tight(h, PARAMS_220), (g.triples(), mv)
        done += 1


def test_every_h_move_is_undone_in_place(rng):
    # reducing at the new vertex (the last) must give back the graph the
    # move was applied to, with the new vertex's id left isolated
    from gainrig.construct import random_tight

    graphs = [random_tight(n, PARAMS_220, seed) for n in range(2, 8) for seed in range(5)]
    for kind in H_SHAPES:
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
            assert any(
                apply_reduction(h, r) == GainGraph(h.n, g.edges) and r.dropped == (h.n - 1,)
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
    assert any(reduced_graph(k4, r) == GainGraph(1, ()) for r in rs)


def scan_cliques(g, k):
    """The subset scan that _cliques replaces: every k-subset in
    combinations order whose pairs are all joined, with its induced edges,
    under every switching (first vertex +1) giving each pair a gain-1 edge."""
    pairs = k * (k - 1) // 2
    for s in combinations(range(g.n), k):
        induced = list(g.induced_edges(s))
        if len({(e.u, e.v) for e in induced if not e.is_loop()}) < pairs:
            continue
        for rest in product((1, -1), repeat=k - 1):
            local = dict(zip(s, (1,) + rest))
            chosen = [e for e in induced
                      if not e.is_loop() and e.gain == local[e.u] * local[e.v]]
            if len(chosen) == pairs:
                yield s, local, chosen, induced


@pytest.mark.parametrize("k", [3, 4])
def test_cliques_match_the_subset_scan(k):
    # the same sets in the same order, with the same switchings, chosen
    # edges and induced edges, on dense random gain graphs and on two-base
    # unions in both regimes
    rng = random.Random(k)
    graphs = [random_gain_graph(rng, max_n=8, max_edges=40) for _ in range(300)]
    for p in (PARAMS_220, PARAMS_222):
        graphs += [two_base_union(rng, n, p) for n in (4, 5, 6, 8, 12) for _ in range(20)]
    found = 0
    for g in graphs:
        expected = list(scan_cliques(g, k))
        assert list(_cliques(g, k)) == expected, g.triples()
        found += len(expected)
    assert found > 100


def test_k4_at_the_highest_indices_is_found_first():
    # a path on 0..195 with a balanced K4 on 196..199 hanging off its end:
    # the subset scan passes about 6.5e7 quadruples before this one; the K4
    # merges into the fresh id 200
    path = [[i, i + 1, 1] for i in range(195)] + [[195, 196, 1]]
    k4 = [[u, v, 1] for u, v in combinations(range(196, 200), 2)]
    g = GainGraph.from_triples(200, path + k4)
    r = next(enumerate_reductions(g, ["VertexToK4"]))
    assert r.forward.vertices == (200,) and r.dropped == (196, 197, 198, 199)
    assert reduced_graph(g, r) == GainGraph.from_triples(197, [[i, i + 1, 1] for i in range(196)])
    assert rebuilds(g, r)


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


@pytest.mark.parametrize(
    "mv, field",
    [
        (Move("H1a", vertices=(0, 1), gains=(1, 1), moved=(edge(0, 1, 1),)), "moved"),
        (Move("H1b", vertices=(0,), move_loop=True), "move_loop"),
        (Move("VertexToK4", vertices=(0,), v2_edge=edge(0, 1, 1)), "v2_edge"),
        (Move("VertexSplit", vertices=(0,), v2_edge=edge(0, 1, 1), loop_attach=(0, 1)), "loop_attach"),
    ],
)
def test_a_field_the_kind_does_not_read_is_refused(mv, field):
    # it would be ignored by the move and written back by move_to_dict
    with pytest.raises(MoveError, match=f"{mv.kind} takes no {field}"):
        apply_move(BASE_A, mv)


def test_kind_order_is_fixed():
    # random generation draws kinds in this order, so it fixes random_tight
    assert ALL_KINDS == tuple(ARITY) == (
        "H1a", "H1b", "H1c", "H2a", "H2b", "H2c", "H2d", "H2e",
        "H3a", "H3b", "H3c", "H3d", "VertexToK4", "VertexSplit",
    )
    assert tuple(H_SHAPES) == ALL_KINDS[:12]


def _spoiled(mv, g, rng):
    """mv with perhaps one entry of one field replaced: by another entry of
    that field (a repeat), or by a random value in or just out of g's range:
    a vertex, a gain in (1, -1, 0, 2), or a removed or moved edge."""
    field = rng.choice(("vertices", "gains", "removed", "moved", None, None))
    if field is None or not getattr(mv, field):
        return mv
    value = list(getattr(mv, field))
    i = rng.randrange(len(value))
    if rng.random() < 0.3:
        value[i] = rng.choice(value)
    elif field == "vertices":
        value[i] = rng.randint(0, g.n)
    elif field == "gains":
        value[i] = rng.choice((1, -1, 0, 2))
    else:
        value[i] = edge(rng.randint(0, g.n), rng.randint(0, g.n), rng.choice((1, -1)))
    return replace(mv, **{field: tuple(value)})


def test_move_delta_is_the_whole_check(rng):
    # on random moves, some with a field spoiled, over arbitrary gain
    # graphs (with and without their edge index built), every delta
    # move_delta returns deletes edges of g, and spliced builds from it
    # exactly what a validating GainGraph builds from the kept and the
    # added edges; moves of every kind are built and refused
    built, refused = set(), set()
    for _ in range(1500):
        g = random_gain_graph(rng, max_n=6, max_edges=12)
        if rng.random() < 0.5:
            _ = g.edges_at(0), g.degrees  # built, so spliced carries them
        mv = _random_move(g, ALL_KINDS, rng)
        if mv is None:
            continue
        mv = _spoiled(mv, g, rng)
        try:
            n, deleted, added, pi = delta = move_delta(g, mv)
        except MoveError:
            refused.add(mv.kind)
            continue
        kept = [e for e in g.edges if e not in deleted]
        assert len(kept) == len(g.edges) - len(deleted)
        if pi is not None:
            kept = [edge(pi[e.u], pi[e.v], e.gain) for e in kept]
        want = GainGraph(n, tuple(kept + added))
        got = g.spliced(*delta)
        assert got == want and got.edges == want.edges and got.degrees == want.degrees
        built.add(mv.kind)
    assert built == refused == set(ALL_KINDS)


TRIANGLE = GainGraph.from_triples(3, [[0, 1, -1], [1, 2, 1], [0, 2, 1], [0, 0, -1], [1, 1, -1], [2, 2, -1]])


@pytest.mark.parametrize("mv, message", [
    (Move("H2a", vertices=(0, 2), gains=(1, 1), removed=(edge(0, 1, 1),)), r"edge \[0, 1, 1\] not present"),
    (Move("VertexSplit", vertices=(0,), v2_edge=edge(0, 2, 1), moved=(edge(0, 1, 1),)),
     r"edge \[0, 1, 1\] not present"),
    (Move("H1c", vertices=(1,), gains=(2,)), "gains must be"),
    (Move("H1c", vertices=(1,), gains=(0,)), "gains must be"),
    (Move("H1a", vertices=(2, 2), gains=(1, 1)), "needs distinct vertices"),
    (Move("H2a", vertices=(0, 1), gains=(1, 1), removed=(edge(0, 1, -1),)), "needs distinct vertices"),
], ids=["absent-removed", "absent-moved", "gain-2", "gain-0", "repeated-vertex", "repeated-name"])
def test_a_hostile_move_is_refused_before_any_build(mv, message, monkeypatch):
    # move_delta refuses it, and neither the splice nor a validating
    # constructor is reached
    built = []
    monkeypatch.setattr(GainGraph, "spliced", lambda *args: built.append(args))
    monkeypatch.setattr(GainGraph, "__post_init__", lambda g: built.append(g))
    with pytest.raises(MoveError, match=message):
        apply_move(TRIANGLE, mv)
    assert built == []


def test_reductions_keep_degree_order_and_skip_unfit_vertices(monkeypatch):
    # vertices in (degree, id) order, a loop counting 2, read from one edge
    # pass; a vertex whose edge count no allowed shape takes is not searched
    searched = []
    real = moves._vertex_deletion_candidates
    monkeypatch.setattr(moves, "_vertex_deletion_candidates",
                        lambda g, v, kinds: searched.append(v) or real(g, v, kinds))
    # vertex 0 has four edges, a loop among them, and degree 5
    looped = GainGraph.from_triples(5, [(0, 0, -1), (0, 1, 1), (0, 2, 1), (0, 3, -1),
                                        (1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, -1)])
    for p in (PARAMS_220, PARAMS_222):
        sizes = {len(s.added) for k, s in H_SHAPES.items() if k in regime(p)[0]}
        for g in [random_tight(20, p, seed=seed) for seed in range(4)] + [looped]:
            degree = [sum((e.u == v) + (e.v == v) for e in g.edges) for v in range(g.n)]
            assert g.degrees == degree
            searched.clear()
            found = list(enumerate_reductions(g, regime(p)[0]))
            order = [v for v in sorted(range(g.n), key=lambda v: (degree[v], v))
                     if len(g.edges_at(v)) in sizes]
            assert searched == order
            firsts = [r.dropped[0] for r in found if r.forward.kind in H_SHAPES]
            assert firsts == sorted(firsts, key=lambda v: (degree[v], v))
