import random
from fractions import Fraction as F
from itertools import product

import pytest

from gainrig import placement
from gainrig.catalog import PARAMS_220, PARAMS_222
from gainrig.colouring import (
    _spanning_connected_unbalanced,
    geometric_verdict,
    isostatic_classes,
    monochrome_quotients,
)
from gainrig.construct import decompose, random_tight
from gainrig.graph import GainGraph, edge, signed_components
from gainrig.norms import L1, LINF
from gainrig.placement import BASE_PLACEMENTS, base_placement, realize
from gainrig.rigidity import (
    Framework,
    FrameworkError,
    NotWellPositioned,
    analyse,
    orbit_matrix,
    well_positioned,
)
from gainrig.sparsity import Forest

from conftest import brute_balanced, brute_components, random_gain_graph
from test_forest import assert_forest


def _placement(g, rng, tries=400, norm=LINF):
    for _ in range(tries):
        pos = tuple(
            (F(rng.randint(-40, 40)), F(rng.randint(-40, 40)))
            for _ in range(g.n)
        )
        try:
            fw = Framework(g, pos, norm, 2)
        except FrameworkError:
            continue
        if well_positioned(fw):
            return fw
    return None


def test_edge_colour_examples():
    g = GainGraph.from_triples(2, [[0, 1, 1]])
    fw = Framework(g, ((F(4), F(2)), (F(1), F(1))), LINF, 2)  # delta (3,1)
    assert monochrome_quotients(fw) == (g.edges, ())
    fw2 = Framework(g, ((F(1), F(4)), (F(2), F(1))), LINF, 2)  # delta (-1,3)
    assert monochrome_quotients(fw2) == ((), g.edges)


@pytest.mark.parametrize("norm", [LINF, L1], ids=["linf", "l1"])
def test_covector_table_matches_direct_facets(rng, norm):
    # every reader of the table against facet_of on each edge, recomputed
    checked = 0
    while checked < 40:
        g = random_gain_graph(rng, max_n=5, max_edges=10)
        fw = _placement(g, rng, norm=norm)
        if fw is None:
            continue
        facets = [norm.facet_of(fw.edge_delta(e)) for e in g.edges]
        assert monochrome_quotients(fw) == tuple(
            tuple(e for e, (i, _) in zip(g.edges, facets) if i == c) for c in (0, 1)
        )
        for j in (0, 1):
            for e, (i, sign), row in zip(g.edges, facets, orbit_matrix(fw, j)):
                phi = [sign * x for x in norm.facets[i]]
                # +phi on u, -chi_j(gain) gain phi = -gain^(j+1) phi on v
                # (summed for a loop)
                expected = [0] * (2 * g.n)
                for k in (0, 1):
                    expected[2 * e.u + k] += phi[k]
                    expected[2 * e.v + k] -= e.gain ** (j + 1) * phi[k]
                assert row == expected
        checked += 1


@pytest.mark.parametrize(
    "norm, positions", [(LINF, ((4, 2), (1, 1))), (L1, ((4, 1), (1, 0)))], ids=["linf", "l1"]
)
def test_cone_boundary_raises_from_every_reader(norm, positions):
    # edge (0, 1, +1) points along (3, 1), inside a cone; the loop at 1 points
    # along 2 p_1, on a cone boundary, so the whole table is refused
    g = GainGraph.from_triples(2, [[0, 1, 1], [1, 1, -1]])
    fw = Framework(g, tuple((F(x), F(y)) for x, y in positions), norm, 2)
    assert not well_positioned(fw)
    readers = [
        lambda: monochrome_quotients(fw),
        lambda: geometric_verdict(fw),
        lambda: orbit_matrix(fw, 0),
        lambda: analyse(fw, 1),
    ]
    for read in readers:
        with pytest.raises(NotWellPositioned, match=r"edge \[1, 1, -1\]"):
            read()


def test_colour_partition_total(rng):
    for _ in range(20):
        g = random_gain_graph(rng, max_n=5, max_edges=8)
        fw = _placement(g, rng)
        if fw is None:
            continue
        col = monochrome_quotients(fw)
        assert sorted(col[0] + col[1]) == list(g.edges)


def test_unbalanced_map_graph_basics():
    loop = GainGraph.from_triples(1, [[0, 0, -1]])
    assert isostatic_classes(loop, [loop.edges], 0)
    pair = GainGraph.from_triples(2, [[0, 1, 1], [0, 1, -1]])
    assert isostatic_classes(pair, [pair.edges], 0)
    tree = GainGraph.from_triples(3, [[0, 1, 1], [1, 2, 1]])
    assert not isostatic_classes(tree, [tree.edges], 0)
    balanced_cycle = GainGraph.from_triples(3, [[0, 1, 1], [1, 2, 1], [0, 2, 1]])
    assert not isostatic_classes(balanced_cycle, [balanced_cycle.edges], 0)


def test_map_graph_must_span():
    g = GainGraph.from_triples(3, [[0, 0, -1]])
    # the loop alone is a map graph on vertex 0, but vertices 1 and 2 are bare
    assert not isostatic_classes(g, [g.edges], 0)


def test_geometric_matches_rank_chi0(rng):
    agreements = 0
    while agreements < 60:
        g = random_tight(2 + rng.randrange(5), PARAMS_220, seed=rng.randrange(10**6))
        fw = _placement(g, rng)
        if fw is None:
            continue
        gv = geometric_verdict(fw)
        assert gv.chi0_isostatic == analyse(fw, 0).isostatic
        agreements += 1


def test_geometric_matches_rank_chi1(rng):
    agreements = 0
    while agreements < 60:
        g = random_tight(1 + rng.randrange(6), PARAMS_222, seed=rng.randrange(10**6))
        fw = _placement(g, rng)
        if fw is None:
            continue
        gv = geometric_verdict(fw)
        assert gv.chi1_isostatic == analyse(fw, 1).isostatic
        agreements += 1


def test_rigidity_verdict_matches_both_characters(rng):
    agreements = 0
    while agreements < 40:
        g = random_gain_graph(rng, max_n=5, max_edges=11)
        fw = _placement(g, rng)
        if fw is None:
            continue
        gv = geometric_verdict(fw)
        rank_rigid = analyse(fw, 0).rigid and analyse(fw, 1).rigid
        assert gv.infinitesimally_rigid == rank_rigid
        agreements += 1


def test_forest_class_blocks_chi0():
    # one colour class being a forest rules out the chi0 verdict
    g = GainGraph.from_triples(2, [[0, 1, 1], [0, 1, -1], [0, 0, -1], [1, 1, -1]])
    rng = random.Random(17)
    found = False
    for _ in range(500):
        fw = _placement(g, rng, tries=1)
        if fw is None:
            continue
        col = monochrome_quotients(fw)
        forest0 = not isostatic_classes(g, [col[0]], 0)
        if forest0:
            assert not geometric_verdict(fw).chi0_isostatic
            found = True
            break
    assert found


def _brute_map_graph(comps):
    return all(len(es) == len(vs) and not brute_balanced(vs, es) for vs, es in comps)


def test_verdict_predicates_match_brute_force(rng):
    # frame-matroid basis (map graph), graphic basis (spanning tree) and
    # spanning-connected-unbalanced, each from its plain definition
    for _ in range(400):
        g = random_gain_graph(rng, max_n=6, max_edges=12)
        subset = [e for e in g.edges if rng.random() < 0.6]
        comps = brute_components(g.n, subset)
        assert isostatic_classes(g, [subset], 0) == _brute_map_graph(comps)
        assert isostatic_classes(g, [subset], 1) == (
            len(comps) == 1 and len(subset) == g.n - 1
        )
        assert _spanning_connected_unbalanced(signed_components(g.n, subset)[2]) == (
            len(comps) == 1 and not brute_balanced(range(g.n), subset)
        )


def _certified_classes(j):
    """(graph, colour classes) of placements verified for character j."""
    if j == 0:
        fws = [base_placement(bid) for bid in BASE_PLACEMENTS]
    else:
        fws = [realize(decompose(random_tight(n, PARAMS_222, seed=n), PARAMS_222)[0], 1)
               for n in range(2, 8)]
    return [(fw.graph, monochrome_quotients(fw)) for fw in fws]


def _forests(n, classes, j):
    """The classes as placement carries them: one forest each, frame sides
    for j = 0 and graphic ones for j = 1."""
    forests = [Forest(n, j == 0) for _ in classes]
    for f, cls in zip(forests, classes):
        for e in cls:
            f.add(e)
    return forests


@pytest.mark.parametrize("j", [0, 1])
def test_colour_class_step_test_matches_isostatic_classes(rng, j):
    # A step keeps a parent's classes less some removed edges (as an H2 or
    # H3 move does) and adds new edges at a new vertex w, a loop among
    # them; every colouring of the new edges is tested on the kept classes'
    # forests alone (placement._add_coloured) and must match
    # isostatic_classes on the whole classes and each class's basis test
    # from plain definitions; a refused colouring leaves the forests as
    # they were.  Parents are verified placements (bases) or random graphs
    # split at random, each class cut to an independent set (mostly not a
    # basis).
    certified = _certified_classes(j)
    seen = {"basis": 0, "refused": 0, "refused after an add": 0, "certified": 0}
    for trial in range(400):
        if trial % 2:
            g, classes = rng.choice(certified)
            seen["certified"] += 1
        else:
            g = random_gain_graph(rng, max_n=6, max_edges=12)
            trial_forests = [Forest(g.n, j == 0) for _ in range(2)]
            classes = [[], []]
            for e in g.edges:
                c = rng.randrange(2)
                if trial_forests[c].independent(e):
                    trial_forests[c].add(e)
                    classes[c].append(e)
            g = GainGraph(g.n, tuple(classes[0] + classes[1]))
        gone = set(rng.sample(g.edges, min(len(g.edges), rng.randint(0, 2))))
        w = g.n
        at_w = [edge(x, w, gain) for x in range(g.n) for gain in (1, -1)] + [edge(w, w, -1)]
        new = sorted(rng.sample(at_w, rng.randint(1, 3)))
        h = GainGraph(g.n + 1, tuple(e for e in g.edges if e not in gone) + tuple(new))
        kept = [[e for e in c if e not in gone] for c in classes]
        forests = _forests(g.n, classes, j)
        for e in gone:
            forests[0 if e in classes[0] else 1].remove(e)
        for f in forests:
            f.grow()
        for colours in product((0, 1), repeat=len(new)):
            added = [[e for e, c in zip(new, colours) if c == k] for k in (0, 1)]
            whole = [tuple(sorted([*k, *a])) for k, a in zip(kept, added)]
            step = placement._add_coloured(forests, new, colours, h.n - j)
            assert step == isostatic_classes(h, whole, j)
            brute = [_brute_map_graph(brute_components(h.n, cls)) if j == 0 else
                     len(brute_components(h.n, cls)) == 1 and len(cls) == h.n - 1 for cls in whole]
            assert step == all(brute)
            if step:
                for f, cls in zip(forests, whole):
                    assert_forest(f, set(cls))
                for e, c in zip(new, colours):
                    forests[c].remove(e)
                seen["basis"] += 1
            else:
                seen["refused"] += 1
                seen["refused after an add"] += all(
                    len(f) + colours.count(c) == h.n - j
                    for c, f in enumerate(forests)) and forests[colours[0]].independent(new[0])
            for f, cls in zip(forests, kept):
                assert_forest(f, set(cls))
    assert all(count > 20 for count in seen.values()), seen


def test_colour_class_forest_sees_a_components_cycle():
    # A kept chi0 class on 4 vertices with two trees, so two added edges
    # meet the count.  {0, 1} already holds its unbalanced cycle (the
    # loop): two more edges into it and the tree {2} close a second cycle,
    # which only its extra edge shows; the first edge is taken back.
    (kept,) = _forests(4, [[edge(0, 0, -1), edge(0, 1, 1)]], 0)
    assert not placement._add_coloured([kept], [edge(1, 2, 1), edge(0, 2, -1)], (0, 0), 4)
    assert_forest(kept, {edge(0, 0, -1), edge(0, 1, 1)})
    # Two edges from {3} reach the tree {0, 1, 2} at opposite switched
    # gains: they close one unbalanced cycle, a basis; at equal ones, a
    # balanced cycle, not a basis.
    (tree,) = _forests(4, [[edge(0, 1, -1), edge(1, 2, 1)]], 0)
    assert not placement._add_coloured([tree], [edge(0, 3, 1), edge(2, 3, -1)], (0, 0), 4)
    assert placement._add_coloured([tree], [edge(0, 3, 1), edge(2, 3, 1)], (0, 0), 4)
    # a class one edge short of the count is refused before any edge is tried
    (short,) = _forests(4, [[edge(0, 1, -1)]], 0)
    assert not placement._add_coloured([short], [edge(0, 3, 1), edge(2, 3, 1)], (0, 0), 4)
