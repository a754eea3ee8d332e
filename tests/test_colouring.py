import random
from fractions import Fraction as F

import pytest

from gainrig.catalog import PARAMS_220, PARAMS_222
from gainrig.colouring import (
    _is_spanning_tree,
    _spanning_connected_unbalanced,
    edge_colour,
    geometric_verdict,
    is_unbalanced_map_graph,
    monochrome_quotients,
)
from gainrig.construct import random_tight
from gainrig.graph import GainGraph, edge
from gainrig.norms import L1, LINF
from gainrig.rigidity import (
    Framework,
    FrameworkError,
    NotWellPositioned,
    analyse,
    orbit_matrix,
    well_positioned,
)

from conftest import brute_balanced, brute_components, random_gain_graph


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
    assert edge_colour(fw, g.edges[0]) == 0
    fw2 = Framework(g, ((F(1), F(4)), (F(2), F(1))), LINF, 2)  # delta (-1,3)
    assert edge_colour(fw2, g.edges[0]) == 1


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
        assert [edge_colour(fw, e) for e in g.edges] == [i for i, _ in facets]
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
        lambda: edge_colour(fw, g.edges[0]),
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
    assert is_unbalanced_map_graph(loop, loop.edges)
    pair = GainGraph.from_triples(2, [[0, 1, 1], [0, 1, -1]])
    assert is_unbalanced_map_graph(pair, pair.edges)
    tree = GainGraph.from_triples(3, [[0, 1, 1], [1, 2, 1]])
    assert not is_unbalanced_map_graph(tree, tree.edges)
    balanced_cycle = GainGraph.from_triples(3, [[0, 1, 1], [1, 2, 1], [0, 2, 1]])
    assert not is_unbalanced_map_graph(balanced_cycle, balanced_cycle.edges)


def test_map_graph_must_span():
    g = GainGraph.from_triples(3, [[0, 0, -1]])
    # the loop alone is a map graph on vertex 0, but vertices 1 and 2 are bare
    assert not is_unbalanced_map_graph(g, g.edges)


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
        forest0 = not is_unbalanced_map_graph(g, col[0])
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
        assert is_unbalanced_map_graph(g, subset) == _brute_map_graph(comps)
        assert _is_spanning_tree(g, subset) == (
            len(comps) == 1 and len(subset) == g.n - 1
        )
        assert _spanning_connected_unbalanced(g, subset) == (
            len(comps) == 1 and not brute_balanced(range(g.n), subset)
        )
