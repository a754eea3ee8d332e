import random

from hypothesis import given, strategies as st

from gainrig.graph import GainGraph
from gainrig.iso import (
    apply_iso,
    are_isomorphic,
    isomorphism,
    map_edge,
)

from conftest import random_gain_graph


def _random_iso(rng, n):
    pi = list(range(n))
    rng.shuffle(pi)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return pi, signs


@given(st.integers(0, 2**30))
def test_isomorphism_finds_random_copies(seed):
    rng = random.Random(seed)
    g = random_gain_graph(rng)
    pi, signs = _random_iso(rng, g.n)
    h = apply_iso(g, pi, signs)
    found = isomorphism(g, h)
    assert found is not None
    assert apply_iso(g, *found) == h


def test_map_edge_consistency(rng):
    for _ in range(50):
        g = random_gain_graph(rng)
        pi, signs = _random_iso(rng, g.n)
        h = apply_iso(g, pi, signs)
        assert sorted(map_edge(e, pi, signs) for e in g.edges) == list(h.edges)


def test_non_isomorphic_pairs():
    g = GainGraph.from_triples(2, [[0, 1, 1], [0, 1, -1]])
    h = GainGraph.from_triples(2, [[0, 1, 1], [0, 0, -1]])
    assert not are_isomorphic(g, h)
    # switching-inequivalent: an unbalanced vs a balanced triangle
    t1 = GainGraph.from_triples(3, [[0, 1, 1], [1, 2, 1], [0, 2, 1]])
    t2 = GainGraph.from_triples(3, [[0, 1, 1], [1, 2, 1], [0, 2, -1]])
    assert not are_isomorphic(t1, t2)


def test_switching_equivalent_triangles_isomorphic():
    t1 = GainGraph.from_triples(3, [[0, 1, 1], [1, 2, 1], [0, 2, 1]])
    t2 = GainGraph.from_triples(3, [[0, 1, -1], [1, 2, -1], [0, 2, 1]])
    assert are_isomorphic(t1, t2)
