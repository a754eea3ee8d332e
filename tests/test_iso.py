import random
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from gainrig.catalog import PARAMS_220
from gainrig.construct import random_tight
from gainrig.graph import GainGraph, edge
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


def _maps(g, h):
    """Every (pi, signs) with apply_iso(g, pi, signs) == h, by brute force
    over the n! relabellings and 2^n switchings."""
    return [(pi, signs) for pi in permutations(range(g.n))
            for signs in product((1, -1), repeat=g.n)
            if sorted(map_edge(e, pi, signs) for e in g.edges) == list(h.edges)]


def _near_copy(rng, g):
    """A relabelled, switched copy of g with one edge changed where that
    leaves a valid graph: its gain flipped, or one of its ends moved."""
    h = apply_iso(g, *_random_iso(rng, g.n))
    if not h.edges:
        return h
    edges = list(h.edges)
    e = edges.pop(rng.randrange(len(edges)))
    changes = [edge(e.u, e.v, -e.gain)] + [edge(x, e.v, e.gain) for x in range(g.n)]
    rng.shuffle(changes)
    for f in changes:
        try:
            if f != e:
                return GainGraph(g.n, tuple(edges + [f]))
        except ValueError:  # a repeated edge or a gain +1 loop
            pass
    return h


def test_isomorphism_agrees_with_brute_force():
    # small random pairs: copies, near-copies and unrelated graphs of the
    # same size; a map is returned iff one of the n!·2^n maps g onto h
    rng = random.Random(37)
    rejected_near_copies = 0
    for i in range(400):
        g = random_gain_graph(rng, max_n=5, max_edges=10)
        kind = i % 3
        if kind == 0:
            h = apply_iso(g, *_random_iso(rng, g.n))
        elif kind == 1:
            h = _near_copy(rng, g)
        else:
            h = random_gain_graph(rng, max_n=5, max_edges=10)
        found, maps = isomorphism(g, h), _maps(g, h) if g.n == h.n else []
        assert (found is not None) == bool(maps), (g, h)
        if found is not None:
            assert apply_iso(g, *found) == h and found in maps
        rejected_near_copies += kind == 1 and found is None
    assert rejected_near_copies > 40


def test_twelve_cycles_balanced_against_unbalanced():
    balanced = GainGraph.from_triples(12, [(i, (i + 1) % 12, 1) for i in range(12)])
    unbalanced = GainGraph.from_triples(12, [(i, (i + 1) % 12, -1 if i == 0 else 1) for i in range(12)])
    assert isomorphism(balanced, unbalanced) is None
    assert isomorphism(unbalanced, balanced) is None
    assert are_isomorphic(balanced, apply_iso(balanced, list(range(11, -1, -1)), [-1] * 6 + [1] * 6))


@pytest.mark.parametrize("seed", range(4))
def test_finds_a_relabelled_switched_tight_twelve_vertex_graph(seed):
    rng = random.Random(seed)
    g = random_tight(12, PARAMS_220, seed)
    h = apply_iso(g, *_random_iso(rng, g.n))
    found = isomorphism(g, h)
    assert found is not None and apply_iso(g, *found) == h
