from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from gainrig.graph import (
    BadVertexIndex,
    DuplicateParallelEdge,
    Edge,
    GainGraph,
    GainGraphError,
    GainOneLoop,
    disjoint_union,
    edge,
    signed_components,
)
from gainrig.iso import apply_iso

from conftest import brute_balanced, brute_components, random_gain_graph
import random


def test_edge_normalisation():
    e = edge(3, 1, -1)
    assert (e.u, e.v, e.gain) == (1, 3, -1)
    assert edge(2, 2, -1).is_loop()


@dataclass(frozen=True, order=True)
class _DataclassEdge:
    """Edge as it was before it became a NamedTuple: the reference for hash,
    order and repr."""

    u: int
    v: int
    gain: int


def test_edge_hashes_orders_and_prints_as_before():
    rng = random.Random(18)
    triples = [(rng.randrange(5), rng.randrange(5), rng.choice((1, -1))) for _ in range(60)]
    edges, old = [Edge(*t) for t in triples], [_DataclassEdge(*t) for t in triples]
    for e, o, t in zip(edges, old, triples):
        assert hash(e) == hash(o) == hash(t)
        assert repr(e) == repr(o).replace("_DataclassEdge", "Edge")
    by_position = sorted(range(len(triples)), key=lambda i: edges[i])
    assert by_position == sorted(range(len(triples)), key=lambda i: old[i])
    assert list(dict.fromkeys(edges)) == [Edge(*t) for t in dict.fromkeys(triples)]


def test_edge_equals_its_triple():
    # intended: Edge is a tuple (u, v, gain), so it equals, and is found by,
    # the plain triple; a graph never mixes the two
    e = Edge(0, 1, -1)
    assert e == (0, 1, -1) and (0, 1, -1) in {e} and {(0, 1, -1): 1}[e] == 1
    assert e != Edge(0, 1, 1) and e < Edge(0, 1, 1)
    with pytest.raises(AttributeError):
        e.u = 2


def test_loop_gain_one_rejected():
    with pytest.raises(GainOneLoop):
        GainGraph.from_triples(1, [[0, 0, 1]])


def test_same_gain_parallel_rejected():
    with pytest.raises(DuplicateParallelEdge):
        GainGraph.from_triples(2, [[0, 1, 1], [1, 0, 1]])


def test_opposite_gain_parallel_allowed():
    g = GainGraph.from_triples(2, [[0, 1, 1], [0, 1, -1]])
    assert len(g.edges) == 2


def test_bad_vertex_index():
    with pytest.raises(BadVertexIndex):
        GainGraph.from_triples(2, [[0, 2, 1]])


def test_validate_edges_reports():
    # one bad graph per error: its class, and the message it has always had
    cases = [
        ([[0, 3, 1]], BadVertexIndex, "BadVertexIndex: edge [0, 3, 1] outside 0..1"),
        ([[0, 1, 2]], GainGraphError, "BadGain: edge [0, 1, 2] gain must be +1 or -1"),
        ([[0, 0, 1]], GainOneLoop, "GainOneLoop: loop at 0 with gain +1"),
        ([[0, 1, -1], [1, 0, -1]], DuplicateParallelEdge,
         "DuplicateParallelEdge: edge [0, 1, -1] repeated"),
    ]
    for triples, exc, message in cases:
        with pytest.raises(GainGraphError) as info:
            GainGraph.from_triples(2, triples)
        assert type(info.value) is exc and str(info.value) == message


def _switch(g, v):
    """g switched at vertex v alone."""
    return apply_iso(g, range(g.n), [-1 if w == v else 1 for w in range(g.n)])


def test_degree_counts_loop_twice():
    g = GainGraph.from_triples(2, [[0, 1, 1], [0, 0, -1]])
    assert g.degree(0) == 3
    assert g.degree(1) == 1


def test_switching_is_involution_and_preserves_loops():
    g = GainGraph.from_triples(3, [[0, 1, 1], [1, 2, -1], [1, 1, -1]])
    h = _switch(g, 1)
    assert h != g
    assert _switch(h, 1) == g
    assert h.loop_at(1) is not None  # loop gain untouched


def test_balance():
    balanced = GainGraph.from_triples(3, [[0, 1, 1], [1, 2, -1], [0, 2, -1]])
    unbalanced = GainGraph.from_triples(3, [[0, 1, 1], [1, 2, 1], [0, 2, -1]])
    assert balanced.is_balanced()
    assert not unbalanced.is_balanced()
    assert not GainGraph.from_triples(1, [[0, 0, -1]]).is_balanced()


def test_components_and_union():
    a = GainGraph.from_triples(2, [[0, 1, 1]])
    b = GainGraph.from_triples(2, [[0, 1, -1]])
    u = disjoint_union([a, b])
    assert u.n == 4
    assert u.components() == [[0, 1], [2, 3]]


def test_subgraph_relabels_in_order():
    g = GainGraph.from_triples(4, [[1, 3, -1], [0, 2, 1]])
    s = g.subgraph([1, 3])
    assert s.triples() == [[0, 1, -1]]


@given(st.integers(0, 2**30))
def test_switching_preserves_covering_simplicity(seed):
    rng = random.Random(seed)
    g = random_gain_graph(rng)
    v = rng.randrange(g.n)
    h = _switch(g, v)
    assert len(h.edges) == len(g.edges)
    # balance is switching-invariant
    assert g.is_balanced() == h.is_balanced()


@given(st.integers(0, 2**30))
def test_relabel_roundtrip(seed):
    rng = random.Random(seed)
    g = random_gain_graph(rng)
    pi = list(range(g.n))
    rng.shuffle(pi)
    inv = [0] * g.n
    for i, p in enumerate(pi):
        inv[p] = i
    ones = [1] * g.n
    assert apply_iso(apply_iso(g, pi, ones), inv, ones) == g


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**30))
def test_balance_matches_brute_force_potential(seed):
    rng = random.Random(seed)
    g = random_gain_graph(rng, max_n=7, max_edges=14)
    subset = [e for e in g.edges if rng.random() < 0.6]
    balanced = brute_balanced(range(g.n), subset)
    assert g.is_balanced(subset) == balanced
    pot = g.balance_potential(subset)
    assert (pot is not None) == balanced
    if pot is not None:
        assert all(e.gain == pot[e.u] * pot[e.v] for e in subset)
        # +1 at the smallest vertex of each component, untouched ones included
        assert all(pot[vs[0]] == 1 for vs, _ in brute_components(g.n, subset))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_components_match_graph_search(seed):
    g = random_gain_graph(random.Random(seed), max_n=7, max_edges=10)
    assert g.components() == [vs for vs, _ in brute_components(g.n, g.edges)]


# Edge multisets on n vertices: repeated edges and gain +1 loops included,
# which a GainGraph never holds but ColourClass's contraction passes on.
edge_multisets = st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.builds(edge, st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from((1, -1))),
    max_size=12)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(edge_multisets)
def test_signed_components_match_brute_force(case):
    n, edges = case
    comp, sign, comps = signed_components(n, edges)
    brute = brute_components(n, edges)
    assert len(comps) == len(brute)
    for c, ((size, count, unbalanced), (verts, es)) in enumerate(zip(comps, brute)):
        assert [v for v in range(n) if comp[v] == c] == verts
        assert (size, count) == (len(verts), len(es))
        assert unbalanced == (not brute_balanced(verts, es))
        assert sign[verts[0]] == 1
        if not unbalanced:
            assert all(e.gain == sign[e.u] * sign[e.v] for e in es)


def test_spliced_carries_the_index_and_degrees(rng):
    # a chain of splices, each on a delta whose result is a valid graph on
    # one more vertex at most, some renaming the vertices (pi) and some from
    # a parent whose index was never built, equals the graph built from
    # scratch, with the edge index and degrees a fresh build reads; it takes
    # them over only from a parent that built them, and never across a
    # rename, and leaves its parent's index as it was
    g = random_gain_graph(rng, max_n=7, max_edges=14)
    seen = set()
    for _ in range(300):
        n = g.n + (rng.random() < 0.2)
        pi = rng.sample(range(n), g.n) if rng.random() < 0.2 else None
        built = rng.random() < 0.7
        g = GainGraph.from_valid(g.n, g.edges)  # no index, no degrees
        before = {v: list(es) for v, es in g._incident.items()} if built else None
        universe = [edge(u, v, s) for u in range(n) for v in range(u, n) for s in (1, -1)
                    if u != v or s == -1]
        deleted = rng.sample(g.edges, rng.randint(0, min(3, len(g.edges))))
        kept = [e if pi is None else edge(pi[e.u], pi[e.v], e.gain) for e in g.edges if e not in deleted]
        free = [e for e in universe if e not in kept]
        added = rng.sample(free, rng.randint(0, min(3, len(free))))
        if built:
            _ = g.degrees
        h = g.spliced(n, deleted, added, pi)
        carried = "_incident" in h.__dict__
        assert carried == ("degrees" in h.__dict__) == (built and pi is None)
        want = GainGraph(n, tuple(kept + added))
        assert h == want and h.edges == want.edges and h.degrees == want.degrees
        assert {v: es for v, es in h._incident.items() if es} == want._incident
        assert not built or g._incident == before
        seen.add((carried, pi is None))
        g = h
    assert seen == {(True, True), (False, True), (False, False)}
