"""The signed spanning forest behind each side of a sparsity.Partition,
checked against the component peel it replaced: circuits from the 2-core of
the new edge's components (_two_core, _circuit_in_core, kept here as the
oracle) and the forest's structure after every update; its O(1)
independence test against the oracle's verdict."""

import random
from itertools import combinations

import pytest

from gainrig.graph import Edge, InvariantViolation, edge
from gainrig.sparsity import Partition, SparsityParams, Forest

from conftest import brute_balanced, brute_components


def _two_core(edges: list[Edge]) -> list[Edge]:
    """The edges left after deleting, again and again, the edge at a vertex
    of degree 1 (a loop counts 2)."""
    at: dict[int, list[int]] = {}
    for i, e in enumerate(edges):
        at.setdefault(e.u, []).append(i)
        at.setdefault(e.v, []).append(i)
    degree = {w: len(ix) for w, ix in at.items()}
    alive = [True] * len(edges)
    leaves = [w for w, d in degree.items() if d == 1]
    while leaves:
        w = leaves.pop()
        if degree[w] != 1:
            continue
        i = next(i for i in at[w] if alive[i])
        alive[i] = False
        e = edges[i]
        degree[e.u] -= 1
        degree[e.v] -= 1
        if degree[e.other(w)] == 1:
            leaves.append(e.other(w))
    return [e for e, kept in zip(edges, alive) if kept]


def _circuit_in_core(core: list[Edge]) -> list[Edge]:
    """The circuit of a connected 2-core with at most two independent cycles,
    of which the old one (if any) is unbalanced: a lone cycle; else the
    core's balanced cycle (a theta has one, a handcuff one if its new cycle
    is balanced); else the whole handcuff."""
    at: dict[int, list[Edge]] = {}
    for e in core:
        at.setdefault(e.u, []).append(e)
        at.setdefault(e.v, []).append(e)
    branch = [w for w, es in at.items() if len(es) > 2]
    if not branch:
        return core
    used: set[Edge] = set()
    paths = []
    for a in branch:
        for e in at[a]:
            if e in used:
                continue
            path, w = [e], e.other(a)
            used.add(e)
            while len(at[w]) == 2:
                e = at[w][0] if at[w][1] == e else at[w][1]
                path.append(e)
                used.add(e)
                w = e.other(w)
            paths.append((a, w, path))
    cycles = [path for a, b, path in paths if a == b]
    if not cycles:
        cycles = [p1 + p2 for (_, _, p1), (_, _, p2) in combinations(paths, 2)]
    for cycle in cycles:
        gain = 1
        for e in cycle:
            gain *= e.gain
        if gain == 1:
            return cycle
    return core


def oracle_circuit(n: int, side: list[Edge], x: Edge, frame: bool):
    """None if side plus x is independent, else the circuit of x, from the
    counts of x's components (conftest's graph search, and its sign
    enumeration for balance) and the peel of those components."""
    comps = [(vs, es) for vs, es in brute_components(n, side) if x.u in vs or x.v in vs]

    def has_cycle(verts: list[int], edges: list[Edge]) -> bool:
        return len(edges) == len(verts)

    if len(comps) == 2:
        if not (frame and all(has_cycle(*c) for c in comps)):
            return None
    elif frame and not has_cycle(*comps[0]) and not brute_balanced(comps[0][0], comps[0][1] + [x]):
        return None
    touched = {v for vs, _ in comps for v in vs}
    local = [e for e in side if e.u in touched]
    return _circuit_in_core(_two_core(local + [x]))


def sorted_circuit(f: Forest, x: Edge):
    """None if f's side plus x is independent, else x's circuit (Forest.circuit,
    a set) in edge order."""
    return None if f.independent(x) else sorted(f.circuit(x))


def assert_forest(f: Forest, side: set[Edge]) -> None:
    """Parent, depth, sign and tree label agree along each tree edge, and a
    vertex without a tree edge is its own parent; the side is the tree edges
    plus at most one extra edge per frame tree (none on a graphic side),
    which closes an unbalanced cycle; each component of a graph search of
    the side is one tree, with one label of its own, one top vertex and its
    size kept under its label."""
    n = len(f.parent)
    assert {e for w in range(n) for e in f.at[w]} == side
    tree = set()
    for v in range(n):
        e, p = f.pedge[v], f.parent[v]
        if e is None:
            assert p == v
            continue
        assert e in side and not e.is_loop() and e.touches(v) and e.other(v) == p
        assert f.depth[v] == f.depth[p] + 1
        assert f.sign[v] == f.sign[p] * e.gain
        assert f.root[v] == f.root[p]
        tree.add(e)
    assert f.frame or not f.extra
    for r, e in f.extra.items():
        assert f.root[e.u] == f.root[e.v] == r
        assert e.is_loop() or f.sign[e.u] * f.sign[e.v] != e.gain
    assert len(tree) + len(f.extra) == len(side) == len(f)
    assert side == tree | set(f.extra.values())
    comps = brute_components(n, side)
    for verts, _ in comps:
        assert len({f.root[v] for v in verts}) == 1
        assert sum(f.pedge[v] is None for v in verts) == 1
        assert f.size[f.root[verts[0]]] == len(verts)
    assert len({f.root[verts[0]] for verts, _ in comps}) == len(comps) == len(f.size)


def all_edges(n: int) -> list[Edge]:
    """Every edge a gain graph on n vertices may hold."""
    return [edge(u, v, g) for u in range(n) for v in range(u, n)
            for g in (1, -1) if u != v or g == -1]


@pytest.mark.parametrize("counts", [(2, 2, 0), (2, 2, 2), (3, 3, 1)])
def test_random_updates_match_the_peel(counts):
    p = SparsityParams(*counts)
    rng = random.Random(str(counts))
    for frame in Partition(6, p).frames:
        for n in (4, 6):
            pool = all_edges(n)
            f, side = Forest(n, frame), set()
            for _ in range(300):
                x = rng.choice(pool)
                if x in side and rng.random() < 0.7:
                    f.remove(x)
                    side.remove(x)
                elif x not in side and f.independent(x):
                    f.add(x)
                    side.add(x)
                else:
                    continue
                assert_forest(f, side)
                for y in pool:
                    if y not in side:
                        want = oracle_circuit(n, sorted(side), y, frame)
                        assert sorted_circuit(f, y) == (None if want is None else sorted(want))
                        assert f.independent(y) == (want is None)


def test_built_forest_matches_updated_one():
    # a forest grown in random order and then thinned by removals (tree-edge
    # splits among them) has the circuits of one built from its side anew
    rng = random.Random(5)
    for frame in (False, True):
        pool = all_edges(7)
        f, side = Forest(7, frame), set()
        for x in rng.sample(pool, len(pool)):
            if f.independent(x):
                f.add(x)
                side.add(x)
        for x in rng.sample(sorted(side), len(side) // 3):
            f.remove(x)
            side.remove(x)
        assert_forest(f, side)
        built = Forest(7, frame)
        for x in sorted(side):
            built.add(x)
        assert_forest(built, side)
        for y in pool:
            if y not in side:
                assert sorted_circuit(built, y) == sorted_circuit(f, y)


def test_merge_reroots_a_tree_with_its_extra_edge():
    # The smaller tree {3, 4, 5} is rooted at 3, with extra edge (3, 5, -1).
    # Joining it to {0, 1, 2, 6} at 5 re-roots it at 5, where both (4, 5)
    # and (3, 5) become tree edges: the search must keep (3, 4) as the
    # extra edge, not the old one.
    f = Forest(8, True)
    side = [edge(0, 1, 1), edge(1, 2, 1), edge(2, 6, 1),
            edge(3, 4, 1), edge(4, 5, 1), edge(3, 5, -1)]
    for e in side:
        f.add(e)
    assert f.extra == {3: edge(3, 5, -1)}
    f.add(edge(2, 5, 1))
    side.append(edge(2, 5, 1))
    assert f.extra == {0: edge(3, 4, 1)}
    assert_forest(f, set(side))
    for y in all_edges(8):
        if y not in side:
            want = oracle_circuit(8, sorted(side), y, True)
            assert sorted_circuit(f, y) == (None if want is None else sorted(want))
    # a loop at 0 closes a handcuff through the path 0-1-2-5
    assert sorted_circuit(f, edge(0, 0, -1)) == sorted(side[:2] + [edge(0, 0, -1)] + side[3:])


@pytest.mark.parametrize("frame, side, x", [
    (False, [edge(0, 1, 1)], edge(0, 1, -1)),  # a cycle on a graphic side
    (True, [edge(0, 1, 1), edge(1, 2, 1)], edge(0, 2, 1)),  # a balanced cycle
    (True, [edge(0, 1, 1), edge(0, 1, -1)], edge(1, 1, -1)),  # a tree's second cycle
    (True, [edge(0, 0, -1), edge(1, 1, -1)], edge(0, 1, 1)),  # two trees with cycles
])
def test_add_refuses_a_dependent_edge(frame, side, x):
    # add's check is an invariant, not an assert, so it holds under python -O
    f = Forest(3, frame)
    for e in side:
        f.add(e)
    assert not f.independent(x)
    with pytest.raises(InvariantViolation):
        f.add(x)
