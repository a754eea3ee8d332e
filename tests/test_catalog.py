from itertools import combinations

import pytest

from gainrig.catalog import (
    BALANCED_K4,
    BASE_CATALOG,
    K1,
    PARAMS_220,
    PARAMS_222,
    graph_for_base_id,
    is_base_graph,
    regime,
)
from gainrig.graph import GainGraph, edge
from gainrig.iso import apply_iso, are_isomorphic
from gainrig.sparsity import SparsityParams, check_tight


def test_catalog_size_and_tightness():
    assert sorted(BASE_CATALOG) == list("abcdefgh")
    for g in BASE_CATALOG.values():
        assert check_tight(g, PARAMS_220)


def test_catalog_pairwise_non_isomorphic():
    for x, y in combinations(BASE_CATALOG, 2):
        assert not are_isomorphic(BASE_CATALOG[x], BASE_CATALOG[y])


def test_frozen_representatives():
    assert BASE_CATALOG["a"].triples() == [
        [0, 0, -1], [0, 1, -1], [0, 1, 1], [1, 1, -1]
    ]
    assert BASE_CATALOG["b"].triples() == [
        [0, 0, -1], [0, 1, 1], [0, 2, 1], [1, 1, -1], [1, 2, 1], [2, 2, -1]
    ]
    # the five four-vertex members each contain a balanced K4
    k4 = [[0, 1, 1], [0, 2, 1], [0, 3, 1], [1, 2, 1], [1, 3, 1], [2, 3, 1]]
    for bid in "defgh":
        g = BASE_CATALOG[bid]
        assert g.n == 4 and len(g.edges) == 8
        for t in k4:
            assert t in g.triples()


def test_recognition_under_switch_and_relabel():
    for bid, g in BASE_CATALOG.items():
        h = apply_iso(
            g,
            list(reversed(range(g.n))),
            [(-1) ** i for i in range(g.n)],
        )
        found, pi, signs = is_base_graph(h, PARAMS_220)
        assert found == bid and apply_iso(h, pi, signs) == g


def test_recognition_rejects_non_bases():
    assert is_base_graph(GainGraph(1, ()), PARAMS_220) is None
    assert is_base_graph(GainGraph.from_triples(2, [[0, 1, 1]]), PARAMS_220) is None
    assert is_base_graph(BASE_CATALOG["a"], PARAMS_222) is None


def test_recognition_of_k1_is_by_regime():
    assert is_base_graph(K1, PARAMS_222) == ("k1", (0,), (1,))
    assert is_base_graph(K1, PARAMS_220) is None


def test_regime_serves_220_and_222_only():
    assert regime(PARAMS_220)[1] is BASE_CATALOG
    assert regime(PARAMS_222)[1] == {"k1": K1}
    with pytest.raises(ValueError, match=r"\(2, 2, 0\) and \(2, 2, 2\) only, got \(2, 2, 1\)"):
        regime(SparsityParams(2, 2, 1))


def test_graph_for_base_id():
    assert graph_for_base_id("k1") == GainGraph(1, ())
    assert graph_for_base_id("c") == BASE_CATALOG["c"]


def _k4_plus_two() -> list[GainGraph]:
    """All tight balanced-K4-plus-two-edges graphs, one per isomorphism
    class, ordered by sorted edge triples."""
    extras = [edge(i, j, -1) for i, j in combinations(range(4), 2)]
    extras += [edge(i, i, -1) for i in range(4)]
    classes: list[GainGraph] = []
    for e1, e2 in combinations(extras, 2):
        g = GainGraph(4, BALANCED_K4.edges + (e1, e2))
        if not check_tight(g, PARAMS_220):
            continue
        if any(are_isomorphic(g, h) for h in classes):
            continue
        classes.append(g)
    classes.sort(key=lambda g: g.triples())
    return classes


def test_frozen_k4_members_are_the_enumerated_classes():
    assert _k4_plus_two() == [BASE_CATALOG[bid] for bid in "defgh"]
