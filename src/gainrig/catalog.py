"""The counts the inductive construction serves, in REGIMES: (2,2,0) with all
fourteen moves and the bases a..h, (2,2,2) with six moves and the vertex k1.

Fixed members of a..h:
  a — two vertices joined by a parallel pair (gains +-1), a loop on each;
  b — balanced triangle (all gains +1) with a loop on every vertex;
  c — doubled triangle minus one edge not at the loop vertex, plus that loop;
  d..h — balanced K4 (all gains +1) plus two extra unbalanced edges.

The d..h members are not transcribed from pictures.  Every way of adding two
extra edges (a parallel gain -1 edge on one of the six pairs, or a gain -1
loop) to the balanced K4, filtered by (2,2,0)-gain-tightness and deduplicated
up to gain-graph isomorphism, leaves exactly five classes.  Their
representatives, ordered by sorted edge triples, are frozen here as extra-edge
pairs; tests/test_catalog.py re-derives them by that enumeration.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .graph import GainGraph, edge, invariant
from .iso import isomorphism
from .moves import ALL_KINDS, KINDS_222
from .sparsity import SparsityParams, check_tight

PARAMS_220 = SparsityParams(2, 2, 0)
PARAMS_222 = SparsityParams(2, 2, 2)

K1 = GainGraph(1, ())

BALANCED_K4 = GainGraph.from_triples(
    4, [(i, j, 1) for i, j in combinations(range(4), 2)]
)


# The two extra edges of d..h on BALANCED_K4.
_K4_EXTRAS = {
    "d": ((0, 0, -1), (0, 1, -1)),
    "e": ((0, 0, -1), (1, 1, -1)),
    "f": ((0, 1, -1), (0, 2, -1)),
    "g": ((0, 1, -1), (2, 2, -1)),
    "h": ((0, 1, -1), (2, 3, -1)),
}


def _build_catalog() -> dict[str, GainGraph]:
    cat = {
        "a": GainGraph.from_triples(
            2, [(0, 1, 1), (0, 1, -1), (0, 0, -1), (1, 1, -1)]
        ),
        "b": GainGraph.from_triples(
            3,
            [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 0, -1), (1, 1, -1), (2, 2, -1)],
        ),
        "c": GainGraph.from_triples(
            3,
            [(0, 1, 1), (0, 1, -1), (0, 2, 1), (0, 2, -1), (1, 2, 1), (0, 0, -1)],
        ),
    }
    for name, extras in _K4_EXTRAS.items():
        cat[name] = GainGraph(4, BALANCED_K4.edges + tuple(edge(*t) for t in extras))
    return cat


BASE_CATALOG: dict[str, GainGraph] = _build_catalog()

REGIMES: dict[SparsityParams, tuple[tuple[str, ...], dict[str, GainGraph]]] = {
    PARAMS_220: (ALL_KINDS, BASE_CATALOG),
    PARAMS_222: (KINDS_222, {"k1": K1}),
}

invariant(len(BASE_CATALOG) == 8, "expected exactly 8 base graphs")
invariant(
    all(check_tight(g, p) for p, (_, bases) in REGIMES.items() for g in bases.values()),
    "a base graph is not tight under its own counts",
)


def regime(p: SparsityParams) -> tuple[tuple[str, ...], dict[str, GainGraph]]:
    """(move kinds, bases by id) of count p; ValueError if p is not served."""
    if p not in REGIMES:
        raise ValueError(f"the moves serve counts (2, 2, 0) and (2, 2, 2) only, got {p.as_tuple()}")
    return REGIMES[p]


def is_base_graph(
    g: GainGraph, p: SparsityParams
) -> Optional[tuple[str, tuple[int, ...], tuple[int, ...]]]:
    """(id, pi, signs) of the base of p's regime that apply_iso(g, pi, signs)
    equals, or None if g is isomorphic (switching + relabelling) to none."""
    counts = (g.n, len(g.edges), sorted(g.degrees))  # isomorphic graphs share these
    for name, member in regime(p)[1].items():
        if counts == (member.n, len(member.edges), sorted(member.degrees)):
            iso = isomorphism(g, member)
            if iso is not None:
                return (name, *iso)
    return None


def graph_for_base_id(base_id: str) -> GainGraph:
    """The base of that id in either regime; ValueError for any other id."""
    for _, bases in REGIMES.values():
        if base_id in bases:
            return bases[base_id]
    raise ValueError(f"unknown base id {base_id!r}")
