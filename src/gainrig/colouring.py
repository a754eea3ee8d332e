"""Facet colourings of quadrilateral-norm frameworks and the combinatorial
rigidity criteria they induce.

Every well-positioned edge orbit has a unique facet cone (up to central
symmetry), giving a 2-colouring of the quotient edges.  The geometric
verdicts are matroid tests on the two monochrome edge classes:

  character-0 isostatic  <=>  both classes are bases of the frame matroid
                              of the gain graph: spanning unbalanced map
                              graphs, whose every component has exactly one
                              cycle, and that cycle unbalanced;
  character-1 isostatic  <=>  both classes are bases of the graphic matroid:
                              spanning trees;
  infinitesimally rigid  <=>  both classes are spanning, connected, and
                              contain an unbalanced cycle (such a class
                              always contains a connected basis of the frame
                              matroid).

All three read off the per-component vertex count, edge count and balance
that ``SignedUnionFind`` keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Edge, GainGraph, SignedUnionFind
from .norms import NormError, PolyhedralNorm
from .rigidity import Framework, FrameworkError, NotWellPositioned


@dataclass(frozen=True)
class ColouredQuotient:
    """Partition of the quotient edges by facet index (0 and 1)."""

    classes: tuple[tuple[Edge, ...], tuple[Edge, ...]]


def edge_colour(fw: Framework, e: Edge) -> int:
    """Facet index (0 or 1) of the cone containing the edge's direction."""
    if not isinstance(fw.norm, PolyhedralNorm):
        raise FrameworkError("colouring requires a quadrilateral norm")
    try:
        idx, _sign = fw.norm.facet_of(fw.edge_delta(e))
    except NormError as exc:
        raise NotWellPositioned(f"edge {e.as_list()}: {exc}") from exc
    return idx


def monochrome_quotients(fw: Framework) -> ColouredQuotient:
    parts: tuple[list[Edge], list[Edge]] = ([], [])
    for e in fw.graph.edges:
        parts[edge_colour(fw, e)].append(e)
    return ColouredQuotient((tuple(parts[0]), tuple(parts[1])))


def is_unbalanced_map_graph(
    g: GainGraph, subset: Sequence[Edge], spanning: bool = True
) -> bool:
    """Every component has edge count equal to vertex count with its unique
    cycle unbalanced; with `spanning`, the subset must also touch every
    vertex of g (isolated vertices then fail the cycle condition)."""
    return all(
        len(verts) == n_edges and unbalanced
        for verts, n_edges, unbalanced in SignedUnionFind(g.n, subset).components()
        if spanning or n_edges
    )


def _is_spanning_tree(g: GainGraph, edges: Sequence[Edge]) -> bool:
    comps = SignedUnionFind(g.n, edges).components()
    return len(comps) == 1 and comps[0][1] == g.n - 1


def isostatic_classes(g: GainGraph, classes: Sequence[Sequence[Edge]], j: int) -> bool:
    """The colouring criterion for character j: every class is a basis of
    the frame matroid (j = 0) or a spanning tree (j = 1)."""
    basis = is_unbalanced_map_graph if j == 0 else _is_spanning_tree
    return all(basis(g, c) for c in classes)


def _spanning_connected_unbalanced(g: GainGraph, edges: Sequence[Edge]) -> bool:
    comps = SignedUnionFind(g.n, edges).components()
    return len(comps) == 1 and comps[0][2]


@dataclass(frozen=True)
class GeometricVerdict:
    colouring: ColouredQuotient
    chi0_isostatic: bool
    chi1_isostatic: bool
    infinitesimally_rigid: bool


def geometric_verdict(fw: Framework) -> GeometricVerdict:
    if fw.group_order != 2:
        raise FrameworkError("colouring verdicts require a half-turn symmetry")
    col = monochrome_quotients(fw)
    g = fw.graph
    rigid = all(_spanning_connected_unbalanced(g, c) for c in col.classes)
    return GeometricVerdict(
        col, isostatic_classes(g, col.classes, 0), isostatic_classes(g, col.classes, 1), rigid
    )
