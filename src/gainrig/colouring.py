"""Facet colourings of quadrilateral-norm frameworks and the combinatorial
rigidity criteria they induce.

Every well-positioned edge orbit has a unique facet cone (up to central
symmetry), giving a 2-colouring of the quotient edges.  The colour is read
from the framework's covector table (rigidity.Framework.covectors), the
single source it shares with the orbit matrix: an edge has colour 0 when
its support covector is +-facets[0], else 1, one lookup in the norm's
signed-facet table (PolyhedralNorm.colours).  The geometric verdicts are
matroid tests on the two monochrome edge classes:

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
of one graph search per class (graph.signed_components), so they depend on
no carried state.  Placement does not call them: it decides the same basis
tests on class forests (sparsity.Forest), built once per fresh framework
and edited by each one-vertex step on its new edges alone (placement
docstring).  isostatic_classes stays as geometric_verdict's test and as
the reference the tests check those forests against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import Edge, GainGraph, signed_components
from .norms import PolyhedralNorm
from .rigidity import Framework, FrameworkError


def monochrome_quotients(fw: Framework) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
    """The quotient edges of colour 0 and of colour 1, in edge order, read
    from fw's covector table once (Framework.classes)."""
    if not isinstance(fw.norm, PolyhedralNorm):
        raise FrameworkError("colouring requires a quadrilateral norm")
    return fw.classes


def _independent(size: int, n_edges: int, unbalanced: bool, j: int) -> bool:
    """Whether a component with these counts is independent in the frame
    (j = 0: a tree, or one unbalanced cycle) or graphic (j = 1) matroid."""
    return n_edges < size or j == 0 and n_edges == size and unbalanced


def isostatic_classes(g: GainGraph, classes: Sequence[Sequence[Edge]], j: int) -> bool:
    """The colouring criterion for character j: every class is a basis of
    the frame matroid (j = 0) or a spanning tree (j = 1): n - j edges whose
    components are independent, by one graph search per class."""
    return all(len(c) == g.n - j and all(_independent(*comp, j) for comp in signed_components(g.n, c)[2])
               for c in classes)


def _spanning_connected_unbalanced(g: GainGraph, edges: Sequence[Edge]) -> bool:
    comps = signed_components(g.n, edges)[2]
    return len(comps) == 1 and comps[0][2]


@dataclass(frozen=True)
class GeometricVerdict:
    classes: tuple[tuple[Edge, ...], tuple[Edge, ...]]
    chi0_isostatic: bool
    chi1_isostatic: bool
    infinitesimally_rigid: bool


def geometric_verdict(fw: Framework) -> GeometricVerdict:
    if fw.group_order != 2:
        raise FrameworkError("colouring verdicts require a half-turn symmetry")
    classes = monochrome_quotients(fw)
    g = fw.graph
    rigid = all(_spanning_connected_unbalanced(g, c) for c in classes)
    return GeometricVerdict(
        classes, isostatic_classes(g, classes, 0), isostatic_classes(g, classes, 1), rigid
    )
