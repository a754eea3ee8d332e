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
of one graph search (graph.signed_components).  The basis tests go through
ColourClass, which also tests a placement step's new edges alone against
its kept classes.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Sequence

from .graph import Edge, GainGraph, signed_components
from .norms import PolyhedralNorm
from .rigidity import Framework, FrameworkError


def monochrome_quotients(fw: Framework) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
    """The quotient edges of colour 0 and of colour 1, in edge order, read
    from fw's covector table once and kept with fw (Framework.classes)."""
    if not isinstance(fw.norm, PolyhedralNorm):
        raise FrameworkError("colouring requires a quadrilateral norm")
    return fw.classes


def _independent(size: int, n_edges: int, unbalanced: bool, j: int) -> bool:
    """Whether a component with these counts is independent in the frame
    (j = 0: a tree, or one unbalanced cycle) or graphic (j = 1) matroid."""
    return n_edges < size or j == 0 and n_edges == size and unbalanced


class ColourClass:
    """An edge set on n vertices, searched once, that tells in
    O(len(added)) whether it becomes a basis for character j with `added`:
    frame- (j = 0) or graphic- (j = 1) independent, with n - j edges."""

    def __init__(self, n: int, edges: Sequence[Edge], j: int) -> None:
        self.edges, self.j = edges, j
        self.comp, self.sign, self.comps = signed_components(n, edges)
        self.independent = all(_independent(*c, j) for c in self.comps)

    def is_basis(self, added: Sequence[Edge] = ()) -> bool:
        """Each component the added edges touch is contracted to one local
        vertex, with a gain -1 loop if it holds its (unbalanced) cycle, and
        each added edge joins its ends' local vertices at its switched gain.
        Contraction keeps every component's edges - vertices and balance."""
        if not (self.independent and len(self.edges) + len(added) == len(self.comp) - self.j):
            return False
        comp, sign = self.comp, self.sign
        touched = dict.fromkeys(comp[w] for e in added for w in (e.u, e.v))
        local = {c: i for i, c in enumerate(touched)}
        ends = [(local[comp[e.u]], local[comp[e.v]], sign[e.u] * sign[e.v] * e.gain) for e in added]
        ends += [(i, i, -1) for c, i in local.items() if self.comps[c][1] == self.comps[c][0]]
        return all(_independent(*c, self.j) for c in signed_components(len(local), ends)[2])

    def extended(self, added: Sequence[Edge]) -> tuple[Edge, ...]:
        """The edges and `added`, in edge order if both are."""
        out = list(self.edges)
        for e in added:
            insort(out, e)
        return tuple(out)


def isostatic_classes(g: GainGraph, classes: Sequence[Sequence[Edge]], j: int) -> bool:
    """The colouring criterion for character j: every class is a basis of
    the frame matroid (j = 0) or a spanning tree (j = 1)."""
    return all(ColourClass(g.n, c, j).is_basis() for c in classes)


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
