"""Z2-gain graphs: validity, balance, components.

A gain graph here is a finite multigraph on vertices 0..n-1 whose edges carry
a gain in {+1, -1}.  Loops must have gain -1, and no two parallel edges may
share a gain, so the two-fold covering graph is always simple.  An edge is
identified by its normalised triple (u, v, gain) with u <= v; by the validity
invariants this triple is unique within a graph and doubles as the edge's id.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence


class GainGraphError(ValueError):
    """Base error for malformed gain graphs."""


class GainOneLoop(GainGraphError):
    """A loop with gain +1 (covering graph would contain a loop)."""


class DuplicateParallelEdge(GainGraphError):
    """Two parallel edges with the same gain (covering graph not simple)."""


class BadVertexIndex(GainGraphError):
    """Edge endpoint outside 0..n-1."""


class InvariantViolation(RuntimeError):
    """An internal invariant failed: a bug in gainrig, not bad input.

    Raised explicitly rather than by ``assert`` so the checks also run under
    ``python -O``.
    """


def invariant(condition: bool, message: str) -> None:
    """Raise InvariantViolation(message) unless condition holds."""
    if not condition:
        raise InvariantViolation(message)


class Edge(NamedTuple):
    """Undirected gain edge, normalised so u <= v; loops have u == v.

    A tuple, so hashing, equality and ordering run as the tuple's, by
    (u, v, gain); an edge therefore also equals the plain triple."""

    u: int
    v: int
    gain: int

    def is_loop(self) -> bool:
        return self.u == self.v

    def other(self, w: int) -> int:
        """The endpoint opposite w (w itself for a loop)."""
        return self.v if w == self.u else self.u

    def touches(self, w: int) -> bool:
        return w == self.u or w == self.v

    def as_list(self) -> list[int]:
        return [self.u, self.v, self.gain]


def edge(u: int, v: int, gain: int) -> Edge:
    """Normalised edge constructor (sorts endpoints)."""
    if u > v:
        u, v = v, u
    return Edge(u, v, gain)


def signed_components(
    n: int, edges: Iterable[Sequence[int]]
) -> tuple[list[int], list[int], list[tuple[int, int, bool]]]:
    """Components of the (u, v, gain) triples on vertices 0..n-1, by one
    breadth-first search and one pass over the edges.

    Returns each vertex's component index, the components numbered by
    smallest vertex; each vertex's switching sign, +1 at that smallest
    vertex, found along the search tree; and per component its vertex
    count, edge count and whether it is unbalanced (no signs satisfy
    s_u * s_v = gain on all its edges: a cycle of gain -1, or a gain -1
    loop).  Repeated edges and gain +1 loops are accepted.  These counts
    decide independence in the frame matroid (every component has at most
    one cycle, and that cycle is unbalanced) and in the graphic matroid
    (no component has a cycle).
    """
    edges = list(edges)
    at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, gain in edges:
        at[u].append((v, gain))
        at[v].append((u, gain))
    comp, sign, size = [-1] * n, [1] * n, []
    for s in range(n):
        if comp[s] < 0:
            comp[s], queue = len(size), [s]
            for x in queue:
                for y, gain in at[x]:
                    if comp[y] < 0:
                        comp[y], sign[y] = comp[x], sign[x] * gain
                        queue.append(y)
            size.append(len(queue))
    count, unbalanced = [0] * len(size), [False] * len(size)
    for u, v, gain in edges:
        count[comp[u]] += 1
        if sign[u] * sign[v] != gain:
            unbalanced[comp[u]] = True
    return comp, sign, list(zip(size, count, unbalanced))


@dataclass(frozen=True)
class GainGraph:
    """Immutable Z2-gain graph; the constructor validates and raises."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        if self.n < 0:
            raise BadVertexIndex("vertex count must be non-negative")
        seen, n = set(), self.n
        for e in self.edges:
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise BadVertexIndex(f"BadVertexIndex: edge {e.as_list()} outside 0..{n - 1}")
            if e.gain not in (1, -1):
                raise GainGraphError(f"BadGain: edge {e.as_list()} gain must be +1 or -1")
            if e.is_loop() and e.gain == 1:
                raise GainOneLoop(f"GainOneLoop: loop at {e.u} with gain +1")
            if e in seen:
                raise DuplicateParallelEdge(f"DuplicateParallelEdge: edge {e.as_list()} repeated")
            seen.add(e)

    @staticmethod
    def from_valid(n: int, edges: tuple[Edge, ...]) -> "GainGraph":
        """The graph of edges known to be sorted and valid on n vertices, unchecked."""
        g = object.__new__(GainGraph)
        g.__dict__.update(n=n, edges=edges)
        return g

    def spliced(self, n: int, deleted: Sequence[Edge], added: Sequence[Edge],
                pi: Optional[Sequence[int]] = None) -> "GainGraph":
        """The graph on n vertices of a step's delta (moves.move_delta, or a
        reduction's), which the caller has checked: this graph without the
        deleted edges, renamed by pi (vertex a becomes pi[a]) if given, with
        the added ones, spliced into the sorted edges by bisection.  Without
        pi it takes over this graph's edge index and degrees if both are
        built, with only the touched vertices' redone."""
        edges = list(self.edges)
        for e in deleted:
            del edges[bisect_left(edges, e)]
        if pi is not None:  # a rename reorders the edges: one sort, nothing carried
            renamed = [edge(pi[e.u], pi[e.v], e.gain) for e in edges]
            return GainGraph.from_valid(n, tuple(sorted(renamed + list(added))))
        for e in added:
            insort(edges, e)
        g = GainGraph.from_valid(n, tuple(edges))
        if "_incident" not in self.__dict__ or "degrees" not in self.__dict__:
            return g
        at, degrees = dict(self._incident), self.degrees + [0] * (n - self.n)
        g.__dict__.update(_incident=at, degrees=degrees)
        for step, e in [*((-1, e) for e in deleted), *((1, e) for e in added)]:
            for x in {e.u, e.v}:  # new lists: self's stay as they are
                kept = [f for f in at.get(x, ()) if f != e]
                at[x] = kept if step < 0 else sorted(kept + [e])
            degrees[e.u] += step
            degrees[e.v] += step
        return g

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_triples(n: int, triples: Iterable[Sequence[int]]) -> "GainGraph":
        return GainGraph(n, tuple(edge(u, v, g) for (u, v, g) in triples))

    def triples(self) -> list[list[int]]:
        return [e.as_list() for e in self.edges]

    # -- local structure -----------------------------------------------------

    @cached_property
    def _incident(self) -> dict[int, list[Edge]]:
        """The edges at each vertex, in edge order, a loop once.  Built on
        first use; == and hash compare the fields only, so they ignore it."""
        at: dict[int, list[Edge]] = {}
        for e in self.edges:
            at.setdefault(e.u, []).append(e)
            if not e.is_loop():
                at.setdefault(e.v, []).append(e)
        return at

    def has_edge(self, e: Edge) -> bool:  # by bisection: no index is built
        i = bisect_left(self.edges, e)
        return self.edges[i:i + 1] == (e,)

    def edges_at(self, v: int, include_loop: bool = True) -> list[Edge]:
        return [e for e in self._incident.get(v, ()) if include_loop or not e.is_loop()]

    def loop_at(self, v: int) -> Optional[Edge]:  # a loop has gain -1
        return Edge(v, v, -1) if self.has_edge(Edge(v, v, -1)) else None

    @cached_property
    def degrees(self) -> list[int]:
        """Each vertex's degree, a loop counting 2, from one edge pass."""
        out = [0] * self.n
        for u, v, _ in self.edges:
            out[u] += 1
            out[v] += 1
        return out

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def induced_edges(self, vertices: Iterable[int]) -> tuple[Edge, ...]:
        s = set(vertices)
        return tuple(e for e in self.edges if e.u in s and e.v in s)

    # -- balance -------------------------------------------------------------

    def balance_potential(
        self, subset: Optional[Iterable[Edge]] = None
    ) -> Optional[list[int]]:
        """Signs s with gain(e) = s_u * s_v for every edge of the subset.

        Returns None if the subset is unbalanced (contains a loop or a cycle
        of gain -1).  The smallest vertex of each component gets sign +1, and
        vertices not touched by the subset get sign +1.
        """
        edges = list(self.edges if subset is None else subset)
        known = set(self.edges)
        for e in edges:
            if e not in known:
                raise GainGraphError(f"unknown edge {e.as_list()}")
        _, sign, comps = signed_components(self.n, edges)
        return None if any(unbalanced for _, _, unbalanced in comps) else sign

    def is_balanced(self, subset: Optional[Iterable[Edge]] = None) -> bool:
        """True iff every cycle of the subset (loops included) has gain +1."""
        return self.balance_potential(subset) is not None

    # -- global structure ----------------------------------------------------

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists (isolated included)."""
        comp, _, comps = signed_components(self.n, self.edges)
        groups: list[list[int]] = [[] for _ in comps]
        for v, c in enumerate(comp):
            groups[c].append(v)
        return groups

    def subgraph(self, vertices: Sequence[int]) -> "GainGraph":
        """Induced subgraph on the given vertices, relabelled 0..k-1."""
        order = {v: i for i, v in enumerate(sorted(set(vertices)))}
        return GainGraph(
            len(order),
            tuple(
                edge(order[e.u], order[e.v], e.gain)
                for e in self.induced_edges(order)
            ),
        )

    def union(self, other: "GainGraph") -> "GainGraph":
        """Vertex-disjoint union; other's vertices are shifted by self.n."""
        shifted = tuple(
            edge(e.u + self.n, e.v + self.n, e.gain) for e in other.edges
        )
        return GainGraph(self.n + other.n, self.edges + shifted)


def disjoint_union(graphs: Sequence[GainGraph]) -> GainGraph:
    out = GainGraph(0, ())
    for g in graphs:
        out = out.union(g)
    return out

