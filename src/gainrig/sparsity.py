"""(k,k,m)-gain-sparsity with witnesses, plus an unpruned brute-force oracle.

A gain graph is (k,l,m)-gain-sparse when every nonempty balanced edge subset
F satisfies |F| <= k|V(F)| - l and every nonempty edge subset satisfies
|F| <= k|V(F)| - m; gain-tight adds |E| = k|V| - m.

Every l = k count is matroidal: a graph is (k,k,m)-sparse iff its edges
split into m forests (graphic matroid) and k - m sets independent in the
frame matroid (every component a tree, or one cycle that is unbalanced), as
on a connected edge set C those k ranks sum to k|V(C)| - k if C is balanced
and to k|V(C)| - m if not.  The half turn's Maxwell counts in d dimensions,
(d,d,d-2) at chi0 and (d,d,2) at chi1, are such counts.  The checker runs
Edmonds' matroid partition: it inserts the edges in sorted order, each by
a breadth-first search for a shortest augmenting path.  Each side is a
signed spanning forest, plus one extra edge per tree on a frame side, so
the circuit an edge closes is read off tree paths (_Forest.circuit), and
an augmentation re-roots or searches again only the trees it changes.  If
an edge is blocked, every element the search reached lies in each side's
span of the reached set S, so |S| is one more than the sides' ranks of S
summed, and some component C of S breaks its own count: the witness, over
its own bound but not always the smallest.  A move or a reduction keeps
all but a few edges of a tight graph, so tight_partition carries the
Partition across it and inserts only the 1-4 edges it adds.

SparsityParams rejects every count with l != k: in a normed space that is
not Euclidean the only trivial motions are translations, so every count the
paper derives has l = k.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Optional

from .graph import Edge, GainGraph, InvariantViolation, invariant, signed_components


class OracleGuardExceeded(ValueError):
    """The brute-force oracle refused an input."""


@dataclass(frozen=True)
class SparsityParams:
    k: int
    l: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"counts {self.as_tuple()}: k must be a positive integer")
        if self.l != self.k:
            raise ValueError(f"counts {self.as_tuple()}: l must equal k")
        if not 0 <= self.m <= self.k:
            raise ValueError(f"counts {self.as_tuple()}: m must lie in [0, k]")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.k, self.l, self.m)


@dataclass(frozen=True)
class SparsityReport:
    passed: bool
    witness: Optional[tuple[Edge, ...]] = None
    support: Optional[tuple[int, ...]] = None
    bound: Optional[int] = None
    balanced_violation: Optional[bool] = None


def _support(edges: Iterable[Edge]) -> tuple[int, ...]:
    s: set[int] = set()
    for e in edges:
        s.add(e.u)
        s.add(e.v)
    return tuple(sorted(s))


def _violation_report(
    g: GainGraph, edges: tuple[Edge, ...], p: SparsityParams, balanced: bool
) -> SparsityReport:
    """Shrink a violating edge set to its own support and re-derive the bound."""
    support = _support(edges)
    offset = p.l if balanced else p.m
    bound = p.k * len(support) - offset
    invariant(len(edges) > bound, "witness does not violate its own bound")
    invariant(not balanced or g.is_balanced(edges), "balanced witness is unbalanced")
    return SparsityReport(
        passed=False,
        witness=edges,
        support=support,
        bound=bound,
        balanced_violation=balanced,
    )


def check_sparsity(g: GainGraph, p: SparsityParams) -> SparsityReport:
    """Whether g is p-sparse; witness on failure.  g's edges go in order
    into an empty Partition, and the first blocked edge gives the witness
    (over its own bound, but not always the smallest)."""
    part = Partition(g.n, p, {})
    for y in g.edges:
        reached = part.insert(y)
        if reached is not None:
            return _blocked_report(g, p, reached)
    return SparsityReport(passed=True)


class _Forest:
    """One partition side as a rooted spanning forest of its edges: per
    vertex its parent, tree edge, depth, sign relative to its root (a tree
    edge's gain is the product of its ends' signs) and root, and its edges on
    the side (``at``).  A frame side also keeps, per root, the one edge off
    its tree if it has one (``extra``), closing an unbalanced cycle."""

    def __init__(self, n: int, frame: bool, edges: Iterable[Edge]) -> None:
        self.frame = frame
        self.at: list[dict[Edge, None]] = [{} for _ in range(n)]
        for e in edges:
            self.at[e.u][e] = self.at[e.v][e] = None
        self.parent = list(range(n))
        self.root = list(range(n))
        self.size = [1] * n  # vertices in the tree, kept at its root
        self.pedge: list[Optional[Edge]] = [None] * n
        self.depth = [0] * n
        self.sign = [1] * n
        self.extra: dict[int, Edge] = {}
        for w in range(n):
            if self.root[w] == w:  # not reached from a smaller vertex
                self._span(w, None)

    def _span(self, start: int, up: Optional[Edge]) -> set[int]:
        """Hang start's component from the far end of its tree edge ``up``
        (or make it a tree) by breadth-first search; the one edge off the tree
        it meets is the tree's extra edge.  Returns the vertices reached."""
        root = start if up is None else self.root[up.other(start)]
        seen, queue = {start}, [(start, up)]
        for w, f in queue:  # f is w's tree edge
            p = w if f is None else f.other(w)
            self.parent[w], self.pedge[w], self.root[w] = p, f, root
            self.depth[w] = 0 if f is None else self.depth[p] + 1
            self.sign[w] = 1 if f is None else self.sign[p] * f.gain
            for e in self.at[w]:
                z = e.other(w)
                if e is f:
                    continue
                if z not in seen:
                    seen.add(z)
                    queue.append((z, e))
                else:  # a tree keeps at most one edge off it
                    invariant(self.frame and self.extra.setdefault(root, e) == e,
                              "a partition side is not independent")
        if up is None:
            self.size[start] = len(queue)
        return seen

    def add(self, e: Edge) -> None:
        """Add e, which must keep the side independent.  Joining two trees
        re-roots the smaller at its end of e; it keeps the extra edge its
        search meets, not its old one, which may now be a tree edge."""
        invariant(self.circuit(e) is None, "a partition side is not independent")
        self.at[e.u][e] = self.at[e.v][e] = None
        ru, rv = self.root[e.u], self.root[e.v]
        if ru == rv:
            self.extra[ru] = e
            return
        start, big = (e.u, rv) if self.size[ru] < self.size[rv] else (e.v, ru)
        self.extra.pop(self.root[start], None)
        self.size[big] += len(self._span(start, e))

    def remove(self, e: Edge) -> None:
        """Remove e; if it is a tree edge, search its tree again."""
        del self.at[e.u][e]
        self.at[e.v].pop(e, None)
        root = self.root[e.u]
        if self.extra.pop(root, None) != e:
            child = e.u if self.pedge[e.u] == e else e.v
            invariant(self.pedge[child] == e, "removed edge is not on the side")
            if child not in self._span(root, None):
                self._span(child, None)

    def _path(self, a: int, b: int, *also: Edge) -> tuple[set[Edge], int]:
        """The tree edges between a and b, in one tree, with ``also``, and
        the top vertex of that path (their lowest common ancestor)."""
        out = set(also)
        while a != b:
            if self.depth[a] < self.depth[b]:
                a, b = b, a
            out.add(self.pedge[a])
            a = self.parent[a]
        return out, a

    def circuit(self, x: Edge) -> Optional[list[Edge]]:
        """None if the side plus x is independent, else the circuit of x in
        edge order: x's cycle if balanced (or on a graphic side); with the
        extra edge's cycle, their sum if they share an edge (a theta), else
        both and the path between them (a handcuff); across two trees, both
        extra cycles, the paths from x's ends to them, and x."""
        ru, rv = self.root[x.u], self.root[x.v]
        if ru != rv:
            if not (self.frame and ru in self.extra and rv in self.extra):
                return None
            eu, ev = self.extra[ru], self.extra[rv]
            cu, tu = self._path(eu.u, eu.v, eu)
            cv, tv = self._path(ev.u, ev.v, ev)
            xu, _ = self._path(x.u, tu, x)
            xv, _ = self._path(x.v, tv)
            return sorted(cu | cv | xu | xv)
        cx, top = self._path(x.u, x.v, x)
        balanced = not x.is_loop() and self.sign[x.u] * self.sign[x.v] == x.gain
        if not self.frame or balanced:
            return sorted(cx)
        e = self.extra.get(ru)
        if e is None:
            return None
        ce, top_e = self._path(e.u, e.v, e)
        if cx & ce:  # a theta
            return sorted(cx ^ ce)
        between, _ = self._path(top, top_e)
        return sorted(cx | ce | between)


class Partition:
    """Edmonds' matroid partition of a (k,k,m)-sparse edge set into m graphic
    and then k - m frame sides (``frames``): each edge's side, and per side a
    _Forest, whose tree paths give the circuits.  An augmenting path takes
    every edge it moves off its old side before it adds any to its new side,
    so a forest only ever holds a subset of an independent set."""

    def __init__(self, n: int, p: SparsityParams, side: dict[Edge, int]) -> None:
        self.frames = (False,) * p.m + (True,) * (p.k - p.m)
        self.side = side
        self.forests = [_Forest(n, frame, [e for e, s in side.items() if s == i])
                        for i, frame in enumerate(self.frames)]

    def insert(self, y: Edge) -> Optional[list[Edge]]:
        """Add y along a shortest augmenting path, found by breadth-first
        search.  None on success; else y stays out, and the result is every
        edge the search reached."""
        # label[z] = (x, i): x may join side i if z leaves it.
        label: dict[Edge, Optional[tuple[Edge, int]]] = {y: None}
        queue = [y]
        for x in queue:
            for i, forest in enumerate(self.forests):
                if self.side.get(x) == i:
                    continue
                circuit = forest.circuit(x)
                if circuit is None:
                    path = [(x, i)]
                    while label[x] is not None:
                        x, i = label[x]
                        path.append((x, i))
                    for x, _ in path:
                        if x in self.side:
                            self.forests[self.side[x]].remove(x)
                    for x, i in path:
                        self.side[x] = i
                        self.forests[i].add(x)
                    return None
                for z in circuit:
                    if z not in label:
                        label[z] = (x, i)
                        queue.append(z)
        return queue


def _blocked_report(
    g: GainGraph, p: SparsityParams, reached: list[Edge]
) -> SparsityReport:
    """The first component of the blocked edge's reached set, by smallest
    vertex, that breaks its own count."""
    comp, _, comps = signed_components(g.n, reached)
    for c, (size, count, unbalanced) in enumerate(comps):
        balanced = p.l > p.m and not unbalanced and count > p.k * size - p.l
        if balanced or count > p.k * size - p.m:
            edges = tuple(sorted(e for e in reached if comp[e.u] == c))
            return _violation_report(g, edges, p, balanced)
    raise InvariantViolation("a blocked edge reached no component over its count")


def check_tight(g: GainGraph, p: SparsityParams) -> bool:
    """Sparse with the exact global count |E| = k|V| - m."""
    if len(g.edges) != p.k * g.n - p.m:
        return False
    return check_sparsity(g, p).passed


def tight_partition(
    g: GainGraph,
    p: SparsityParams,
    carried: Optional[Partition] = None,
    edge_map: Optional[Callable[[Edge], Optional[Edge]]] = None,
    new_edges: Optional[Iterable[Edge]] = None,
) -> Optional[Partition]:
    """g's Partition if every component of g is p-tight, else None.

    ``carried`` is the Partition of a p-sparse graph, and ``edge_map`` (the
    identity by default) names its edges in g.  Images that are not edges of
    g are dropped and the rest keep their sides, as a subset of an
    independent set is independent.  Any violation then holds one of g's
    other edges, so only those are inserted; ``new_edges``, if given, must
    hold them.
    A disjoint union is sparse iff each component is, so one check of g
    covers all components.
    """
    if any(n_edges != p.k * size - p.m for size, n_edges, _ in signed_components(g.n, g.edges)[2]):
        return None
    present = set(g.edges)
    side: dict[Edge, int] = {}
    if carried is not None:
        for e, s in carried.side.items():
            image = e if edge_map is None else edge_map(e)
            if image in present:
                side[image] = s
    added = [e for e in g.edges if e not in side]
    invariant(
        new_edges is None or set(added) <= set(new_edges),
        "an edge outside the new edges is not carried",
    )
    part = Partition(g.n, p, side)
    return None if any(part.insert(e) is not None for e in added) else part


def brute_force_oracle(g: GainGraph, p: SparsityParams) -> SparsityReport:
    """Unpruned enumeration of all nonempty edge subsets; test-only oracle."""
    if len(g.edges) > 20:
        raise OracleGuardExceeded("brute-force oracle is guarded at 20 edges")
    E = len(g.edges)
    for size in range(1, E + 1):
        for chosen in combinations(g.edges, size):
            support = _support(chosen)
            if size > p.k * len(support) - p.m:
                return _violation_report(g, tuple(chosen), p, balanced=False)
            if size > p.k * len(support) - p.l and g.is_balanced(chosen):
                return _violation_report(g, tuple(chosen), p, balanced=True)
    return SparsityReport(passed=True)
