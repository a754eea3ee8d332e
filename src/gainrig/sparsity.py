"""(k,l,m)-gain-sparsity with witnesses, plus an unpruned brute-force oracle.

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
a breadth-first search for a shortest augmenting path.  If an edge is
blocked, every element the search reached lies in each side's span of the
reached set S, so |S| is one more than the sides' ranks of S summed, and
some component C of S breaks its own count.  That component is the
witness.  It violates its own bound but need not be the smallest violating
support.  A move or a reduction keeps all but a few edges of a tight graph,
so tight_partition carries the Partition across it: the kept edges keep
their sides, and only the 1-4 edges it adds are inserted.

Counts with l != k go to the exhaustive scan of vertex supports in
increasing size, also the partition's test oracle.  For the general count,
vertex-induced edge sets maximise |F| per support.  For the balanced count
it uses the switching characterisation: a loop-free subset is balanced iff
some vertex-sign assignment s makes every gain equal s_u * s_v, so the
maximum balanced subset on a support is a maximum over 2^|S| sign
assignments of the number of consistent non-loop induced edges.  Any
violation found on a support whose witness does not span it is a genuine
violation on the witness's own (smaller) support, so scanning supports
smallest-first yields a minimal deterministic witness.  Across a move,
tight_partition scans only the supports holding an added edge.  The scan
gives up (OracleGuardExceeded) after SCAN_BUDGET vertex subsets, so how
small a violation it still finds depends on n: every support of up to 6
vertices at n = 30, but only of up to 2 at n = 200.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterable, Optional

from .graph import (
    Edge,
    GainGraph,
    InvariantViolation,
    SignedUnionFind,
    all_vertex_subsets,
    invariant,
)


class OracleGuardExceeded(ValueError):
    """An exhaustive check (the brute-force oracle, the scan) refused an input."""


SCAN_BUDGET = 1 << 20  # vertex subsets _scan_sparsity visits before it gives up


@dataclass(frozen=True)
class SparsityParams:
    k: int
    l: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if not 0 <= self.l <= 2 * self.k - 1:
            raise ValueError("l must lie in [0, 2k-1]")
        if not 0 <= self.m <= self.l:
            raise ValueError("m must lie in [0, l]")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.k, self.l, self.m)


@dataclass(frozen=True)
class SparsityReport:
    passed: bool
    witness: Optional[tuple[Edge, ...]] = None
    support: Optional[tuple[int, ...]] = None
    bound: Optional[int] = None
    balanced_violation: Optional[bool] = None

    def describe(self) -> str:
        if self.passed:
            return "sparse"
        kind = "balanced" if self.balanced_violation else "general"
        return (
            f"{kind} count violated: |F|={len(self.witness)} > {self.bound} "
            f"on support {list(self.support)}"
        )


def f_value(g: GainGraph) -> int:
    """The freedom count 2|V| - |E|."""
    return 2 * g.n - len(g.edges)


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
    """Whether g is p-sparse; witness on failure.  An l = k count inserts
    g's edges in order into an empty Partition, and the first blocked edge
    gives the witness (over its own bound, but not always the smallest)."""
    if p.l != p.k:
        return _scan_sparsity(g, p)
    part = Partition(g.n, p, {})
    for y in g.edges:
        reached = part.insert(y)
        if reached is not None:
            return _blocked_report(g, p, reached)
    return SparsityReport(passed=True)


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
    of which the old one (if any) is unbalanced.

    A lone cycle is the circuit.  Otherwise the core is a theta (three paths
    between two branch vertices) or a handcuff (two cycles joined at a vertex
    or by a path).  The circuit is the core's balanced cycle if it has one: a
    theta always has exactly one, a handcuff one if its new cycle is
    balanced.  Else it is the whole handcuff.
    """
    at: dict[int, list[Edge]] = {}
    for e in core:
        at.setdefault(e.u, []).append(e)
        at.setdefault(e.v, []).append(e)
    branch = [w for w, es in at.items() if len(es) > 2]
    if not branch:
        return core
    # Walk each path between branch vertices through the degree-2 vertices.
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


class _EdgeSet:
    """An edge set with its signed union-find and its edges grouped by
    component root, in component order (by smallest vertex) when the edges
    come sorted.  In the frame matroid a set is independent iff each
    component has at most one cycle, and that cycle unbalanced; in the
    graphic matroid iff it has no cycle."""

    def __init__(self, n: int, edges: list[Edge], frame: bool) -> None:
        self.frame = frame
        self.uf = SignedUnionFind(n, edges)
        self.by_root: dict[int, list[Edge]] = {}
        for e in edges:
            self.by_root.setdefault(self.uf.find(e.u)[0], []).append(e)

    def _has_cycle(self, root: int) -> bool:
        return self.uf.edge_count[root] == self.uf.size[root]

    def circuit(self, x: Edge) -> Optional[list[Edge]]:
        """None if the set plus x is independent, else the circuit of x."""
        ru, su = self.uf.find(x.u)
        rv, sv = self.uf.find(x.v)
        if ru != rv:
            if not (self.frame and self._has_cycle(ru) and self._has_cycle(rv)):
                return None
            local = self.by_root[ru] + self.by_root[rv]
        else:
            if self.frame and not self._has_cycle(ru) and (
                x.is_loop() or su * sv != x.gain
            ):
                return None
            local = self.by_root.get(ru, [])
        return _circuit_in_core(_two_core(local + [x]))


class Partition:
    """Edmonds' matroid partition of a (k,k,m)-sparse edge set into m graphic
    and then k - m frame sides (``frames``): the side of each edge, and each
    side's _EdgeSet, built when a search needs it.  Counts with l != k have
    no matroid; all edges then sit on side 0."""

    def __init__(self, n: int, p: SparsityParams, side: dict[Edge, int]) -> None:
        self.n = n
        self.frames = (False,) * p.m + (True,) * (p.k - p.m)
        self.side = side
        self._sets: list[Optional[_EdgeSet]] = [None] * p.k

    def insert(self, y: Edge) -> Optional[list[Edge]]:
        """Add y along a shortest augmenting path, found by breadth-first
        search.  None on success; else y stays out, and the result is every
        edge the search reached."""
        # label[z] = (x, i): x may join side i if z leaves it.
        label: dict[Edge, Optional[tuple[Edge, int]]] = {y: None}
        queue = [y]
        for x in queue:
            for i, frame in enumerate(self.frames):
                if self.side.get(x) == i:
                    continue
                if self._sets[i] is None:
                    members = [e for e, s in self.side.items() if s == i]
                    self._sets[i] = _EdgeSet(self.n, members, frame)
                circuit = self._sets[i].circuit(x)
                if circuit is None:
                    while True:
                        self.side[x] = i
                        self._sets[i] = None
                        if label[x] is None:
                            return None
                        x, i = label[x]
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
    reached_set = _EdgeSet(g.n, sorted(reached), frame=False)  # only components are read
    uf = reached_set.uf
    for root, edges in reached_set.by_root.items():
        size = uf.size[root]
        if p.l > p.m and not uf.unbalanced[root] and len(edges) > p.k * size - p.l:
            return _violation_report(g, tuple(edges), p, balanced=True)
        if len(edges) > p.k * size - p.m:
            return _violation_report(g, tuple(edges), p, balanced=False)
    raise InvariantViolation("a blocked edge reached no component over its count")


def _scan_sparsity(
    g: GainGraph,
    p: SparsityParams,
    required: Optional[tuple[Edge, ...]] = None,
) -> SparsityReport:
    """Scan all vertex supports, smallest first; witness on failure.

    ``required`` (edges of g) restricts the scan to subsets containing at
    least one of them.
    """
    masks = [(1 << e.u) | (1 << e.v) for e in g.edges]
    req_masks = [(1 << e.u) | (1 << e.v) for e in required or ()]
    req_set = set(required) if required is not None else None
    for visited, subset in enumerate(all_vertex_subsets(g.n)):
        if visited == SCAN_BUDGET:
            raise OracleGuardExceeded(f"support scan guarded at {SCAN_BUDGET} subsets")
        smask = 0
        for v in subset:
            smask |= 1 << v
        if req_set is not None and all(rm & smask != rm for rm in req_masks):
            continue
        induced = [
            e for e, em in zip(g.edges, masks) if em & smask == em
        ]
        if not induced:
            continue
        # Skip supports not spanned by their induced edges: any violation
        # there re-occurs on the smaller true support, scanned earlier.
        if _support(induced) != subset:
            continue
        size = len(subset)
        if len(induced) > p.k * size - p.m:
            return _violation_report(g, tuple(induced), p, balanced=False)
        non_loops = [e for e in induced if not e.is_loop()]
        if not non_loops or len(non_loops) <= p.k * size - p.l:
            continue
        index = {v: i for i, v in enumerate(subset)}
        for signs in product((1, -1), repeat=size):
            consistent = tuple(
                e
                for e in non_loops
                if e.gain * signs[index[e.u]] * signs[index[e.v]] == 1
            )
            if consistent and len(consistent) > p.k * size - p.l:
                if req_set is not None and not any(
                    e in req_set for e in consistent
                ):
                    continue
                return _violation_report(g, consistent, p, balanced=True)
    return SparsityReport(passed=True)


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
    other edges, so only those are inserted (or, for other counts, only
    subsets holding one are scanned); ``new_edges``, if given, must hold them.
    A disjoint union is sparse iff each component is, so one check of g
    covers all components.
    """
    comps = SignedUnionFind(g.n, g.edges).components()
    if any(n_edges != p.k * len(verts) - p.m for verts, n_edges, _ in comps):
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
    if p.l == p.k:
        return None if any(part.insert(e) is not None for e in added) else part
    part.side.update(dict.fromkeys(added, 0))
    return part if _scan_sparsity(g, p, tuple(added)).passed else None


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
