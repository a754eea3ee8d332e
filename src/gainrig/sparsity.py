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
whether a side takes an edge is read in O(1) from tree labels, signs and
extra edges (_Forest.independent), the circuits of an edge that no side
takes are read off tree paths (_Forest.circuit), and an augmentation
re-roots or searches again only the trees it changes.  If an edge is
blocked, every element the search reached lies in each side's span of the
reached set S, so |S| is one more than the sides' ranks of S summed, and
some component C of S breaks its own count: the witness, over its own
bound but not always the smallest.  A move or a reduction changes
a few edges of a tight graph, so one Partition lives through a whole
construction or decomposition (Partition.step): on stable vertex ids, as
a step's relabelling and switching rewrite only an id map; edited by the
step's delta, a tree edge's removal searching the two halves in lockstep
and relabelling the smaller (Even and Shiloach 1981); and rolled back
when the next graph is not tight.  All its components are tight iff
|E| = k|V| (m = 0), or iff the graphic forests have the same trees
(m = k), compared where the step moved vertices between trees.

SparsityParams rejects every count with l != k: in a normed space that is
not Euclidean the only trivial motions are translations, so every count the
paper derives has l = k.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, count, permutations
from typing import Iterable, Optional, Sequence

from .graph import Edge, GainGraph, InvariantViolation, invariant, signed_components
from .iso import map_edge


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
    part = Partition(g.n, p)
    for y in g.edges:
        reached = part.insert(y)
        if reached is not None:
            return _blocked_report(g, p, reached)
    return SparsityReport(passed=True)


class _Forest:
    """One partition side as a rooted spanning forest of its edges: per
    vertex its parent, tree edge, depth and sign (a tree edge's gain is the
    product of its ends' signs), compared only within a tree, its tree label
    (``root``) and edges on the side (``at``); per label, the tree's size
    and, on a frame side, its one edge off the tree if any (``extra``),
    closing an unbalanced cycle.  Labels, signs and extras decide
    independence in O(1).  A tree keeps its label as it grows or loses the
    smaller half of a split; on a graphic side, ``relabelled`` collects the
    vertices that change trees."""

    def __init__(self, n: int, frame: bool) -> None:
        self.frame = frame
        self.at: list[dict[Edge, None]] = [{} for _ in range(n)]
        self.parent = list(range(n))
        self.root = list(range(n))
        self.size = dict.fromkeys(range(n), 1)
        self.pedge: list[Optional[Edge]] = [None] * n
        self.depth = [0] * n
        self.sign = [1] * n
        self.extra: dict[int, Edge] = {}
        self.labels = count(n)  # labels for new trees
        self.relabelled: list[int] = []

    def grow(self) -> None:
        """Append an isolated vertex, a tree of its own."""
        self.at.append({})
        for values in (self.parent, self.root, self.pedge, self.depth, self.sign):
            values.append(None)
        self._span(len(self.at) - 1, None)

    def _span(self, start: int, up: Optional[Edge]) -> set[int]:
        """Hang start's component from the far end of its tree edge ``up``,
        in that end's tree (or make it a tree under a new label), by
        breadth-first search; the one edge off the tree it meets is the
        tree's extra edge.  Returns the vertices reached."""
        root = next(self.labels) if up is None else self.root[up.other(start)]
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
            self.size[root] = len(queue)
        if not self.frame:  # only graphic sides' trees are compared (Partition._tight)
            self.relabelled.extend(seen)
        return seen

    def add(self, e: Edge) -> None:
        """Add e, which must keep the side independent.  Joining two trees
        hangs the smaller from its end of e; it keeps the extra edge its
        search meets, not its old one, which may now be a tree edge."""
        invariant(self.independent(e), "a partition side is not independent")
        self.at[e.u][e] = self.at[e.v][e] = None
        ru, rv = self.root[e.u], self.root[e.v]
        if ru == rv:
            self.extra[ru] = e
            return
        start, small, big = (e.u, ru, rv) if self.size[ru] < self.size[rv] else (e.v, rv, ru)
        self.extra.pop(small, None)
        self.size[big] += self.size.pop(small)
        self._span(start, e)

    def remove(self, e: Edge) -> None:
        """Remove e.  A tree edge splits its tree: the halves are searched in
        lockstep (Even and Shiloach), and only the smaller is hung again,
        across the extra edge if that joins them, else under a new label."""
        del self.at[e.u][e]
        self.at[e.v].pop(e, None)
        label = self.root[e.u]
        extra = self.extra.get(label)
        if extra == e:
            del self.extra[label]
            return
        child = e.u if self.pedge[e.u] == e else e.v
        invariant(self.pedge[child] == e, "removed edge is not on the side")
        self.parent[child], self.pedge[child] = child, None
        seen, halves, k = ({e.u}, {e.v}), ([e.u], [e.v]), 0
        while k < len(halves[0]) and k < len(halves[1]):  # along tree edges, in turn
            for reached, half in zip(seen, halves):
                w = half[k]
                for f in self.at[w]:
                    z = f.other(w)
                    if z not in reached and f is not extra:
                        reached.add(z)
                        half.append(z)
            k += 1
        i = int(k < len(halves[0]))  # the half whose search ended
        start, small = halves[i][0], seen[i]
        if extra is not None and (extra.u in small or extra.v in small):
            del self.extra[label]
            if (extra.u in small) != (extra.v in small):  # it joins the halves
                self._span(extra.u if extra.u in small else extra.v, extra)
                return
        self.size[label] -= len(small)
        self._span(start, None)

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

    def independent(self, x: Edge) -> bool:
        """Whether the side plus x is independent, read in O(1): x joins two
        trees, not both with an extra edge on a frame side, or closes an
        unbalanced cycle in a frame side's tree without one."""
        ru, rv = self.root[x.u], self.root[x.v]
        if ru != rv:
            return not (self.frame and ru in self.extra and rv in self.extra)
        return self.frame and ru not in self.extra and not self._balanced(x)

    def _balanced(self, x: Edge) -> bool:
        """Whether x closes a balanced cycle in its tree."""
        return not x.is_loop() and self.sign[x.u] * self.sign[x.v] == x.gain

    def circuit(self, x: Edge) -> Optional[list[Edge]]:
        """None if the side plus x is independent, else the circuit of x in
        edge order: x's cycle if balanced (or on a graphic side); with the
        extra edge's cycle, their sum if they share an edge (a theta), else
        both and the path between them (a handcuff); across two trees, both
        extra cycles, the paths from x's ends to them, and x."""
        if self.independent(x):
            return None
        ru, rv = self.root[x.u], self.root[x.v]
        if ru != rv:
            eu, ev = self.extra[ru], self.extra[rv]
            cu, tu = self._path(eu.u, eu.v, eu)
            cv, tv = self._path(ev.u, ev.v, ev)
            xu, _ = self._path(x.u, tu, x)
            xv, _ = self._path(x.v, tv)
            return sorted(cu | cv | xu | xv)
        cx, top = self._path(x.u, x.v, x)
        if not self.frame or self._balanced(x):
            return sorted(cx)
        e = self.extra[ru]
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
    so a forest only ever holds a subset of an independent set.

    tight_partition builds one for a first graph; step edits it by each
    step's delta.  The sides hold the images of the current graph's edges on
    stable vertex ids under ``ids`` and ``flips`` (map_edge): a deleted or
    merged vertex leaves a dead id, a created one takes a fresh one.  A
    rejected step is undone from ``before``, each moved edge's first side."""

    def __init__(self, n: int, p: SparsityParams) -> None:
        self.p = p
        self.frames = (False,) * p.m + (True,) * (p.k - p.m)
        self.side: dict[Edge, int] = {}
        self.forests = [_Forest(n, frame) for frame in self.frames]
        self.ids, self.flips = list(range(n)), [1] * n
        self.before: dict[Edge, Optional[int]] = {}

    def insert(self, y: Edge) -> Optional[list[Edge]]:
        """Add y along a shortest augmenting path, found by breadth-first
        search; a reached edge's circuits are read only if no other side
        takes it (_Forest.independent, O(1)).  None on success; else y stays
        out, and the result is every edge the search reached."""
        # label[z] = (x, i): x may join side i if z leaves it.
        label: dict[Edge, Optional[tuple[Edge, int]]] = {y: None}
        queue = [y]
        for x in queue:
            own = self.side.get(x)
            for i, forest in enumerate(self.forests):
                if i != own and forest.independent(x):
                    path = [(x, i)]
                    while label[x] is not None:
                        x, i = label[x]
                        path.append((x, i))
                    self._move(path)
                    return None
            for i, forest in enumerate(self.forests):
                if i != own:
                    for z in forest.circuit(x):
                        if z not in label:
                            label[z] = (x, i)
                            queue.append(z)
        return queue

    def _move(self, path: list[tuple[Edge, Optional[int]]]) -> None:
        """Move each edge x of path onto side i (None: out of the partition),
        all removals first, keeping each edge's first side in ``before``."""
        for x, _ in path:
            a = self.side.pop(x, None)
            self.before.setdefault(x, a)
            if a is not None:
                self.forests[a].remove(x)
        for x, i in path:
            if i is not None:
                self.side[x] = i
                self.forests[i].add(x)

    def step(self, g: GainGraph, deleted: Sequence[Edge], added: Sequence[Edge],
             pi: Optional[Sequence[int]] = None, signs: Optional[Sequence[int]] = None) -> bool:
        """Edit this partition of a graph with all components tight into that
        of g, the next graph, if all of g's are; else undo it, return False.
        ``deleted``: the edges g lacks; ``added``: g's edges that are not
        images of current ones; pi sends vertex a to g's vertex pi[a],
        switched by signs[a], or deletes it if pi[a] >= g.n (default: no
        change), the kept ones onto g's first vertices; g's others are
        created.  Only a relabelling step costs O(n), to rewrite the id map."""
        ids, flips, n = self.ids, self.flips, len(self.ids)
        self.before = {}
        for f in self.forests:
            f.relabelled.clear()
        gone = [map_edge(e, ids, flips) for e in deleted]
        invariant(all(x in self.side for x in gone), "a deleted edge is not on a side")
        self._move([(x, None) for x in gone])
        if pi is not None:  # old[x] is the vertex that becomes x
            old = sorted((a for a in range(n) if pi[a] < g.n), key=pi.__getitem__)
            self.ids = [ids[a] for a in old]
            self.flips = [flips[a] * (signs[a] if signs else 1) for a in old]
        for _ in range(len(self.ids), g.n):
            self.ids.append(len(self.forests[0].at))
            self.flips.append(1)
            for f in self.forests:
                f.grow()
        for e in added:
            i = bisect_left(g.edges, e)
            invariant(g.edges[i:i + 1] == (e,), "an added edge is not in the next graph")
        ok = all(self.insert(map_edge(e, self.ids, self.flips)) is None for e in added)
        if ok:
            invariant(len(self.side) == len(g.edges), "the partition's edges are not the next graph's")
            ok = self._tight(g.n)
        if not ok:
            self._move([(x, a) for x, a in self.before.items() if self.side.get(x) != a])
            self.ids, self.flips = ids, flips
            del ids[n:], flips[n:]
        return ok

    def _tight(self, n: int) -> bool:
        """Whether each component of the sparse graph held, on n vertices, is
        tight (see the module docstring): for m = k, each side's edges lie in
        the others' trees, looked at only where vertices changed trees."""
        if 0 < self.p.m < self.p.k:
            raise ValueError(f"counts {self.p.as_tuple()}: tightness is decided for m = 0 or k")
        if not self.p.m:
            return len(self.side) == self.p.k * n
        moved = set().union(*(f.relabelled for f in self.forests))
        return all(f.root[x.u] == f.root[x.v] for f, h in permutations(self.forests, 2)
                   for v in moved for x in h.at[v])


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
    return len(g.edges) == p.k * g.n - p.m and check_sparsity(g, p).passed


def tight_partition(g: GainGraph, p: SparsityParams) -> Optional[Partition]:
    """g's Partition if every component of g is p-tight, else None: the
    partition of a first graph, which Partition.step then carries from each
    graph to the next.  ValueError unless m = 0 or m = k."""
    part = Partition(g.n, p)
    if any(part.insert(e) is not None for e in g.edges) or not part._tight(g.n):
        return None
    return part


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
