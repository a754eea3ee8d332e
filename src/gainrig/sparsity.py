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
Edmonds' matroid partition: it inserts the edges in sorted order, a free
edge straight onto the first side that takes it, any other by a
breadth-first search for a shortest augmenting path.  Each side is a
signed spanning forest, plus one extra edge per tree on a frame side, so
whether a side takes an edge is read in O(1), once per reached edge and
side, from tree labels, signs and extra edges (Forest.independent); the
circuits of an edge that no side takes are read off tree paths as sets
(Forest.circuit), and only their newly labelled edges are sorted, so the
search labels in the order sorted circuits would; an augmentation
re-roots or searches again only the trees it changes.  If an edge is
blocked, every element the search reached lies in each side's span of the
reached set S, so |S| is one more than the sides' ranks of S summed, and
some component C of S breaks its own count: the witness, over its own
bound but not always the smallest.  A move or a reduction changes
a few edges of a tight graph, so one Partition lives through a whole
construction or decomposition (Partition.step): on stable vertex ids, as
a renaming step rewrites only an id map and a switching only its
vertices' signs; edited by the step's delta, a tree edge's removal
searching the two halves in lockstep and relabelling the smaller (Even
and Shiloach 1981); and rolled back when the next graph is not tight.
All its components are tight iff |E| = k|V| on the live vertices (m = 0),
or iff the graphic forests have the same trees (m = k), compared where
the step moved vertices between trees.

SparsityParams rejects every count with l != k: in a normed space that is
not Euclidean the only trivial motions are translations, so every count the
paper derives has l = k.
"""

from __future__ import annotations

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


class Forest:
    """One partition side as a rooted spanning forest of its edges: per
    vertex its parent, tree edge, depth and sign (a tree edge's gain is the
    product of its ends' signs), compared only within a tree, its tree label
    (``root``) and edges on the side, each mapped to its far end (``at``);
    per label, the tree's size and, on a frame side, its one edge off the
    tree if any (``extra``), closing an unbalanced cycle.  Labels, signs and
    extras decide independence in O(1).  A tree keeps its label as it grows
    or loses the smaller half of a split; ``journal``, if given, collects
    the vertices that change trees.  Partition's sides and placement's
    colour classes (placement docstring) are such forests."""

    def __init__(self, n: int, frame: bool, journal: Optional[list[int]] = None) -> None:
        self.frame, self.journal = frame, journal
        self.at: list[dict[Edge, int]] = [{} for _ in range(n)]
        self.parent = list(range(n))
        self.root = list(range(n))
        self.size = dict.fromkeys(range(n), 1)
        self.pedge: list[Optional[Edge]] = [None] * n
        self.depth = [0] * n
        self.sign = [1] * n
        self.extra: dict[int, Edge] = {}
        self.labels = count(n)  # labels for new trees

    def __len__(self) -> int:
        """The number of edges: one per vertex but each tree's top, and the extra edges."""
        return len(self.at) - len(self.size) + len(self.extra)

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
        top = start if up is None else self.at[start][up]
        root = next(self.labels) if up is None else self.root[top]
        seen, queue = {start}, [(start, up, top)]
        for w, f, p in queue:  # f is w's tree edge, p its far end
            self.parent[w], self.pedge[w], self.root[w] = p, f, root
            self.depth[w] = 0 if f is None else self.depth[p] + 1
            self.sign[w] = 1 if f is None else self.sign[p] * f.gain
            for e, z in self.at[w].items():
                if e is f:
                    continue
                if z not in seen:
                    seen.add(z)
                    queue.append((z, e, w))
                else:  # a tree keeps at most one edge off it
                    invariant(self.frame and self.extra.setdefault(root, e) == e,
                              "a partition side is not independent")
        if up is None:
            self.size[root] = len(queue)
        if self.journal is not None:
            self.journal.extend(seen)
        return seen

    def add(self, e: Edge) -> None:
        """Add e, which must keep the side independent.  Joining two trees
        hangs the smaller from its end of e; it keeps the extra edge its
        search meets, not its old one, which may now be a tree edge."""
        invariant(self.independent(e), "a partition side is not independent")
        self.at[e.u][e], self.at[e.v][e] = e.v, e.u
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
                for f, z in self.at[w].items():
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

    def circuit(self, x: Edge) -> set[Edge]:
        """The circuit of x, which the side must not take (not independent),
        as a set: x's cycle if balanced (or on a graphic side); with the
        extra edge's cycle, their sum if they share an edge (a theta), else
        both and the path between them (a handcuff); across two trees, both
        extra cycles, the paths from x's ends to them, and x."""
        ru, rv = self.root[x.u], self.root[x.v]
        if ru != rv:
            eu, ev = self.extra[ru], self.extra[rv]
            cu, tu = self._path(eu.u, eu.v, eu)
            cv, tv = self._path(ev.u, ev.v, ev)
            xu, _ = self._path(x.u, tu, x)
            xv, _ = self._path(x.v, tv)
            return cu | cv | xu | xv
        cx, top = self._path(x.u, x.v, x)
        if not self.frame or self._balanced(x):
            return cx
        e = self.extra[ru]
        ce, top_e = self._path(e.u, e.v, e)
        if cx & ce:  # a theta
            return cx ^ ce
        between, _ = self._path(top, top_e)
        return cx | ce | between


class Partition:
    """Edmonds' matroid partition of a (k,k,m)-sparse edge set into m graphic
    and then k - m frame sides (``frames``): each edge's side, and per side a
    Forest, whose tree paths give the circuits.  An augmenting path takes
    every edge it moves off its old side before it adds any to its new side,
    so a forest only ever holds a subset of an independent set.

    tight_partition builds one for a first graph; step edits it by each
    step's delta.  The sides hold the images of the current graph's edges on
    stable vertex ids under ``ids`` and ``flips`` (map_edge): a deleted or
    merged vertex leaves a dead id, a created one takes a fresh one, and
    ``live`` counts the current graph's vertices that are not dead ids.  A
    rejected step is undone from ``before``, each moved edge's first side."""

    def __init__(self, n: int, p: SparsityParams) -> None:
        self.p = p
        self.frames = (False,) * p.m + (True,) * (p.k - p.m)
        self.side: dict[Edge, int] = {}
        self.relabelled: list[int] = []  # graphic sides' vertices that changed trees this step
        self.forests = [Forest(n, frame, None if frame else self.relabelled) for frame in self.frames]
        self.ids, self.flips, self.live = list(range(n)), [1] * n, n
        self.before: dict[Edge, Optional[int]] = {}

    def insert(self, y: Edge) -> Optional[list[Edge]]:
        """Add y onto the first side that takes it (a free edge), else along
        a shortest augmenting path, found by breadth-first search (module
        docstring).  None on success; else y stays out, and the result is
        every edge the search reached."""
        for i, forest in enumerate(self.forests):
            if forest.independent(y):  # journalled as _move would
                self.before.setdefault(y, None)
                self.side[y] = i
                forest.add(y)
                return None
        # label[z] = (x, i): x may join side i if z leaves it.
        label: dict[Edge, Optional[tuple[Edge, int]]] = {y: None}
        queue = [y]
        for x in queue:
            own = self.side.get(x)
            for i, forest in enumerate(self.forests):
                if x is not y and i != own and forest.independent(x):
                    path = [(x, i)]
                    while label[x] is not None:
                        x, i = label[x]
                        path.append((x, i))
                    self._move(path)
                    return None
            for i, forest in enumerate(self.forests):
                if i != own:
                    new = [z for z in forest.circuit(x) if z not in label]
                    new.sort()  # the order a sorted circuit labels them in
                    for z in new:
                        label[z] = (x, i)
                    queue += new
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

    def step(self, n: int, deleted: Sequence[Edge], added: Sequence[Edge],
             pi: Optional[Sequence[int]] = None, flipped: Sequence[int] = (),
             dropped: Sequence[int] = ()) -> bool:
        """Edit this partition of a graph with all components tight into that
        of the next graph, on n vertices, if all of its are; else undo it,
        return False.  ``deleted``: the edges the next graph lacks;
        ``added``: its edges that are not images of current ones; vertices
        past the current ones are created.  pi renames: vertex a becomes
        pi[a], or is deleted if pi[a] >= n, the kept ones onto the first
        vertices.  Without pi, the ``flipped`` vertices are switched and the
        ``dropped`` ones stay as isolated dead ids; ValueError, before any
        edit, if pi comes with either.  Only a renaming step costs O(n), to
        rewrite the id map."""
        if pi is not None and (flipped or dropped):
            raise ValueError("a renaming step (pi) switches and drops no vertices")
        ids, flips, old_n = self.ids, self.flips, len(self.ids)
        self.before = {}
        self.relabelled.clear()
        gone = [map_edge(e, ids, flips) for e in deleted]
        invariant(all(x in self.side for x in gone), "a deleted edge is not on a side")
        self._move([(x, None) for x in gone])
        invariant(not any(f.at[ids[v]] for f in self.forests for v in dropped),
                  "a dropped vertex keeps an edge")
        if pi is not None:  # old[x] is the vertex that becomes x
            old = sorted((a for a in range(old_n) if pi[a] < n), key=pi.__getitem__)
            self.ids, self.flips = [ids[a] for a in old], [flips[a] for a in old]
        for v in flipped:
            flips[v] = -flips[v]
        for _ in range(len(self.ids), n):
            self.ids.append(len(self.forests[0].at))
            self.flips.append(1)
            for f in self.forests:
                f.grow()
        images = [map_edge(e, self.ids, self.flips) for e in added]
        invariant(len(set(images)) == len(images) and not any(x in self.side for x in images),
                  "an added edge is already in the graph")
        live = n if pi is not None else self.live + n - old_n - len(dropped)
        ok = all(self.insert(x) is None for x in images) and self._tight(live)
        if ok:
            self.live = live
        else:
            self._move([(x, a) for x, a in self.before.items() if self.side.get(x) != a])
            for v in flipped:
                flips[v] = -flips[v]
            self.ids, self.flips = ids, flips
            del ids[old_n:], flips[old_n:]
        return ok

    def _tight(self, live: int) -> bool:
        """Whether each component of the sparse graph held, on ``live``
        vertices besides any dead ids, is tight (see the module docstring):
        for m = k, each side's edges lie in the others' trees, looked at
        only where vertices changed trees."""
        if 0 < self.p.m < self.p.k:
            raise ValueError(f"counts {self.p.as_tuple()}: tightness is decided for m = 0 or k")
        if not self.p.m:
            return len(self.side) == self.p.k * live
        moved = set(self.relabelled)
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
