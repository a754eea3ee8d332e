"""(k,l,m)-gain-sparsity with witnesses, plus an unpruned brute-force oracle.

A gain graph is (k,l,m)-gain-sparse when every nonempty balanced edge subset
F satisfies |F| <= k|V(F)| - l and every nonempty edge subset satisfies
|F| <= k|V(F)| - m; gain-tight adds |E| = k|V| - m.

The checker scans vertex supports in increasing size.  For the general count,
vertex-induced edge sets maximise |F| per support.  For the balanced count it
uses the switching characterisation: a loop-free subset is balanced iff some
vertex-sign assignment s makes every gain equal s_u * s_v, so the maximum
balanced subset on a support is a maximum over 2^|S| sign assignments of the
number of consistent non-loop induced edges.  Any violation found on a
support whose witness does not span it is a genuine violation on the
witness's own (smaller) support, so scanning supports smallest-first yields a
minimal deterministic witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Optional

from .graph import Edge, GainGraph, SignedUnionFind, all_vertex_subsets, invariant


class OracleGuardExceeded(ValueError):
    """Brute-force oracle refused an input with too many edges."""


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


def check_sparsity(
    g: GainGraph,
    p: SparsityParams,
    require_edges: Optional[Iterable[Edge]] = None,
) -> SparsityReport:
    """Scan all vertex supports; witness on failure.

    ``require_edges`` restricts the scan to subsets containing at least one of
    the given edges.  This is sound for incremental rechecks: if the graph
    minus those edges is already known sparse, any violation must involve one
    of them.  An empty ``require_edges`` passes at once.
    """
    required = tuple(require_edges) if require_edges is not None else None
    if required == ():
        return SparsityReport(passed=True)
    masks = [(1 << e.u) | (1 << e.v) for e in g.edges]
    req_masks = (
        [(1 << e.u) | (1 << e.v) for e in required]
        if required is not None
        else None
    )
    req_set = set(required) if required is not None else None
    for subset in all_vertex_subsets(g.n):
        smask = 0
        for v in subset:
            smask |= 1 << v
        if req_masks is not None and not any(
            rm & smask == rm for rm in req_masks
        ):
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
            if req_set is None or any(e in req_set for e in induced):
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


def components_tight(
    g: GainGraph, p: SparsityParams, new_edges: Iterable[Edge]
) -> bool:
    """Whether every component of g is p-tight, given that g minus new_edges
    is p-sparse.

    Any violation then contains a new edge, and a disjoint union is sparse
    iff each of its components is, so one restricted scan of g covers all
    components.
    """
    comps = SignedUnionFind(g.n, g.edges).components()
    if any(n_edges != p.k * len(verts) - p.m for verts, n_edges, _ in comps):
        return False
    return check_sparsity(g, p, require_edges=new_edges).passed


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
