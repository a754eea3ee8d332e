"""Symmetric frameworks, orbit matrices and rigidity verdicts.

A Framework pairs a gain graph (the quotient under an order-n rotation about
the origin) with one representative position per vertex orbit and a norm.
Gains name the identity (+1) and the half turn (-1), so graphs with a -1
gain need even group order.  The covering framework has vertex copies
(v, t) at the t-th rotation image of p_v; a quotient edge (u, v, gain) lifts
to the covering edges {(u, t), (v, t + shift(gain))}.

Character-indexed orbit matrices: for character index j, the gain -1 acts by
the scalar (-1)^j (always real), and its rotation tau(-1) is the half turn
that trivial_dim encodes: it negates the two rotated coordinates and fixes
the rest (-I in the plane).  The row of edge (u, v, gain) with support
covector phi is
    +phi on u's columns,  -chi_j(gain) * (phi o tau(gain)) on v's columns,
which in the plane is +(-1)^j * phi on v for gain -1.  A plane loop row is
(1 + (-1)^j) * phi: doubled for even j, zero for odd j.

Framework.covectors is the single source of the support covector phi of
each edge orbit: it is computed once per framework, on first use, and the
orbit rows, well_positioned and the facet colouring (colouring.py) all
read it.  A framework is well-positioned when the table exists; otherwise
reading it raises NotWellPositioned naming the first edge whose direction
has no unique support covector (under a PolyhedralNorm, read in integers
at _direction, then again at edge_delta, whose Fractions an error names).

The entry of edge (u, v, gain) is a pure function of p_u, p_v, the gain and
the norm.  So carry_covectors, given the framework before a move and the one
it leads to under the same norm, reuses the old entry of every edge the move
keeps, found by the move's own edge map: by name when the old positions are
a prefix of the new (a one-vertex move), or through the move's renaming
of the vertices (moves.move_delta, for vertex-to-K4) where both ends keep
their positions.  It computes only the others: the new vertices' edges.
The new framework keeps no reference to the old one.  Framework.classes keeps the
facet colour classes read from the table (or set by the placement step
that built the framework, see placement.py), for the colouring and the next
placement step.

An orbit row is a pure function of the edge, its covector and the
character, so orbit_rows builds each once, sparse and in integers, and when
carry_covectors reuses old's table by name it hands on old's rows of the
kept edges too (renamed edges move columns: their rows are built again).
analyse ranks the rows directly; orbit_matrix is their dense view.

A Framework also keeps its covering set, every rotation image of every
position, which its constructor builds to check that covering positions
are distinct.  Built with grown_from, a framework whose positions are a
prefix of its own, it copies that framework's set and checks only the
appended positions.

Rows under a PolyhedralNorm are ranked exactly (linalg.matrix_rank); under
an LpNorm the dense matrix is ranked by SVD.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .graph import Edge, GainGraph, edge
from .linalg import float_rank, matrix_rank
from .norms import ConeBoundary, Norm, NormError, PolyhedralNorm, ZeroVector

Point = tuple


class FrameworkError(ValueError):
    pass


class NotWellPositioned(FrameworkError):
    pass


@dataclass(frozen=True)
class Framework:
    """grown_from (see the module docstring) only saves work: the checks are
    the same with it or without it."""

    graph: GainGraph
    positions: tuple[Point, ...]
    norm: Norm
    group_order: int = 2
    grown_from: InitVar[Optional[Framework]] = None
    # the covering positions: every rotation image of every position
    covering: set = field(init=False, repr=False, compare=False)
    # the orbit rows built so far, by character (orbit_rows)
    rows: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # the characters placement._verified found isostatic by both oracles
    certified: set = field(init=False, repr=False, compare=False, default_factory=set)
    # by character, the colour classes as forests, for the next placement step to take
    forests: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self, grown_from):
        g, n, d = self.graph, self.group_order, self.norm.dimension
        if len(self.positions) != g.n:
            raise FrameworkError("one position per vertex orbit required")
        old, k, seen = grown_from, 0, set()
        if old is not None and (old.group_order, old.norm.dimension) == (n, d) \
                and self.positions[:len(old.positions)] == old.positions:
            k, seen = len(old.positions), set(old.covering)
        added = self.positions[k:]
        if any(len(p) != d for p in added):
            raise FrameworkError(f"positions must have dimension {d}")
        if n < 1:
            raise FrameworkError("group order must be positive")
        if n % 2 == 1 and any(e.gain == -1 for e in g.edges):
            raise FrameworkError("half-turn gains require even group order")
        if any(all(c == 0 for c in p) for p in added):
            raise FrameworkError("no vertex may sit at the rotation centre")
        exact = isinstance(self.norm, PolyhedralNorm)
        for v, p in enumerate(added, k):
            for i, c in enumerate(p):  # an l^p norm needs room for a difference in a float
                if not (isinstance(c, (int, Fraction)) if exact else abs(c) < 2.0 ** 1022):
                    raise FrameworkError(f"coordinate {i} of vertex {v} " + (
                        "is not rational" if exact else "does not fit a float"))
        for p in added:
            images = _images(n, p)
            if seen & images:
                raise FrameworkError("covering positions must be distinct")
            seen |= images
        object.__setattr__(self, "covering", seen)

    def edge_delta(self, e: Edge) -> tuple:
        """Difference vector of the representative covering edge of e."""
        pu, pv = self.positions[e.u], self.positions[e.v]
        if e.gain == -1:
            pv = _half_turn(pv)
        return tuple(a - b for a, b in zip(pu, pv))

    @cached_property
    def covectors(self) -> dict[Edge, tuple]:
        """Support covector per edge orbit, computed once; raises
        NotWellPositioned if some edge has none."""
        return self._covector_table({})

    @cached_property
    def classes(self) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
        """The edges whose covector is +-facets[0] (colour 0) and the others
        (colour 1), in edge order: read from the table once and kept (unless
        the placement step that built this framework set them), so the step
        after this framework starts from them.  PolyhedralNorm only."""
        parts: tuple[list[Edge], list[Edge]] = ([], [])
        for e, phi in self.covectors.items():
            parts[self.norm.colours[phi]].append(e)
        return tuple(parts[0]), tuple(parts[1])

    def _direction(self, e: Edge) -> tuple[int, int]:
        """edge_delta(e) times the product of its ends' four coordinate denominators."""
        (xu, yu), (xv, yv), g = self.positions[e.u], self.positions[e.v], e.gain
        a, b, c, d = xu.denominator, yu.denominator, xv.denominator, yv.denominator
        return ((xu.numerator * c - g * xv.numerator * a) * b * d,
                (yu.numerator * d - g * yv.numerator * b) * a * c)

    def _covector_table(self, carried: dict) -> dict[Edge, tuple]:
        """The covector table, taking an edge's entry from carried where it
        is not None."""
        table, support = {}, self.norm.support_covector
        direction = self._direction if isinstance(self.norm, PolyhedralNorm) else self.edge_delta
        for e in self.graph.edges:
            phi = carried.get(e)
            if phi is None:
                try:
                    try:
                        phi = support(direction(e))
                    except NormError:
                        phi = support(self.edge_delta(e))
                except NormError as exc:
                    raise NotWellPositioned(f"edge {e.as_list()}: {exc}") from exc
            table[e] = phi
        return table


def well_positioned(fw: Framework) -> bool:
    try:
        fw.covectors
    except NotWellPositioned:
        return False
    return True


def carry_covectors(old: Framework, new: Framework, pi: Optional[Sequence[int]] = None) -> bool:
    """Build new's covector table now, reusing old's entry for every edge
    that keeps its name, or that pi carries into new (old vertex a is new
    vertex pi[a], or is deleted if that is past new's last), and, for edges
    that keep their name, the orbit rows old has built (see the module
    docstring).  New keeps no reference to old.  Does nothing unless old is
    well-positioned; if new is not, reading new.covectors raises as usual.
    Whether new's table was built, each edge that keeps its name taking old's entry."""
    if new.norm != old.norm or not well_positioned(old):
        return False
    if pi is None:
        carried = old.covectors if new.positions[:len(old.positions)] == old.positions else {}
    else:
        carried = {edge(pi[e.u], pi[e.v], e.gain): phi for e, phi in old.covectors.items()
                   if max(pi[e.u], pi[e.v]) < len(new.positions)
                   and (new.positions[pi[e.u]], new.positions[pi[e.v]]) == (old.positions[e.u], old.positions[e.v])}
    try:
        new.__dict__["covectors"] = new._covector_table(carried)
    except NotWellPositioned:
        return False
    if carried is old.covectors and new.group_order == old.group_order:
        # same names, same columns: same rows
        for j, rows in old.rows.items():
            orbit_rows(new, j, rows)
    return carried is old.covectors


def _rotation(order: int, t: int):
    """Matrix of the t-th power of the 2D rotation by 2*pi/order; exact for
    orders 1, 2, 4, floating point otherwise."""
    if 4 % order == 0:
        c, s = ((1, 0), (0, 1), (-1, 0), (0, -1))[t % order * 4 // order]
    else:
        ang = 2.0 * math.pi * t / order
        c, s = math.cos(ang), math.sin(ang)
    return ((c, -s), (s, c))


def _apply(mat, p):
    return tuple(sum(row[i] * p[i] for i in range(len(p))) for row in mat)


def _half_turn(p) -> tuple:
    """tau(-1) p: the half turn negating the two rotated coordinates."""
    return (-p[0], -p[1], *p[2:])


def _images(order: int, p) -> set:
    """Covering positions of a vertex at p: its images under every power of
    the rotation (in other dimensions than the plane, p and, for even order,
    its half turn)."""
    if len(p) == 2 and order > 2:
        return {_apply(_rotation(order, t), p) for t in range(order)}
    return {tuple(p), _half_turn(p)} if order % 2 == 0 else {tuple(p)}


def covering_rigidity_matrix(fw: Framework) -> list[list]:
    """Plain rigidity matrix of the order-n covering framework.

    Covering vertex (v, t) sits at the t-th rotation image of p_v and maps
    to column block v * n + t; a gain of -1 shifts the copy index by n / 2.
    Duplicate lifted edges (loops close up after n/2 shifts) are deduplicated.
    """
    g, n = fw.graph, fw.group_order
    d = fw.norm.dimension
    if d != 2 and n > 1:
        raise FrameworkError("rotational covering only supported in the plane")
    pos = {(v, t): _apply(_rotation(n, t), fw.positions[v]) for v in range(g.n) for t in range(n)}
    shift = {1: 0, -1: n // 2}
    lifted = set()
    for e in g.edges:
        for t in range(n):
            a = (e.u, t)
            b = (e.v, (t + shift[e.gain]) % n)
            lifted.add(frozenset((a, b)) if a != b else frozenset((a,)))
    col = {(v, t): (v * n + t) * d for v in range(g.n) for t in range(n)}
    rows = []
    for pair in sorted(lifted, key=lambda s: sorted(s)):
        pts = sorted(pair)
        if len(pts) == 1:
            raise FrameworkError("degenerate covering edge")
        a, b = pts
        delta = tuple(x - y for x, y in zip(pos[a], pos[b]))
        try:
            phi = fw.norm.support_covector(delta)
        except (ZeroVector, ConeBoundary) as exc:
            raise NotWellPositioned(f"covering edge {a}-{b}: {exc}") from exc
        row = [0] * (g.n * n * d)
        for i in range(d):
            row[col[a] + i] += phi[i]
            row[col[b] + i] -= phi[i]
        rows.append(row)
    return rows


def orbit_rows(fw: Framework, j: int, carried: Optional[dict] = None) -> dict[Edge, dict[int, int]]:
    """The character-j orbit rows of fw by edge, in edge order, each as
    {column: entry} without zero entries; vertex x has columns d*x..d*x+d-1.
    Under a PolyhedralNorm every entry is an int: the rows are scaled by the
    least common denominator of the facets (1 for LINF and L1), which keeps
    every rank.  Built once per framework and character, taking an edge's
    row from carried where it has one."""
    if j in fw.rows:
        return fw.rows[j]
    if not 0 <= j < fw.group_order:
        raise FrameworkError(f"character index {j} out of range for order {fw.group_order}")
    d, norm, carried = fw.norm.dimension, fw.norm, carried or {}
    if isinstance(norm, PolyhedralNorm):
        scale, entry = math.lcm(*(c.denominator for f in norm.facets for c in f)), int
    else:
        scale, entry = 1, float
    chi = (-1) ** j  # chi_j(-1); tau(-1) negates the first two coordinates
    rows = {}
    for e, phi in fw.covectors.items():
        row = carried.get(e)
        if row is None:  # +phi on u, -chi_j(gain) * (phi o tau(gain)) on v
            vphi = [-x for x in phi] if e.gain == 1 else \
                [chi * x if i < 2 else -chi * x for i, x in enumerate(phi)]
            row = {}
            for x, block in ((e.u, phi), (e.v, vphi)):  # summed for a loop
                for i, c in enumerate(block):
                    row[d * x + i] = row.get(d * x + i, 0) + c
            row = {c: entry(y * scale) for c, y in row.items() if y}
        rows[e] = row
    fw.rows[j] = rows
    return rows


def orbit_matrix(fw: Framework, j: int) -> list[list]:
    """Character-j orbit matrix, |E0| rows by d*|V0| columns: the dense view
    of orbit_rows (so scaled as they are)."""
    cols = fw.norm.dimension * fw.graph.n
    return [[row.get(c, 0) for c in range(cols)] for row in orbit_rows(fw, j).values()]


def trivial_dim(n: int, j: int, d: int = 2) -> int:
    """Dimension of the character-j space of trivial (translational) motions
    for an order-n rotation, minimal rigid-motion space of dimension d."""
    if n < 1 or d < 2 or not 0 <= j < n:
        raise FrameworkError("need n >= 1, d >= 2, 0 <= j < n")
    dim = d - 2 if j == 0 else 0
    if j % n == 1 % n:
        dim += 1
    if j % n == (n - 1) % n:
        dim += 1
    return dim


@dataclass(frozen=True)
class RigidityReport:
    character: int
    rank: int
    edge_count: int
    dof: int  # d * |V0|
    trivial: int
    rigid: bool
    independent: bool
    isostatic: bool

    @property
    def flex_dim(self) -> int:
        return self.dof - self.rank

    def describe(self) -> str:
        verdict = (
            "isostatic" if self.isostatic
            else "rigid (dependent)" if self.rigid
            else "independent (flexible)" if self.independent
            else "flexible and dependent"
        )
        return (
            f"character {self.character}: rank {self.rank}, "
            f"{self.edge_count} edge orbits, {self.dof} dof, "
            f"trivial dim {self.trivial} -> {verdict}"
        )


def analyse(fw: Framework, j: int) -> RigidityReport:
    d = fw.norm.dimension
    g = fw.graph
    dof = d * g.n
    if isinstance(fw.norm, PolyhedralNorm):
        rank = matrix_rank(list(orbit_rows(fw, j).values()), dof)
    else:
        rank = float_rank(orbit_matrix(fw, j))
    triv = trivial_dim(fw.group_order, j, d)
    rigid = rank == dof - triv
    independent = rank == len(g.edges)
    return RigidityReport(
        character=j,
        rank=rank,
        edge_count=len(g.edges),
        dof=dof,
        trivial=triv,
        rigid=rigid,
        independent=independent,
        isostatic=rigid and independent and len(g.edges) == dof - triv,
    )
