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
each edge orbit (Framework.covector): it is computed once per framework, on
first use, and the orbit rows, well_positioned and the facet colouring
(colouring.py, through Framework.classes) all read it.  A framework is
well-positioned when the table exists; otherwise reading it raises
NotWellPositioned naming the first edge whose direction has no unique
support covector (under a PolyhedralNorm, read in integers at _direction,
then again at edge_delta, whose Fractions an error names).

An edge's covector, colour and orbit row (orbit_rows: sparse, in integers,
built once per character) are pure functions of the edge, its ends'
positions, the norm and the character.  So a framework grown from a parent
by one vertex (Framework's step) takes the parent's covector table and the
rows of each character it built, edited in place by the step's delta: no
table is copied, and the parent builds each again if asked.  The colour
classes (Framework.classes) are a view of the table.  The tables are maps;
every reader that needs an order reads in edge order: analyse, whose
elimination's fill-in depends on it, and orbit_matrix (the dense view).

A Framework also keeps its covering set, the key (point_key, in ints) of
every rotation image of every position, which its constructor builds to
check that covering positions are distinct.  Grown by a step, it checks
only the appended position, against the parent's set, which it then takes.
A refused step (FrameworkError) takes nothing.

Rows under a PolyhedralNorm are ranked exactly, by one sparse integer
elimination (linalg.matrix_rank); under an LpNorm, by SVD of the dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Optional

from .graph import Edge, GainGraph
from .linalg import float_rank, matrix_rank
from .norms import Norm, NormError, PolyhedralNorm

Point = tuple


class FrameworkError(ValueError):
    pass


class NotWellPositioned(FrameworkError):
    pass


@dataclass(frozen=True)
class Framework:
    """step = (parent, deleted, added) grows the framework from parent by one
    vertex (module docstring): graph is parent's graph less the deleted edges
    plus the added ones, and positions extend parent's by one."""

    graph: GainGraph
    positions: tuple[Point, ...]
    norm: Norm
    group_order: int = 2
    step: InitVar[Optional[tuple]] = None
    # the orbit rows built so far, by character (orbit_rows)
    rows: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # the characters placement._verified found isostatic by both oracles
    certified: set = field(init=False, repr=False, compare=False, default_factory=set)
    # by character, the colour classes as forests: every framework placement
    # verifies holds them, for the next placement step to take
    forests: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self, step):
        g, n, d = self.graph, self.group_order, self.norm.dimension
        if len(self.positions) != g.n:
            raise FrameworkError("one position per vertex orbit required")
        old, deleted, added = step or (None, (), ())
        if step and ((old.norm, old.group_order) != (self.norm, n) or self.positions[:-1] != old.positions):
            raise FrameworkError("a step appends one position to its parent's")
        new = self.positions[-1:] if step else self.positions
        if any(len(p) != d for p in new):
            raise FrameworkError(f"positions must have dimension {d}")
        if n < 1:
            raise FrameworkError("group order must be positive")
        if n % 2 == 1 and any(e.gain == -1 for e in g.edges):
            raise FrameworkError("half-turn gains require even group order")
        if any(all(c == 0 for c in p) for p in new):
            raise FrameworkError("no vertex may sit at the rotation centre")
        exact = isinstance(self.norm, PolyhedralNorm)
        for v, p in enumerate(new, g.n - len(new)):
            for i, c in enumerate(p):  # an l^p norm needs room for a difference in a float
                if not (isinstance(c, (int, Fraction)) if exact else abs(c) < 2.0 ** 1022):
                    raise FrameworkError(f"coordinate {i} of vertex {v} " + (
                        "is not rational" if exact else "does not fit a float"))
        keys = [covering_keys(n, p) for p in new]  # a vertex's own keys differ: it is off the centre
        seen = set().union(*keys)
        if len(seen) < sum(map(len, keys)) or step and not seen.isdisjoint(old.covering):
            raise FrameworkError("covering positions must be distinct")
        if step is None:
            self.__dict__["covering"] = seen
            return
        phis = [self.covector(e) for e in added]  # before anything is taken
        table = self.__dict__["covectors"] = _take(old, "covectors")
        self.__dict__["covering"] = _take(old, "covering").__ior__(seen)
        for rows in (table, *old.rows.values()):
            for e in deleted:
                del rows[e]
        table.update(zip(added, phis))
        for c, rows in old.rows.items():
            row = _row_of(self.norm, c)
            rows.update((e, row(e, phi)) for e, phi in zip(added, phis))
        self.rows.update(old.rows)
        old.rows.clear()

    @cached_property
    def covering(self) -> set:
        """The covering keys (module docstring), built once or taken."""
        return set().union(*(covering_keys(self.group_order, p) for p in self.positions))

    def edge_delta(self, e: Edge) -> tuple:
        """Difference vector of the representative covering edge of e."""
        pu, pv = self.positions[e.u], self.positions[e.v]
        if e.gain == -1:  # tau(-1) negates the two rotated coordinates
            pv = (-pv[0], -pv[1], *pv[2:])
        return tuple(a - b for a, b in zip(pu, pv))

    def covector(self, e: Edge) -> tuple:
        """The support covector of e; NotWellPositioned if it has none."""
        direction = self._direction if isinstance(self.norm, PolyhedralNorm) else self.edge_delta
        try:
            try:
                return self.norm.support_covector(direction(e))
            except NormError:
                return self.norm.support_covector(self.edge_delta(e))
        except NormError as exc:
            raise NotWellPositioned(f"edge {e.as_list()}: {exc}") from exc

    @cached_property
    def covectors(self) -> dict[Edge, tuple]:
        """Support covector per edge orbit, computed once (or taken by a
        step); raises NotWellPositioned if some edge has none."""
        return {e: self.covector(e) for e in self.graph.edges}

    @cached_property
    def classes(self) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
        """The edges whose covector is +-facets[0] (colour 0) and the others
        (colour 1), in edge order, read from the table once.  PolyhedralNorm
        only."""
        parts: tuple[list[Edge], list[Edge]] = ([], [])
        table, colours = self.covectors, self.norm.colours
        for e in self.graph.edges:
            parts[colours[table[e]]].append(e)
        return tuple(parts[0]), tuple(parts[1])

    def _direction(self, e: Edge) -> tuple[int, int]:
        """edge_delta(e) times the product of its ends' four coordinate denominators."""
        (xu, yu), (xv, yv), g = self.positions[e.u], self.positions[e.v], e.gain
        a, b, c, d = xu.denominator, yu.denominator, xv.denominator, yv.denominator
        return ((xu.numerator * c - g * xv.numerator * a) * b * d,
                (yu.numerator * d - g * yv.numerator * b) * a * c)


def _take(fw: Framework, name: str):
    """fw's cached `name`, which fw then drops (it builds it again if asked)."""
    getattr(fw, name)
    return fw.__dict__.pop(name)


def well_positioned(fw: Framework) -> bool:
    try:
        fw.covectors
    except NotWellPositioned:
        return False
    return True


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


def point_key(p) -> tuple:
    """p's coordinates' numerators and denominators: equal for equal points, of any number type."""
    return tuple(x for c in p for x in c.as_integer_ratio())


def covering_keys(order: int, p) -> set:
    """The keys (point_key) of p's images under every power of the rotation (off
    the plane: p and, for even order, its half turn, negating two numerators)."""
    if len(p) == 2 and order > 2:
        return {point_key(_apply(_rotation(order, t), p)) for t in range(order)}
    k = point_key(p)
    return {k, (-k[0], k[1], -k[2], *k[3:])} if order % 2 == 0 else {k}


@cache
def _row_of(norm: Norm, j: int):
    """The function taking an edge and its covector phi to the edge's
    character-j orbit row (orbit_rows), built once per norm and character."""
    d, chi = norm.dimension, (-1) ** j  # chi_j(-1); tau(-1) negates the first two coordinates
    if isinstance(norm, PolyhedralNorm):
        scale, entry = math.lcm(*(c.denominator for f in norm.facets for c in f)), int
    else:
        scale, entry = 1, float

    def row(e: Edge, phi: tuple) -> dict[int, int]:
        # +phi on u, -chi_j(gain) * (phi o tau(gain)) on v
        vphi = [-x for x in phi] if e.gain == 1 else \
            [chi * x if i < 2 else -chi * x for i, x in enumerate(phi)]
        if e.u == e.v:  # a loop: the two blocks summed
            phi, vphi = [x + y for x, y in zip(phi, vphi)], ()
        return {c: entry(y * scale) for x, block in ((e.u, phi), (e.v, vphi))
                for c, y in enumerate(block, d * x) if y}
    return row


def orbit_rows(fw: Framework, j: int) -> dict[Edge, dict[int, int]]:
    """The character-j orbit rows of fw by edge, each as {column: entry}
    without zero entries; vertex x has columns d*x..d*x+d-1.  Under a
    PolyhedralNorm every entry is an int: the rows are scaled by the least
    common denominator of the facets (1 for LINF and L1), which keeps every
    rank.  Built once per framework and character (or taken by a
    Framework's step); a reader that needs an order reads them in edge
    order."""
    if j not in fw.rows:
        if not 0 <= j < fw.group_order:
            raise FrameworkError(f"character index {j} out of range for order {fw.group_order}")
        row = _row_of(fw.norm, j)
        fw.rows[j] = {e: row(e, phi) for e, phi in fw.covectors.items()}
    return fw.rows[j]


def orbit_matrix(fw: Framework, j: int) -> list[list]:
    """Character-j orbit matrix, |E0| rows in edge order by d*|V0| columns:
    the dense view of orbit_rows (so scaled as they are)."""
    cols, rows = fw.norm.dimension * fw.graph.n, orbit_rows(fw, j)
    return [[rows[e].get(c, 0) for c in range(cols)] for e in fw.graph.edges]


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
        rows = orbit_rows(fw, j)  # in edge order, which sets the elimination's fill-in
        rank = matrix_rank([rows[e] for e in g.edges])
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
