"""The integer geometry of a realize step against its Fraction oracles.

Framework reads a polyhedral norm's covectors at an integer multiple of each
edge's difference, and placement._grid_point rounds and tests its box in
scaled integers.  The Fraction code they replaced is kept here as the
oracle: the covector of fw.edge_delta(e), and the point rule computed in
Fractions throughout.  So is the list-based facet rule PolyhedralNorm.facet_of
replaced.
"""

import random
from fractions import Fraction as F
from math import inf
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainrig import placement
from gainrig.graph import Edge, GainGraph
from gainrig.norms import L1, LINF, ConeBoundary, NormError, PolyhedralNorm, ZeroVector
from gainrig.rigidity import Framework, FrameworkError, NotWellPositioned, point_key

NORMS = [LINF, L1, PolyhedralNorm(((F(1, 2), F(1, 3)), (F(-2, 3), F(3))))]
PROPERTY = settings(max_examples=300, derandomize=True, deadline=None)

# few distinct values, so that cone boundaries and coincidences are common
small = st.fractions(-3, 3, max_denominator=4)
points = st.tuples(small, small)


def _random_graph(n: int, seed: int) -> GainGraph:
    rng = random.Random(seed)
    edges = [[u, v, g] for u in range(n) for v in range(u, n)
             for g in ((-1,) if u == v else (1, -1)) if rng.random() < 0.5]
    return GainGraph.from_triples(n, edges)


@PROPERTY
@given(st.sampled_from(NORMS), st.lists(points, min_size=1, max_size=5), st.integers(0, 2**30))
def test_covector_table_matches_the_fraction_oracle(norm, pts, seed):
    g = _random_graph(len(pts), seed)
    try:
        fw = Framework(g, tuple(pts), norm, 2)
    except FrameworkError:
        return  # coinciding covering positions
    expected, first_error = {}, None
    for e in g.edges:
        try:
            expected[e] = norm.support_covector(fw.edge_delta(e))
        except NormError as exc:
            first_error = (e, exc)
            break
    if first_error is None:
        assert fw.covectors == expected and list(fw.covectors) == list(expected)
        return
    e, exc = first_error
    with pytest.raises(NotWellPositioned) as raised:
        fw.covectors
    assert str(raised.value) == f"edge {e.as_list()}: {exc}"
    assert type(raised.value.__cause__) is type(exc) and str(raised.value.__cause__) == str(exc)


@PROPERTY
@given(st.sampled_from(NORMS), points, points, st.sampled_from((1, -1)))
def test_direction_is_a_positive_multiple_of_the_difference(norm, pu, pv, gain):
    # pu and pv may coincide up to sign here, giving a zero difference
    e = Edge(0, 1, gain)
    fw = SimpleNamespace(positions=(pu, pv))
    d, delta = Framework._direction(fw, e), Framework.edge_delta(fw, e)
    assert all(type(x) is int for x in d)
    assert d[0] * delta[1] == d[1] * delta[0] and d[0] * delta[0] + d[1] * delta[1] >= 0
    assert (d == (0, 0)) == (delta == (0, 0))
    try:
        expected = norm.support_covector(delta)
    except NormError as exc:
        with pytest.raises(type(exc)):
            norm.support_covector(d)
    else:
        assert norm.support_covector(d) == expected


def _uv_oracle(facets, p):
    (a1, a2), (b1, b2) = facets
    return (a1 + b1) * p[0] + (a2 + b2) * p[1], (a1 - b1) * p[0] + (a2 - b2) * p[1]


def _xy_oracle(facets, q):
    (a1, a2), (b1, b2) = facets
    s1, s2, t1, t2 = a1 + b1, a2 + b2, a1 - b1, a2 - b2
    det = s1 * t2 - s2 * t1
    return F(t2 * q[0] - s2 * q[1], det), F(s1 * q[1] - t1 * q[0], det)


def _candidates_oracle(box, facets, m):
    """The point rule's m candidates, centre first, for a box in (u, v)."""
    lo = [hi - 1 if lo == -inf else lo for lo, hi in box]
    hi = [lo + 1 if hi == inf else hi for lo, hi in box]
    mid = [(a + b) / 2 for a, b in zip(lo, hi)]
    return [_xy_oracle(facets, [x + (h - x) * F(i, m) for x, h in zip(mid, hi)])
            for i in range(m)]


def _grid_point_oracle(box, facets, forbidden: set):
    """The point rule in Fractions: the first free candidate, rounded to the
    coarsest dyadic grid keeping it inside the box and free."""
    m = len(forbidden) + 1
    c = next(p for p in _candidates_oracle(box, facets, m) if p not in forbidden)
    k = 1
    while True:
        pt = (F(round(c[0] * k), k), F(round(c[1] * k), k))
        if pt not in forbidden and all(a < x < b for (a, b), x in zip(box, _uv_oracle(facets, pt))):
            return pt
        k *= 2


@st.composite
def boxes(draw):
    """(box in (u, v) times scale, in ints, scale): each axis has lo < hi
    and at least one finite side."""
    scale, box = draw(st.integers(1, 12)), []
    for _ in range(2):
        lo = draw(st.integers(-40, 40))
        hi = lo + draw(st.integers(1, 30))
        side = draw(st.sampled_from(("both", "lo", "hi")))
        box.append((lo if side != "hi" else -inf, hi if side != "lo" else inf))
    return tuple(box), scale


@PROPERTY
@given(st.sampled_from(NORMS), boxes(), st.integers(0, 4), st.integers(0, 2**30))
def test_grid_point_matches_the_fraction_oracle(norm, scaled_box, size, seed):
    box, scale = scaled_box
    unscaled = tuple(tuple(x if x in (inf, -inf) else F(x, scale) for x in side) for side in box)
    # forbid points the rule meets: candidates for m = size + 1, their grid
    # roundings, and a few others
    rng, near = random.Random(seed), []
    for c in _candidates_oracle(unscaled, norm.facets, size + 1):
        near.append(c)
        near += [(F(round(c[0] * k), k), F(round(c[1] * k), k)) for k in (1, 2, 4, 8)]
    near += [(F(rng.randint(-9, 9), 2), F(rng.randint(-9, 9), 2)) for _ in range(4)]
    forbidden = set(rng.sample(near, size))
    pt = placement._grid_point(box, norm.facets, scale, {point_key(p) for p in forbidden}.__contains__,
                               len(forbidden) + 1)
    assert pt == _grid_point_oracle(unscaled, norm.facets, forbidden)
    assert all(type(x) is F for x in pt)


def _facet_of(norm, delta):
    """The list-based rule PolyhedralNorm.facet_of replaced."""
    vals = [f[0] * delta[0] + f[1] * delta[1] for f in norm.facets]
    if all(v == 0 for v in vals):
        raise ZeroVector("zero edge vector")
    if abs(vals[0]) == abs(vals[1]):
        raise ConeBoundary(f"direction {tuple(delta)} on a cone boundary")
    idx = 0 if abs(vals[0]) > abs(vals[1]) else 1
    return idx, (1 if vals[idx] > 0 else -1)


@pytest.mark.parametrize("norm", NORMS, ids=["linf", "l1", "fractions"])
def test_facet_of_matches_the_list_based_rule_on_a_grid(norm):
    values = sorted({F(a, b) for a in range(-6, 7) for b in (1, 2, 3)} | {F(-9, 2), F(13, 6), F(3, 1)})
    outcomes = set()
    deltas = [(x, y) for x in values for y in values] + [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    deltas += [(16, 7), (F(-20), F(-1))]  # on the third norm's cone boundaries
    for delta in deltas:
        try:
            want = _facet_of(norm, delta)
        except NormError as exc:
            with pytest.raises(type(exc)) as got:
                norm.facet_of(delta)
            assert got.type is type(exc) and str(got.value) == str(exc)
            outcomes.add(type(exc))
        else:
            assert norm.facet_of(delta) == want
            outcomes.add(want)
    assert outcomes == {ZeroVector, ConeBoundary, (0, 1), (0, -1), (1, 1), (1, -1)}
