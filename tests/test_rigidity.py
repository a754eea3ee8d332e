import random
from fractions import Fraction as F

import pytest

from gainrig.catalog import BASE_CATALOG, PARAMS_220
from gainrig.construct import random_tight
from gainrig.graph import GainGraph
from gainrig import linalg
from gainrig.linalg import PRIME, float_rank, matrix_rank
from gainrig.norms import LINF, L1, ConeBoundary, LpNorm, NormError, PolyhedralNorm, ZeroVector
from gainrig.placement import base_placement
from gainrig.rigidity import (
    Framework,
    FrameworkError,
    analyse,
    covering_rigidity_matrix,
    orbit_matrix,
    trivial_dim,
    well_positioned,
)
from gainrig.sparsity import SparsityParams, check_sparsity

from conftest import dense_rank, random_gain_graph


def _random_placement(g, rng, norm=LINF, order=2, tries=300):
    for _ in range(tries):
        pos = tuple(
            (F(rng.randint(-40, 40)), F(rng.randint(-40, 40)))
            for _ in range(g.n)
        )
        try:
            fw = Framework(g, pos, norm, order)
        except FrameworkError:
            continue
        if well_positioned(fw):
            return fw
    raise AssertionError("no well-positioned placement found")


def test_linalg_ranks():
    assert dense_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert dense_rank([[F(1, 3), F(0)], [F(0), F(5, 7)]]) == 2
    assert dense_rank([]) == 0
    assert matrix_rank([{0: 1, 1: 2}, {0: 2, 1: 4}], 2) == 1
    # a row is nonzero by its integers: {1: P} counts, though it is 0 mod P
    assert matrix_rank([{0: 0}, {1: PRIME}, {}], 2) == 1
    assert matrix_rank([{0: 1}, {1: 1}, {0: 1, 1: 1}], 2) == 2
    assert float_rank([[1.0, 0.0], [0.0, 1e-15]]) == 1
    assert float_rank([[1.0, 1.0], [0.5, 0.5]]) == 1


def test_support_covector_examples():
    assert LINF.support_covector((F(3), F(1))) == (1, 0)
    assert LINF.support_covector((F(-1), F(-3))) == (0, -1)
    assert L1.support_covector((F(3), F(1))) == (1, 1)
    with pytest.raises(ConeBoundary):
        LINF.support_covector((F(2), F(2)))
    with pytest.raises(ZeroVector):
        LINF.support_covector((F(0), F(0)))


def test_lp_norm():
    lp = LpNorm(3.0)
    phi = lp.support_covector((3.0, 1.0))
    assert phi[0] > phi[1] > 0
    with pytest.raises(Exception):
        LpNorm(2.0)


def test_lp_norm_at_extreme_exponents_and_scales():
    # evaluated at x / max|x_i|: no power overflows at p = 1000 or
    # underflows to 0 at tiny coordinates
    assert LpNorm(1000.0).value((4.0, 2.0)) == pytest.approx(4.0)
    assert LpNorm(1000.0).support_covector((4.0, -2.0)) == pytest.approx((1.0, 0.0))
    tiny = LpNorm(50.0).support_covector((1e-8, 2e-8))
    assert tiny == pytest.approx((0.5**49, 1.0), rel=1e-9, abs=0)
    assert LpNorm(3.0).support_covector((3e300, 1e300)) == pytest.approx(
        LpNorm(3.0).support_covector((3.0, 1.0)))
    with pytest.raises(NormError):
        LpNorm(float("inf"))


@pytest.mark.parametrize("c", [F(10) ** 400, F(10) ** 308, 1e308, float("nan")])
def test_lp_framework_needs_coordinates_that_fit_a_float(c):
    # an edge's difference is at most twice a coordinate, and is ranked in floats
    g = GainGraph.from_triples(2, [[0, 1, 1]])
    with pytest.raises(FrameworkError, match="coordinate 1 of vertex 1 does not fit a float"):
        Framework(g, ((F(1), F(2)), (F(3), c)), LpNorm(3.0), 2)
    assert well_positioned(Framework(g, ((F(1), F(2)), (F(3), F(10) ** 300)), LpNorm(3.0), 2))


def test_polyhedral_framework_needs_rational_coordinates():
    g = GainGraph.from_triples(2, [[0, 1, 1]])
    with pytest.raises(FrameworkError, match="coordinate 0 of vertex 1 is not rational"):
        Framework(g, ((F(1), F(2)), (3.0, F(5))), LINF, 2)


def test_framework_validation():
    g = GainGraph.from_triples(2, [[0, 1, 1]])
    with pytest.raises(FrameworkError):
        Framework(g, ((F(0), F(0)), (F(1), F(1))), LINF, 2)  # origin
    with pytest.raises(FrameworkError):
        Framework(g, ((F(1), F(1)), (F(-1), F(-1))), LINF, 2)  # p = -q
    with pytest.raises(FrameworkError):
        Framework(GainGraph.from_triples(1, [[0, 0, -1]]),
                  ((F(1), F(1)),), LINF, 3)  # odd order with -1 gain


def test_covering_distinctness_uses_every_rotation():
    empty = GainGraph(2, ())
    with pytest.raises(FrameworkError):
        # a quarter turn sends (1, 0) to (0, 1)
        Framework(empty, ((F(1), F(0)), (F(0), F(1))), LINF, 4)
    # order 3 has no half turn: (1, 0) and (-1, 0) have distinct orbits
    Framework(empty, ((F(1), F(0)), (F(-1), F(0))), LINF, 3)


def test_well_positioned():
    g = GainGraph.from_triples(2, [[0, 1, 1]])
    good = Framework(g, ((F(1), F(0)), (F(4), F(1))), LINF, 2)
    bad = Framework(g, ((F(1), F(0)), (F(3), F(2))), LINF, 2)  # delta (2,2)
    assert well_positioned(good)
    assert not well_positioned(bad)


def test_trivial_dim_table():
    expected = {
        (2, 0, 2): 0, (2, 1, 2): 2,
        (3, 0, 2): 0, (3, 1, 2): 1, (3, 2, 2): 1,
        (4, 0, 2): 0, (4, 1, 2): 1, (4, 2, 2): 0, (4, 3, 2): 1,
        (6, 0, 2): 0, (6, 1, 2): 1, (6, 2, 2): 0,
        (6, 3, 2): 0, (6, 4, 2): 0, (6, 5, 2): 1,
        (2, 0, 3): 1, (2, 1, 3): 2,
        (3, 0, 3): 1, (4, 0, 3): 1, (6, 0, 3): 1,
    }
    for (n, j, d), v in expected.items():
        assert trivial_dim(n, j, d) == v, (n, j, d)
    with pytest.raises(FrameworkError):
        trivial_dim(2, 2, 2)


def test_gain_minus_one_row_signs():
    # j = 0: a gain -1 edge contributes +phi on both endpoints
    g = GainGraph.from_triples(2, [[0, 1, -1]])
    fw = Framework(g, ((F(5), F(1)), (F(2), F(-1))), LINF, 2)
    (row0,) = orbit_matrix(fw, 0)
    # delta = p0 + p1 = (7, 0) -> phi = (1, 0)
    assert row0 == [1, 0, 1, 0]
    (row1,) = orbit_matrix(fw, 1)
    assert row1 == [1, 0, -1, 0]


def test_loop_rows():
    g = GainGraph.from_triples(1, [[0, 0, -1]])
    fw = Framework(g, ((F(3), F(1)),), LINF, 2)
    assert orbit_matrix(fw, 0) == [[2, 0]]  # doubled covector
    assert orbit_matrix(fw, 1) == [[0, 0]]  # zero row for the odd character


def test_translation_in_covering_kernel():
    g = BASE_CATALOG["a"]
    fw = Framework(g, ((F(1), F(3)), (F(5), F(2))), LINF, 2)
    rows = covering_rigidity_matrix(fw)
    for shift in ([1, 0], [0, 1]):
        u = shift * (len(rows[0]) // 2)
        assert all(sum(r[i] * u[i] for i in range(len(u))) == 0 for r in rows)


def test_block_sum_identity_orders_2_and_4():
    rng = random.Random(5)
    for trial in range(15):
        g = random_tight(2 + trial % 4, PARAMS_220, seed=700 + trial)
        for order in (2, 4):
            for _ in range(100):
                try:
                    fw = _random_placement(g, rng, LINF, order, tries=1)
                except AssertionError:
                    continue
                try:
                    cov = covering_rigidity_matrix(fw)
                except Exception:
                    continue
                total = sum(
                    dense_rank(orbit_matrix(fw, j)) for j in range(order)
                )
                assert total == dense_rank(cov)
                break


def test_balanced_quotient_similarity():
    # all-gain-1 quotient: rank of each character block equals the rank of
    # the plain rigidity matrix of the quotient placement
    g = GainGraph.from_triples(3, [[0, 1, 1], [1, 2, 1], [0, 2, 1]])
    fw = Framework(g, ((F(1), F(3)), (F(5), F(2)), (F(2), F(-3))), LINF, 2)
    assert well_positioned(fw)
    r0 = dense_rank(orbit_matrix(fw, 0))
    r1 = dense_rank(orbit_matrix(fw, 1))
    assert r0 == r1  # chi is trivial on all gains, blocks coincide


def test_analyse_verdicts():
    rng = random.Random(9)
    g = random_tight(4, PARAMS_220, seed=31)
    for _ in range(200):
        fw = _random_placement(g, rng)
        rep = analyse(fw, 0)
        if rep.isostatic:
            assert rep.rank == len(g.edges) == 2 * g.n
            assert rep.flex_dim == 0
            # dropping one edge orbit: independent, not rigid
            g2 = GainGraph(g.n, g.edges[1:])
            rep2 = analyse(Framework(g2, fw.positions, LINF, 2), 0)
            assert rep2.independent and not rep2.rigid
            break
    else:
        raise AssertionError("no isostatic placement found")
    # character 1 of a (2,2,0)-tight graph can never be independent
    rep1 = analyse(fw, 1)
    assert not rep1.independent


@pytest.mark.parametrize("facets", [
    ((1.0, 0.0), (0.0, 1.0)),
    ((F(1), F(0)), (F(0), 0.5)),
])
def test_polyhedral_norm_rejects_float_facets(facets):
    # orbit matrices under a PolyhedralNorm are ranked exactly, so its
    # covectors must be rational
    with pytest.raises(NormError, match="rational"):
        PolyhedralNorm(facets)
    assert PolyhedralNorm(((1, 0), (F(1, 2), 3))).dimension == 2


def test_analyse_is_exact_where_the_modular_rank_is_deficient(monkeypatch):
    # Facet (P, 0) with x scaled by 1/P has the cones of l-infinity, but its
    # colour-0 rows vanish mod P, so only the exact fallback sees full rank.
    fallbacks = []
    bareiss = linalg._bareiss_rank
    monkeypatch.setattr(
        linalg, "_bareiss_rank", lambda m: fallbacks.append(1) or bareiss(m)
    )
    fw = base_placement("d")
    norm = PolyhedralNorm(((F(PRIME), F(0)), (F(0), F(1))))
    scaled = Framework(fw.graph, tuple((x / PRIME, y) for x, y in fw.positions), norm, 2)
    assert analyse(scaled, 0) == analyse(fw, 0)
    assert analyse(scaled, 0).isostatic
    assert len(fallbacks) == 2  # the scaled framework's, not the fixture's


def test_half_turn_in_three_dimensions_matches_trivial_dim():
    # K6 with both gains on every pair and a loop at every vertex is rigid
    # at random positions, so its nullity is the trivial dimension.  tau(-1)
    # is the half turn about the third axis (trivial_dim's model), not -I:
    # with -I the character-0 rank was 18 = dof and the character-1 nullity 3.
    rng = random.Random(0)
    triples = [[u, v, g] for u in range(6) for v in range(u + 1, 6) for g in (1, -1)]
    g = GainGraph.from_triples(6, triples + [[v, v, -1] for v in range(6)])
    pos = tuple(tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(6))
    fw = Framework(g, pos, LpNorm(3.0, 3), 2)
    for j in (0, 1):
        rep = analyse(fw, j)
        assert rep.dof - rep.rank == rep.trivial == trivial_dim(2, j, 3)
        assert rep.rigid and not rep.independent
    # the covering positions are p and its half turn, so -p is a new point
    empty = GainGraph(2, ())
    Framework(empty, ((1.0, 2.0, 3.0), (-1.0, -2.0, -3.0)), LpNorm(3.0, 3), 2)
    with pytest.raises(FrameworkError, match="distinct"):
        Framework(empty, ((1.0, 2.0, 3.0), (-1.0, -2.0, 3.0)), LpNorm(3.0, 3), 2)


def test_independent_rows_in_three_dimensions_imply_sparsity():
    # The paper's necessity direction for the half turn in d = 3: independent
    # character-0 rows need a (3,3,1)-sparse graph, independent character-1
    # rows a (3,3,2)-sparse one.  No exact norm exists in 3D (PolyhedralNorm
    # is planar), so the rank here is the float SVD rank of an LpNorm.
    rng = random.Random(7)
    independent = {0: 0, 1: 0}
    dense = {0: 0, 1: 0}
    for _ in range(400):
        g = random_gain_graph(rng, max_n=5, max_edges=16)
        pos = tuple(tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(g.n))
        fw = Framework(g, pos, LpNorm(rng.choice((1.5, 3.0, 4.0)), 3), 2)
        for j, m in ((0, 1), (1, 2)):
            sparse = check_sparsity(g, SparsityParams(3, 3, m)).passed
            if analyse(fw, j).independent:
                independent[j] += 1
                assert sparse, (g.triples(), j)
            dense[j] += not sparse
    # at each character, many frameworks are independent and many graphs dense
    assert min(independent.values()) > 50 and min(dense.values()) > 20


def test_integer_facets_equal_fraction_facets():
    for norm, facets in ((LINF, ((1, 0), (0, 1))), (L1, ((1, 1), (1, -1)))):
        built = PolyhedralNorm(tuple(tuple(F(c) for c in f) for f in facets))
        assert norm.facets == facets and norm == built and hash(norm) == hash(built)
        assert norm.colours == built.colours == {
            s: i for i, f in enumerate(facets) for s in (f, (-f[0], -f[1]))
        }
