import random
from fractions import Fraction as F
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from gainrig import placement
from gainrig.catalog import PARAMS_220, PARAMS_222
from gainrig.construct import decompose, random_tight
from gainrig.linalg import _add_pivot, matrix_rank, step_certified
from gainrig.norms import L1, LINF
from gainrig.placement import realize
from gainrig.rigidity import orbit_rows

from conftest import PRIME, _bareiss_rank, dense_rank, dense_step_args, dense_step_certified, perfbench_gen


def _bareiss(rows):
    """The exact oracle: Bareiss elimination of the rows scaled to integers."""
    ints = []
    for row in rows:
        mult = lcm(*(F(x).denominator for x in row))
        ints.append([int(x * mult) for x in row])
    return _bareiss_rank(ints)


@pytest.mark.parametrize("rows, rank", [
    ([[PRIME]], 1),
    ([[1, 1], [1, 1 + PRIME]], 2),
    # scaled by 15 the row is (5P, 6P), which is 0 mod P
    ([[F(PRIME, 3), F(2 * PRIME, 5)]], 1),
    ([[F(PRIME, 3), F(2 * PRIME, 5)], [F(1), F(0)]], 2),
])
def test_exact_rank_of_matrices_rank_deficient_mod_p(rows, rank):
    # matrices whose rank mod P falls short: the elimination over the
    # integers still finds the rank over Q
    scaled = [{c: int(x * lcm(*(F(y).denominator for y in r))) for c, x in enumerate(r)}
              for r in rows]
    assert _bareiss(rows) == rank
    assert matrix_rank(scaled) == rank
    assert dense_rank(rows) == rank


def _random_matrix(rng):
    n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)

    def entry():
        kind = rng.random()
        if kind < 0.4:
            return 0
        if kind < 0.7:
            return rng.randint(-3, 3)
        if kind < 0.95:
            return F(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.choice((PRIME, -PRIME, F(PRIME, 7), 1 + PRIME))

    rows = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows > 1 and rng.random() < 0.5:
        # make it rank-deficient: one row a combination of the others
        a, b = F(rng.randint(-4, 4), rng.randint(1, 4)), rng.randint(-3, 3)
        i, j, k = rng.sample(range(n_rows), 2) + [rng.randrange(n_rows)]
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows


def test_rational_rank_matches_bareiss_on_random_matrices():
    rng = random.Random(2026)
    deficient = 0
    for _ in range(400):
        rows = _random_matrix(rng)
        rank = _bareiss(rows)
        deficient += rank < min(len(rows), len(rows[0]))
        assert dense_rank(rows) == rank, rows
    assert deficient >= 80


def _planted(rng, n_rows, n_cols, rank):
    """A dense random integer matrix of the given shape whose rank is at
    most rank: the product of random n_rows x rank and rank x n_cols
    factors, with about a third of the right factor's entries zero."""
    left = [[rng.randint(-9, 9) for _ in range(rank)] for _ in range(n_rows)]
    right = [[rng.randint(-9, 9) * (rng.random() < 0.7) for _ in range(n_cols)] for _ in range(rank)]
    return [[sum(a * row[c] for a, row in zip(lr, right)) for c in range(n_cols)] for lr in left]


def test_matrix_rank_equals_bareiss_on_dense_matrices_with_planted_dependencies():
    rng = random.Random(35)
    deficient = 0
    for _ in range(60):
        n_rows, n_cols = rng.randint(1, 40), rng.randint(1, 40)
        m = _planted(rng, n_rows, n_cols, rng.randint(0, min(n_rows, n_cols)))
        rank = _bareiss_rank([list(r) for r in m])
        deficient += rank < min(n_rows, n_cols)
        sparse = [{c: x for c, x in enumerate(r) if x} for r in m]
        assert matrix_rank(sparse) == rank
        # the rows are read, not changed, and their order does not matter
        assert sparse == [{c: x for c, x in enumerate(r) if x} for r in m]
        assert matrix_rank(sparse[::-1]) == rank
    assert deficient >= 30


def test_every_pivot_row_is_primitive():
    # each reduced row is divided by the gcd of its entries (here each row
    # goes in times 6), which keeps the entries of this dense 16 x 16
    # elimination within the Hadamard bound on its minors
    m = _planted(random.Random(1968), 16, 16, 16)
    pivots = {}
    for r in m:
        _add_pivot(((6, {c: x for c, x in enumerate(r) if x}),), pivots)
    assert len(pivots) == _bareiss_rank([list(r) for r in m])
    assert all(gcd(*row.values()) == 1 for row in pivots.values())
    hadamard = prod(isqrt(sum(x * x for x in r)) + 1 for r in m)
    assert max(abs(x) for row in pivots.values() for x in row.values()) <= hadamard


@pytest.mark.parametrize("regime, j", [("220", 0), ("222", 1)])
@pytest.mark.parametrize("norm", [LINF, L1], ids=["linf", "l1"])
def test_matrix_rank_equals_bareiss_on_orbit_matrices(regime, j, norm):
    # both characters' orbit matrices of realized frameworks: the placed
    # character's has full row rank; a (2,2,0) framework's character-1
    # matrix is rank-deficient, its 2n rows over 2n - 2 once the two
    # translations are taken out
    gen = perfbench_gen()
    for seed in range(2):
        seq, g = gen.forward_sequence(random.Random(seed), 20, regime)
        fw = realize(seq, j, norm=norm)
        for c in (0, 1):
            rows = orbit_rows(fw, c)
            sparse = [rows[e] for e in g.edges]
            dense = [[row.get(col, 0) for col in range(2 * g.n)] for row in sparse]
            rank = _bareiss_rank(dense)
            assert matrix_rank(sparse) == rank
            if c == j:
                assert rank == len(g.edges)
            elif regime == "220":
                assert rank < len(g.edges)


@st.composite
def _one_vertex_steps(draw):
    """(P, k, N, planted, (a, b)): integer rows P of full row rank on m + 2
    columns, zero on the last two (a new vertex's), whose first k rows are
    the deleted rows D, and rows N shuffled from a, b, k others and at times
    one extra arbitrary row.  If planted, the k others are D's rows plus
    integer multiples of a and b, so that span(N) holds D; else they are
    arbitrary."""
    m = draw(st.integers(1, 5))
    row = st.lists(st.integers(-2, 2), min_size=m + 2, max_size=m + 2)
    p = [x[:m] + [0, 0] for x in draw(st.lists(row, min_size=1, max_size=m))]
    assume(_bareiss_rank([list(x) for x in p]) == len(p))
    k = draw(st.integers(0, min(2, len(p))))
    a, b = draw(row), draw(row)
    planted = draw(st.booleans())
    if planted:
        ce = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=k, max_size=k))
        others = [[x + c * y + e * z for x, y, z in zip(p[i], a, b)] for i, (c, e) in enumerate(ce)]
    else:
        others = [draw(row) for _ in range(k)]
    others += [draw(row) for _ in range(draw(st.integers(0, 1)))]
    n = [[a, b, *others][i] for i in draw(st.permutations(range(len(others) + 2)))]
    return p, k, n, planted, (a, b)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_one_vertex_steps())
def test_local_rank_certificate_proves_full_row_rank(step):
    # the lemma behind placement's certificate: if step_certified(N, D) for
    # D among the rows of P, then (P without D) with N has full row rank
    p, k, n, planted, (a, b) = step
    m = len(p[0]) - 2
    args = [[{c: x for c, x in enumerate(row) if x} for row in rows] for rows in (n, p[:k])]
    copies = [[dict(row) for row in rows] for rows in args]
    certified = step_certified(*args, cols=(m, m + 1))
    assert args == copies  # the rows are left as they were
    if certified:
        child = [list(x) for x in p[k:] + n]
        assert _bareiss_rank(child) == len(child)
    if planted and len(n) == k + 2 and a[-2] * b[-1] != a[-1] * b[-2]:
        assert certified  # and it is complete where span(N) holds D


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_one_vertex_steps())
def test_sparse_certificate_equals_the_dense_reference(step):
    p, k, n, _, _ = step
    m = len(p[0]) - 2
    sparse = [[{c: x for c, x in enumerate(row) if x} for row in rows] for rows in (n, p[:k])]
    assert step_certified(*sparse, cols=(m, m + 1)) == dense_step_certified(n, p[:k])
    # the same rows, their columns renumbered out of order: only which
    # columns are w's matters
    perm = [m, m + 1, *range(m)][::-1]
    moved = [[{perm[c]: x for c, x in row.items()} for row in rows] for rows in sparse]
    assert step_certified(*moved, cols=(perm[m], perm[m + 1])) == dense_step_certified(n, p[:k])


def _checked_certificates(monkeypatch) -> list[bool]:
    """Wrap placement's certificate: each verdict it gives is checked
    against the dense reference's and appended to the returned list."""
    verdicts = []

    def checked(new, old, cols):
        verdict = step_certified(new, old, cols)
        assert verdict == dense_step_certified(*dense_step_args(new, old, cols))
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(placement, "step_certified", checked)
    return verdicts


@pytest.mark.parametrize("regime, j, n", [("222", 1, 22), ("220", 0, 20), ("220", 0, 24), ("220", 0, 28)])
def test_sparse_certificate_equals_the_dense_reference_on_every_realize_step(monkeypatch, regime, j, n):
    # perfbench's realize inputs: forward sequences at its sizes and characters
    gen = perfbench_gen()
    verdicts = _checked_certificates(monkeypatch)
    for seed in range(4):
        seq, g = gen.forward_sequence(random.Random(seed), n, regime)
        verdicts.clear()
        assert realize(seq, j).graph == g
        assert len(verdicts) == len(seq.steps) and all(verdicts)


@pytest.mark.parametrize("p, j", [(PARAMS_220, 0), (PARAMS_222, 1)], ids=["chi0", "chi1"])
def test_sparse_certificate_equals_the_dense_reference_where_it_refuses(monkeypatch, p, j):
    # decomposed random tight graphs hold H3 and vertex split steps, some
    # of which the certificate refuses
    verdicts = _checked_certificates(monkeypatch)
    for seed in range(3):
        realize(decompose(random_tight(16, p, seed=seed), p)[0], j)
    assert True in verdicts and False in verdicts
