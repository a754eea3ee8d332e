import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from gainrig.linalg import PRIME, _bareiss_rank, _modular_rank, matrix_rank, step_certified

from conftest import dense_rank


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
def test_rank_deficient_mod_p_falls_back_to_the_exact_rank(rows, rank):
    scaled = [{c: int(x * lcm(*(F(y).denominator for y in r))) for c, x in enumerate(r)}
              for r in rows]
    assert _modular_rank(scaled) < rank
    assert _bareiss(rows) == rank
    assert matrix_rank(scaled, len(rows[0])) == rank
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
    args = ([list(x) for x in n], [list(x) for x in p[:k]])
    certified = step_certified(*args)
    assert args == (n, p[:k])  # the rows are left as they were
    if certified:
        child = [list(x) for x in p[k:] + n]
        assert _bareiss_rank(child) == len(child)
    if planted and len(n) == k + 2 and a[-2] * b[-1] != a[-1] * b[-2]:
        assert certified  # and it is complete where span(N) holds D
