"""Exact and floating-point matrix rank: mod-p rank certificate, exact
Bareiss fallback, and the local rank certificate of a one-vertex step.

Exact ranks are of integer matrices given by sparse rows, {column: entry}
(rigidity.orbit_rows builds them so).  The rows are first eliminated
modulo the prime P = 2^61 - 1, staying sparse, each by the pivot of its
largest column (its newest vertex's; the rank does not depend on the
order).  Rank mod P never exceeds rank over Q, so a rank mod P equal to
min(nonzero rows, cols), counting a row nonzero by its integer entries,
proves that rank.  Otherwise a fraction-free (Bareiss) elimination in
arbitrary-precision ints of the dense rows gives the exact rank.
step_certified reduces sparse rows fraction-free too, as {column: int}
dicts.  Dense rows with irrational entries (floats) use numpy's SVD with a
relative singular-value threshold.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, Sequence

FLOAT_RANK_RTOL = 1e-9
PRIME = 2**61 - 1


def matrix_rank(rows: Sequence[Mapping[int, int]], ncols: int) -> int:
    """Exact rank of the integer matrix with ncols columns and these sparse
    rows; zero entries may be left out."""
    m = [row for row in rows if any(row.values())]
    if not m:
        return 0
    full = min(len(m), ncols)
    if _modular_rank(m) == full:
        return full
    return _bareiss_rank([[r.get(c, 0) for c in range(ncols)] for r in m])


def _modular_rank(m: Sequence[Mapping[int, int]]) -> int:
    """Rank modulo PRIME of the integer matrix with sparse rows m, by sparse
    elimination.

    Each pivot row is kept as a {column: value} dict whose largest column
    is its pivot, scaled to 1 there; a row is reduced by the pivot of its
    largest column until that column has none (a new pivot) or the row
    vanishes.
    """
    pivots: dict[int, dict[int, int]] = {}
    for sparse in m:
        row = {c: x % PRIME for c, x in sparse.items() if x % PRIME}
        while row:
            col = max(row)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(row[col], -1, PRIME)
                pivots[col] = {c: x * inv % PRIME for c, x in row.items()}
                break
            f = row[col]
            for c, x in piv.items():
                y = (row.get(c, 0) - f * x) % PRIME
                if y:
                    row[c] = y
                else:
                    row.pop(c, None)
    return len(pivots)


def _bareiss_rank(m: list[list[int]]) -> int:
    """Exact rank of the integer matrix m (modified in place) by
    fraction-free elimination."""
    ncols = len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next(
            (r for r in range(rank, len(m)) if m[r][col] != 0), None
        )
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, len(m)):
            for c in range(col + 1, ncols):
                m[r][c] = (p * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = p
        rank += 1
        if rank == len(m):
            break
    return rank


def step_certified(new: Sequence[Mapping[int, int]], old: Sequence[Mapping[int, int]], cols) -> bool:
    """The local rank certificate of a one-vertex step (see placement), on
    sparse integer rows whose new vertex has columns cols: new has two rows
    more than old, two of them, a and b, a nonzero 2x2 block on cols, and
    rank(K + old) == rank(K), K the other rows of new cleared on cols by
    adjugate multiples of a and b and reduced fraction-free."""
    x, y = cols
    det = lambda a, b: a.get(x, 0) * b.get(y, 0) - a.get(y, 0) * b.get(x, 0)
    pair = next(((a, b) for a, b in combinations(new, 2) if det(a, b)), None)
    if len(new) != len(old) + 2 or pair is None:
        return False
    (a, b), pivots = pair, {}
    d = det(a, b)
    for row in new:
        if row is not a and row is not b:
            _add_pivot(((d, row), (-det(row, b), a), (-det(a, row), b)), pivots)
    return not any(_add_pivot(((1, row),), pivots) for row in old)


def _add_pivot(terms: Sequence[tuple[int, Mapping[int, int]]], pivots: dict[int, dict[int, int]]) -> bool:
    """Reduce the row sum(f * row for f, row in terms) fraction-free by the
    pivots (each keyed by its largest column) of its largest columns until
    it vanishes (False) or its largest column has none, whose pivot it
    becomes (True)."""
    while True:
        row: dict[int, int] = {}
        for f, r in terms:
            for c, z in r.items():
                row[c] = row.get(c, 0) + f * z
        if not (row := {c: z for c, z in row.items() if z}):
            return False
        if (piv := pivots.get(col := max(row))) is None:
            pivots[col] = row
            return True
        terms = ((piv[col], row), (-row[col], piv))


def float_rank(rows: Sequence[Sequence[float]]) -> int:
    # Imported here: only frameworks under an LpNorm reach this, and numpy
    # would otherwise dominate the cost of importing gainrig.
    import numpy as np

    a = np.asarray(rows, dtype=float)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if len(s) == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > FLOAT_RANK_RTOL * s[0]))

