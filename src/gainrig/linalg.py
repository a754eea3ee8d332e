"""Exact and floating-point matrix rank: mod-p rank certificate, exact
Bareiss fallback.

Exact ranks are of integer matrices given by sparse rows, {column: entry}
(rigidity.orbit_rows builds them so).  The rows are first eliminated
modulo the prime P = 2^61 - 1, staying sparse.  Rank mod P never exceeds
rank over Q, so a rank mod P equal to min(nonzero rows, cols), counting a
row nonzero by its integer entries, proves that rank.  Otherwise a
fraction-free (Bareiss) elimination in arbitrary-precision ints of the
dense rows gives the exact rank.  Dense rows with irrational entries
(floats) use numpy's SVD with a relative singular-value threshold.
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

    Each pivot row is kept as a {column: value} dict whose smallest column
    is its pivot, scaled to 1 there; a row is reduced by the pivot of its
    smallest column until that column has none (a new pivot) or the row
    vanishes.
    """
    pivots: dict[int, dict[int, int]] = {}
    for sparse in m:
        row = {c: x % PRIME for c, x in sparse.items() if x % PRIME}
        while row:
            col = min(row)
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


def step_certified(new: Sequence[Sequence[int]], old: Sequence[Sequence[int]]) -> bool:
    """The local rank certificate of a one-vertex step (see placement), on
    dense integer rows whose last two columns are the new vertex's: new has
    two rows more than old, two of them, a and b, a nonzero 2x2 block there,
    and rank(K + old) == rank(K), K the rows of new cleared there by adjugate
    multiples of a and b (a and b themselves become zero)."""
    pair = next(((a, b) for a, b in combinations(new, 2) if a[-2] * b[-1] != a[-1] * b[-2]), None)
    if len(new) != len(old) + 2 or pair is None:
        return False
    (p, q), (r, s) = (row[-2:] for row in pair)
    k = [[(p * s - q * r) * z - (x * s - y * r) * za - (y * p - x * q) * zb for z, za, zb in zip(row, *pair)]
         for row in new for x, y in [row[-2:]]]
    return not old or _bareiss_rank([*map(list, k), *map(list, old)]) == _bareiss_rank(k)


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

