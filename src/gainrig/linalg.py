"""Exact and floating-point matrix rank.

Rational matrices are ranked exactly: each row is scaled to integers and a
fraction-free (Bareiss) elimination runs in arbitrary-precision ints.  Rows
with irrational entries (floats) fall back to numpy's SVD with a relative
singular-value threshold.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

FLOAT_RANK_RTOL = 1e-9


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a matrix of Fractions (or ints)."""
    m = []
    for row in rows:
        if any(row):
            mult = lcm(*(x.denominator for x in row))
            m.append([x.numerator * (mult // x.denominator) for x in row])
    if not m:
        return 0
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


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Dispatch: exact if every entry is a Fraction/int, SVD otherwise."""
    exact = all(
        isinstance(x, (Fraction, int)) for row in rows for x in row
    )
    if exact:
        return rational_rank(rows)
    return float_rank([[float(x) for x in row] for row in rows])
