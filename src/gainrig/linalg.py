"""Exact and floating-point matrix rank, and the local rank certificate of a
one-vertex step.

Exact ranks are of integer matrices given by sparse rows, {column: entry}
(rigidity.orbit_rows builds them so).  One sparse fraction-free elimination
over the integers, _add_pivot, decides them all: each row is reduced by the
pivot of its largest column (its newest vertex's; the rank does not depend
on the order) until it vanishes or becomes a pivot, and each reduced row is
divided by the gcd of its entries, so the rows stay primitive and their
entries near the size of the matrix's minors.  matrix_rank counts the
pivots; step_certified reduces a step's rows by the same pass.  The tests
check both against dense Bareiss elimination, the reference.  Dense rows
with irrational entries (floats) use numpy's SVD with a relative
singular-value threshold.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Mapping, Sequence

FLOAT_RANK_RTOL = 1e-9


def matrix_rank(rows: Sequence[Mapping[int, int]]) -> int:
    """Exact rank of the integer matrix with these sparse rows (zero entries
    may be left out): the number of them that become pivots."""
    pivots: dict[int, dict[int, int]] = {}
    return sum(_add_pivot(((1, row),), pivots) for row in rows)


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
    pivots (each keyed by its largest column) of its largest columns, each
    reduced row divided by the gcd of its entries, until it vanishes (False)
    or its largest column has none, whose pivot it becomes (True)."""
    while True:
        row: dict[int, int] = {}
        for f, r in terms:
            for c, z in r.items():
                row[c] = row.get(c, 0) + f * z
        if not (row := {c: z for c, z in row.items() if z}):
            return False
        if (g := gcd(*row.values())) > 1:
            row = {c: z // g for c, z in row.items()}
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

