"""Output checks computed apart from the program.

Nothing here calls gainrig: each check re-derives what it needs from the
raw triples, positions and gains, so a fault in a shared helper of the
program cannot make a wrong output look right.  Every check returns None
when the output is right, or a short reason when it is wrong.
"""

from __future__ import annotations

from fractions import Fraction

Triple = tuple[int, int, int]

PRIME = (1 << 61) - 1

KINDS_220 = frozenset(
    ("H1a", "H1b", "H1c", "H2a", "H2b", "H2c", "H2d", "H2e",
     "H3a", "H3b", "H3c", "H3d", "VertexToK4", "VertexSplit")
)
KINDS_222 = frozenset(("H1a", "H1b", "H2a", "H2b", "VertexToK4", "VertexSplit"))
BASES_220 = frozenset("abcdefgh")

# Trivial motions of a half-turn-symmetric l-infinity framework: a
# polyhedral norm has no infinitesimal rotations, and the two translations
# are anti-symmetric under the half turn, so they sit in character 1.
TRIVIAL = {0: 0, 1: 2}


def _norm(u: int, v: int, g: int) -> Triple:
    return (u, v, g) if u <= v else (v, u, g)


def switching_potential(edges) -> dict[int, int] | None:
    """Signs s with gain == s_u * s_v on every edge, or None when the edge
    set is unbalanced (a loop, or a cycle of gain -1)."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for u, v, g in edges:
        if u == v:
            return None
        adj.setdefault(u, []).append((v, g))
        adj.setdefault(v, []).append((u, g))
    sign: dict[int, int] = {}
    for root in adj:
        if root in sign:
            continue
        sign[root] = 1
        stack = [root]
        while stack:
            x = stack.pop()
            for y, g in adj[x]:
                want = sign[x] * g
                if y not in sign:
                    sign[y] = want
                    stack.append(y)
                elif sign[y] != want:
                    return None
    return sign


def check_verdict(edges: set, counts: tuple[int, int, int], truth: bool, cause: str | None,
                  passed: bool, witness, flagged_balanced, tight) -> str | None:
    """Certify verdict: PASS must match the truth (and check_tight must agree
    on tight inputs); a FAIL witness must be a set of the graph's edges over
    its own bound, balanced when flagged so, of the planted kind if known."""
    if passed != truth:
        return f"verdict {'PASS' if passed else 'FAIL'}, expected {'PASS' if truth else 'FAIL'}"
    if truth:
        return None if tight else "check_tight rejected a tight graph"
    wit = [tuple(e) for e in witness]
    if len(set(wit)) != len(wit) or not set(wit) <= edges:
        return "witness is not a set of the graph's edges"
    k, l, m = counts
    support = {x for u, v, _ in wit for x in (u, v)}
    bound = k * len(support) - (l if flagged_balanced else m)
    if len(wit) <= bound:
        return f"witness of {len(wit)} edges within its bound {bound}"
    if flagged_balanced and switching_potential(wit) is None:
        return "witness flagged balanced is unbalanced"
    if cause == "balanced" and not flagged_balanced:
        return "planted balanced violation reported as general"
    return None


def apply_iso(edges, pi, signs) -> list[Triple]:
    """Image of an edge list under switching by signs, then relabelling by pi."""
    out = []
    for u, v, g in edges:
        gain = g if u == v else g * signs[u] * signs[v]
        out.append(_norm(pi[u], pi[v], gain))
    return sorted(out)


def check_roundtrip(n: int, edges, regime: str, initial, kinds, pi, signs,
                    rebuilt_n: int, rebuilt) -> str | None:
    """decompose + construct: apply_iso(g, pi, signs) == construct(seq), with
    every move kind allowed in the regime and the regime's starting bases."""
    if sorted(pi) != list(range(n)) or any(s not in (1, -1) for s in signs) or len(signs) != n:
        return "isomorphism is not a relabelling plus switching"
    if rebuilt_n != n or apply_iso(edges, pi, signs) != sorted(rebuilt):
        return "construct(seq) differs from the image of the input"
    allowed = KINDS_222 if regime == "222" else KINDS_220
    if not set(kinds) <= allowed:
        return f"move kinds {sorted(set(kinds) - allowed)} not allowed in ({regime})"
    if regime == "222" and tuple(initial) != ("k1",):
        return f"(2,2,2) sequence starts from {tuple(initial)}"
    if regime == "220" and not (initial and set(initial) <= BASES_220):
        return f"(2,2,0) sequence starts from {tuple(initial)}"
    return None


def orbit_rows(n: int, edges, positions, j: int) -> list[list[int]] | str:
    """l-infinity orbit matrix of the character-j block, built from the
    positions and gains alone, or a reason if an edge has no facet.

    The bar of edge (u, v, g) joins p_u to the image of p_v, which is -p_v
    for g = -1.  Its support covector phi is +-e_x or +-e_y, whichever
    coordinate of the difference is larger in size.  The image's velocity is
    (-1)^j times the rotated velocity of v, so the row is +phi on u and
    -phi on v for g = +1, or +(-1)^j phi on v for g = -1; a loop's row is
    (1 + (-1)^j) phi.
    """
    rows = []
    chi = -1 if j else 1
    for u, v, g in edges:
        pu, pv = positions[u], positions[v]
        if g == -1:
            pv = (-pv[0], -pv[1])
        dx, dy = pu[0] - pv[0], pu[1] - pv[1]
        if abs(dx) == abs(dy):
            return f"edge {(u, v, g)} has no unique facet"
        axis = 0 if abs(dx) > abs(dy) else 1
        sign = 1 if (dx if axis == 0 else dy) > 0 else -1
        row = [0] * (2 * n)
        row[2 * u + axis] += sign
        row[2 * v + axis] += sign * (-1 if g == 1 else chi)
        rows.append(row)
    return rows


def rank_mod_p(rows: list[list[int]], p: int = PRIME) -> int:
    """Rank over GF(p), by reducing each sparse row against the pivots so far."""
    pivots: dict[int, dict[int, int]] = {}  # leading column -> row, leading entry 1
    for dense in rows:
        row = {c: x % p for c, x in enumerate(dense) if x % p}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = {c: x * inv % p for c, x in row.items()}
                break
            f = row[lead]
            for c, x in piv.items():
                y = (row.get(c, 0) - f * x) % p
                if y:
                    row[c] = y
                else:
                    row.pop(c, None)
    return len(pivots)


def isostatic_certificate(n: int, edges, positions, j: int) -> str | None:
    """Certificate of isostaticity over Q: |E| = 2n - trivial and the orbit
    matrix has full row rank modulo a prime (rank mod p never exceeds the
    rank over Q, so full rank mod p proves full rank)."""
    if any(p[0] == 0 and p[1] == 0 for p in positions):
        return "a vertex sits at the rotation centre"
    if len(edges) != 2 * n - TRIVIAL[j]:
        return f"{len(edges)} edges, isostatic needs {2 * n - TRIVIAL[j]}"
    rows = orbit_rows(n, edges, positions, j)
    if isinstance(rows, str):
        return rows
    r = rank_mod_p(rows)
    if r != len(edges):
        return f"orbit matrix rank {r} mod p, {len(edges)} rows"
    return None


def check_realisation(seq_n: int, seq_edges, j: int, fw_n: int, fw_edges,
                      positions, isostatic: bool, coloured: bool, same_after_json: bool) -> str | None:
    if fw_n != seq_n or sorted(fw_edges) != sorted(seq_edges):
        return "framework graph differs from the sequence's graph"
    if not isostatic or not coloured:
        return "program's own verdicts reject its placement"
    if not same_after_json:
        return "JSON round trip changed the framework"
    if any(not isinstance(c, Fraction) for p in positions for c in p):
        return "positions are not exact rationals"
    return isostatic_certificate(seq_n, seq_edges, positions, j)
