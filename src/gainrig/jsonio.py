"""JSON (de)serialisation for graphs, frameworks, moves and sequences.

Formats:
  graph      {"n": int, "edges": [[u, v, gain], ...]}
  framework  graph fields plus "positions": [[x, y], ...] (rationals as
             "p/q" strings, integers, or decimals), "group": {"n": int},
             "norm": "linf" | "l1" | {"p": num[, "dimension": int]}
                     | {"facets": [[a,b],[c,d]]}
  sequence   {"counts": [k, l, m], "initial": [base ids], "steps": [moves]}
  move       {"kind": ..., plus only the parameters the kind uses}

A group order whose covering of order x len(positions) points (each rotated
and kept by `rigidity.covering_keys`, ~10 us apiece) would pass MAX_COVERING
is refused before any Framework is built, so a few bytes cannot ask for hours.
So is a graph of more than MAX_VERTICES vertices before any graph is built:
the sparsity checker's forests keep tables per vertex, edge or not, so a
few bytes with n = 10**9 would ask for gigabytes.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import fields
from fractions import Fraction
from typing import Any

from .graph import Edge, GainGraph, edge
from .moves import Move, arity_error
from .norms import L1, LINF, LpNorm, Norm, PolyhedralNorm
from .rigidity import Framework
from .sparsity import SparsityParams


class FormatError(ValueError):
    pass


MAX_COVERING = 100_000
MAX_VERTICES = 1_000_000


# ---------------------------------------------------------------------------
# Rationals.
# ---------------------------------------------------------------------------


_RATIO = re.compile(r"(-?[0-9]+)/([0-9]+)")


def parse_rational(x: Any) -> Fraction:
    if isinstance(x, bool):
        raise FormatError(f"not a number: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    if isinstance(x, str):
        try:
            m = _RATIO.fullmatch(x)  # canonical, as dump_rational writes: read from two ints
            e, limit = re.search(r"[eE]([-+]?[0-9_]+)\s*$", x), sys.get_int_max_str_digits()
            if e and limit and abs(int(e[1])) > limit:  # Fraction would build 10**exponent first
                raise ValueError(f"exponent beyond the {limit}-digit integer limit")
            return Fraction(int(m[1]), int(m[2])) if m and m[2].strip("0") else Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad rational {x!r}: {exc}") from exc
    raise FormatError(f"bad rational {x!r}")


def dump_rational(x) -> Any:
    f = x if isinstance(x, Fraction) else Fraction(x)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# Graphs.
# ---------------------------------------------------------------------------


def graph_to_dict(g: GainGraph) -> dict:
    return {"n": g.n, "edges": g.triples()}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _edge_from_list(t) -> Edge:
    if not (isinstance(t, list) and len(t) == 3 and all(_is_int(c) for c in t)):
        raise FormatError(f"edge entries must be [u, v, gain]: {t!r}")
    return edge(*t)


def graph_from_dict(d: dict) -> GainGraph:
    try:
        n = d["n"]
        edges = d["edges"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"graph needs 'n' and 'edges': {exc}") from exc
    if not _is_int(n) or not isinstance(edges, list):
        raise FormatError("'n' must be an integer and 'edges' a list")
    if n > MAX_VERTICES:
        raise FormatError(f"'n' is {n}, over {MAX_VERTICES}")
    return GainGraph(n, tuple(_edge_from_list(t) for t in edges))


# ---------------------------------------------------------------------------
# Norms and frameworks.
# ---------------------------------------------------------------------------


def norm_from_json(desc: Any) -> Norm:
    if desc == "linf":
        return LINF
    if desc == "l1":
        return L1
    if isinstance(desc, dict) and "p" in desc:
        p = desc["p"]
        if not (_is_int(p) or isinstance(p, float)):
            raise FormatError(f"norm exponent 'p' must be a number, got {p!r}")
        dim = desc.get("dimension", 2)
        if not _is_int(dim):
            raise FormatError(f"norm 'dimension' must be an integer, got {dim!r}")
        try:
            return LpNorm(float(p), dim)
        except OverflowError as exc:
            raise FormatError("norm exponent 'p' is out of range") from exc
    if isinstance(desc, dict) and "facets" in desc:
        facets = desc["facets"]
        if not (isinstance(facets, list) and len(facets) == 2
                and all(isinstance(f, list) and len(f) == 2 for f in facets)):
            raise FormatError("'facets' must list two covectors [a, b]")
        return PolyhedralNorm(
            tuple(
                tuple(parse_rational(c) for c in f) for f in facets
            )
        )
    raise FormatError(f"unknown norm descriptor {desc!r}")


def norm_to_json(norm: Norm) -> Any:
    if norm == LINF:
        return "linf"
    if norm == L1:
        return "l1"
    if isinstance(norm, LpNorm):
        return {"p": norm.p} if norm.dimension == 2 else {"p": norm.p, "dimension": norm.dimension}
    return {"facets": [[dump_rational(c) for c in f] for f in norm.facets]}


def framework_to_dict(fw: Framework) -> dict:
    return {**graph_to_dict(fw.graph), "positions": [[dump_rational(c) for c in p] for p in fw.positions],
            "group": {"n": fw.group_order}, "norm": norm_to_json(fw.norm)}


def framework_from_dict(d: dict) -> Framework:
    g = graph_from_dict(d)
    raw = d.get("positions")
    if not (isinstance(raw, list) and all(isinstance(p, list) for p in raw)):
        raise FormatError(f"framework needs 'positions', a list of points, got {raw!r}")
    positions = tuple(tuple(parse_rational(c) for c in p) for p in raw)
    group = d.get("group", {"n": 2})
    order = group.get("n", 2) if isinstance(group, dict) else None
    if not _is_int(order):
        raise FormatError(f"'group' needs an object with integer group order 'n', got {group!r}")
    if order * len(positions) > MAX_COVERING:
        raise FormatError(f"group order {order} covers {order * len(positions)} positions, over {MAX_COVERING}")
    norm = norm_from_json(d.get("norm", "linf"))
    return Framework(g, positions, norm, order)


# ---------------------------------------------------------------------------
# Moves and sequences.
# ---------------------------------------------------------------------------


def _plain(x):
    """x with every tuple in it (an Edge is one) written as a list."""
    return [_plain(y) for y in x] if isinstance(x, tuple) else x


def move_to_dict(mv: Move) -> dict:
    """Every field that differs from its default, in field order: kind (it
    has none) and the set ones, which arity_error lets only the kind's be."""
    return {f.name: _plain(val) for f in fields(Move) if (val := getattr(mv, f.name)) != f.default}


def move_from_dict(d: dict) -> Move:
    """Parse a move: a known kind, no key but Move's fields, each field of
    the right type, gains of +-1, and as many vertices, gains and removed
    edges as ARITY gives (moves.arity_error)."""
    try:
        kind = d["kind"]
    except (KeyError, TypeError) as exc:
        raise FormatError("move needs 'kind'") from exc
    if not isinstance(kind, str):
        raise FormatError(f"move kind must be a string, got {kind!r}")
    unknown = sorted(set(d) - {f.name for f in fields(Move)})
    if unknown:
        raise FormatError(f"{kind} move: no field {unknown[0]!r}")

    def items(key: str) -> list:
        val = d.get(key, [])
        if not isinstance(val, list):
            raise FormatError(f"{kind} move: '{key}' must be a list, got {val!r}")
        return val

    def ints(key: str) -> tuple[int, ...]:
        val = items(key)
        if not all(_is_int(x) for x in val):
            raise FormatError(f"{kind} move: '{key}' must hold integers, got {val!r}")
        return tuple(val)

    attach = items("attach")
    if not all(isinstance(a, list) and len(a) == 2 and _is_int(a[1]) for a in attach):
        raise FormatError(f"{kind} move: 'attach' entries must be [edge, index]")
    loop_attach = None if d.get("loop_attach") is None else ints("loop_attach")
    if loop_attach is not None and len(loop_attach) != 2:
        raise FormatError(f"{kind} move: 'loop_attach' must be [i, j]")
    v2_edge, move_loop = d.get("v2_edge"), d.get("move_loop", False)
    if not isinstance(move_loop, bool):
        raise FormatError(f"{kind} move: 'move_loop' must be true or false, got {move_loop!r}")
    mv = Move(
        kind=kind,
        vertices=ints("vertices"),
        gains=ints("gains"),
        removed=tuple(_edge_from_list(t) for t in items("removed")),
        attach=tuple((_edge_from_list(t), idx) for t, idx in attach),
        loop_attach=loop_attach,
        v2_edge=None if v2_edge is None else _edge_from_list(v2_edge),
        moved=tuple(_edge_from_list(t) for t in items("moved")),
        move_loop=move_loop,
    )
    if any(gn not in (1, -1) for gn in mv.gains):
        raise FormatError(f"{kind} move: gains must be +1 or -1, got {list(mv.gains)}")
    problem = arity_error(mv)
    if problem is not None:
        raise FormatError(problem)
    return mv


def sequence_to_dict(seq) -> dict:
    return {
        "counts": list(seq.params.as_tuple()),
        "initial": list(seq.initial),
        "steps": [move_to_dict(m) for m in seq.steps],
    }


def sequence_from_dict(d: dict):
    from .construct import ConstructionSequence

    try:
        counts = d["counts"]
        initial = d["initial"]
        steps = d["steps"]
    except (KeyError, TypeError) as exc:
        raise FormatError(
            "sequence needs 'counts', 'initial' and 'steps'"
        ) from exc
    if not (
        isinstance(counts, list) and len(counts) == 3 and all(_is_int(c) for c in counts)
        and isinstance(initial, list) and all(isinstance(b, str) for b in initial)
        and isinstance(steps, list)
    ):
        raise FormatError(
            "sequence needs 'counts' [k, l, m], 'initial' base ids and a 'steps' list"
        )
    try:
        params = SparsityParams(*counts)
    except ValueError as exc:
        raise FormatError(f"sequence {exc}") from exc
    return ConstructionSequence(
        params=params,
        initial=tuple(initial),
        steps=tuple(move_from_dict(m) for m in steps),
    )


# ---------------------------------------------------------------------------
# File helpers.
# ---------------------------------------------------------------------------


def load_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}") from exc


def save_json(path: str, obj: Any) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
