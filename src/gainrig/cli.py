"""Command-line interface.

Exit codes: 0 for PASS/success verdicts, 1 for FAIL verdicts (a witness is
printed as JSON), 2 for usage, parse, or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import PARAMS_220
from .colouring import geometric_verdict
from .construct import (
    NoAdmissibleReduction,
    NotTight,
    construct,
    decompose,
    random_tight,
)
from .graph import GainGraphError
from .iso import apply_iso
from .jsonio import (
    FormatError,
    framework_from_dict,
    framework_to_dict,
    graph_from_dict,
    graph_to_dict,
    load_json,
    norm_from_json,
    save_json,
    sequence_from_dict,
    sequence_to_dict,
)
from .moves import MoveError
from .placement import PlacementError, realize
from .rigidity import FrameworkError, analyse, well_positioned
from .sparsity import SparsityParams, check_sparsity


def _counts(text: str) -> SparsityParams:
    try:
        k, l, m = (int(x) for x in text.split(","))
        return SparsityParams(k, l, m)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad counts {text!r}: {exc}")


def _emit(report: dict, summary: str) -> None:
    print(summary)
    print(json.dumps(report, indent=2))


def _write_or_print(path, obj) -> None:
    if path:
        save_json(path, obj)
    else:
        print(json.dumps(obj, indent=2))


def cmd_check(args) -> int:
    g = graph_from_dict(load_json(args.graph))
    p = args.counts
    rep = check_sparsity(g, p)
    tight = rep.passed and len(g.edges) == p.k * g.n - p.m
    if not rep.passed:
        _emit(
            {
                "verdict": "FAIL",
                "counts": list(p.as_tuple()),
                "witness": rep.witness and [e.as_list() for e in rep.witness],
                "support": rep.support and list(rep.support),
                "bound": rep.bound,
                "balanced_violation": rep.balanced_violation,
            },
            "FAIL",
        )
        return 1
    verdict = "TIGHT" if tight else "PASS"
    _emit(
        {
            "verdict": verdict,
            "counts": list(p.as_tuple()),
            "edges": len(g.edges),
            "vertices": g.n,
        },
        verdict,
    )
    return 0


def cmd_decompose(args) -> int:
    g = graph_from_dict(load_json(args.graph))
    seq, pi, signs = decompose(g, args.counts)
    out = sequence_to_dict(seq)
    out["isomorphism"] = {"pi": list(pi), "signs": list(signs)}
    _write_or_print(args.output, out)
    print(
        f"decomposed to bases {list(seq.initial)} "
        f"in {len(seq.steps)} moves",
        file=sys.stderr,
    )
    return 0


def cmd_construct(args) -> int:
    g = construct(sequence_from_dict(load_json(args.sequence)))
    _write_or_print(args.output, graph_to_dict(g))
    return 0


def cmd_gen(args) -> int:
    g = random_tight(args.n, args.counts, args.seed)
    _write_or_print(args.output, graph_to_dict(g))
    return 0


def cmd_analyse(args) -> int:
    fw = framework_from_dict(load_json(args.framework))
    if not well_positioned(fw):
        _emit({"verdict": "FAIL", "reason": "not well-positioned"}, "FAIL")
        return 1
    rep = analyse(fw, args.character)
    _emit(
        {
            "character": rep.character,
            "rank": rep.rank,
            "edge_orbits": rep.edge_count,
            "dof": rep.dof,
            "trivial_dim": rep.trivial,
            "flex_dim": rep.flex_dim,
            "rigid": rep.rigid,
            "independent": rep.independent,
            "isostatic": rep.isostatic,
        },
        rep.describe(),
    )
    return 0


def cmd_colour(args) -> int:
    fw = framework_from_dict(load_json(args.framework))
    if not well_positioned(fw):
        _emit({"verdict": "FAIL", "reason": "not well-positioned"}, "FAIL")
        return 1
    gv = geometric_verdict(fw)
    _emit(
        {
            "classes": [
                [e.as_list() for e in cls] for cls in gv.classes
            ],
            "chi0_isostatic": gv.chi0_isostatic,
            "chi1_isostatic": gv.chi1_isostatic,
            "infinitesimally_rigid": gv.infinitesimally_rigid,
        },
        f"chi0={gv.chi0_isostatic} chi1={gv.chi1_isostatic} "
        f"rigid={gv.infinitesimally_rigid}",
    )
    return 0


def cmd_realize(args) -> int:
    seq = sequence_from_dict(load_json(args.sequence))
    j = seq.character if args.character is None else args.character
    fw = realize(seq, j, norm=norm_from_json(args.norm))
    _write_or_print(args.output, framework_to_dict(fw))
    return 0


def cmd_roundtrip(args) -> int:
    g = random_tight(args.n, args.counts, args.seed)
    seq, pi, signs = decompose(g, args.counts)
    h = construct(seq)
    if apply_iso(g, pi, signs) != h:
        _emit(
            {
                "verdict": "FAIL",
                "reason": "reconstruction does not match the returned isomorphism",
                "input": graph_to_dict(g),
                "output": graph_to_dict(h),
            },
            "FAIL",
        )
        return 1
    _emit(
        {
            "verdict": "PASS",
            "n": g.n,
            "edges": len(g.edges),
            "bases": list(seq.initial),
            "moves": len(seq.steps),
        },
        "PASS",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gainrig",
        description=(
            "Combinatorial and geometric rigidity of half-turn-symmetric "
            "frameworks in polyhedral-normed planes"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify gain-sparsity of a graph")
    p.add_argument("graph")
    p.add_argument("--counts", type=_counts, default=PARAMS_220)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="reduce a tight graph to bases")
    p.add_argument("graph")
    p.add_argument("--counts", type=_counts, default=PARAMS_220)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("construct", help="replay a construction sequence")
    p.add_argument("sequence")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("gen", help="generate a random tight graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--counts", type=_counts, default=PARAMS_220)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyse", help="orbit-matrix rank analysis")
    p.add_argument("framework")
    p.add_argument("--character", type=int, default=0)
    p.set_defaults(func=cmd_analyse)

    p = sub.add_parser("colour", help="facet colouring and verdicts")
    p.add_argument("framework")
    p.set_defaults(func=cmd_colour)

    p = sub.add_parser("realize", help="synthesise a verified placement")
    p.add_argument("sequence")
    p.add_argument("--character", type=int, choices=(0, 1), help="default: the sequence's (its counts fix it)")
    p.add_argument("--norm", default="linf", choices=("linf", "l1"))
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("roundtrip", help="gen, decompose, construct, compare")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--counts", type=_counts, default=PARAMS_220)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_roundtrip)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (NotTight, NoAdmissibleReduction, MoveError, PlacementError) as exc:
        # Before ValueError: NotTight and MoveError are ValueErrors.
        _emit({"verdict": "FAIL", "reason": str(exc)}, "FAIL")
        return 1
    except (FormatError, GainGraphError, FrameworkError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
