"""End-to-end demo: generate, decompose, reconstruct, realise, analyse.

Runs the whole pipeline for a handful of sizes and seeds and prints a small
report.  Usage:

    python3 scripts/demo_pipeline.py [--n N] [--seed SEED] [--character {0,1}]
"""

from __future__ import annotations

import argparse
import sys

from gainrig import (
    PARAMS_220,
    PARAMS_222,
    analyse,
    apply_iso,
    construct,
    decompose,
    geometric_verdict,
    random_tight,
    realize,
)


def check(ok: bool, what: str) -> None:
    """Print what failed and exit 1 unless ok; unlike assert, python -O keeps it."""
    if not ok:
        print(f"FAIL: {what}", file=sys.stderr)
        sys.exit(1)


def run(n: int, seed: int, j: int) -> None:
    params = PARAMS_220 if j == 0 else PARAMS_222
    g = random_tight(n, params, seed=seed)
    print(f"n={g.n} |E|={len(g.edges)} counts={params} seed={seed}")
    print(f"  edges: {g.triples()}")

    seq, pi, signs = decompose(g, params)
    rebuilt = construct(seq)
    check(apply_iso(g, pi, signs) == rebuilt,
          f"construct(seq) is not apply_iso(g, pi, signs) for pi={pi} signs={signs}")
    print(f"  decomposed to bases {seq.initial} in {len(seq.steps)} moves,"
          f" reconstruction matches via pi={pi} signs={signs}")

    fw = realize(seq, j)
    verdict = geometric_verdict(fw)
    report = analyse(fw, j)
    flag = verdict.chi0_isostatic if j == 0 else verdict.chi1_isostatic
    check(flag and report.isostatic,
          f"character-{j} placement: colouring isostatic={flag}, rank isostatic={report.isostatic}")
    print(f"  realised: rank={report.rank} trivial={report.trivial}"
          f" isostatic={report.isostatic} (colouring oracle agrees)")
    for v, (x, y) in enumerate(fw.positions):
        print(f"    p[{v}] = ({x}, {y})")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0, help="seed of the random graph")
    ap.add_argument("--character", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    run(args.n, args.seed, args.character)


if __name__ == "__main__":
    main()
