"""End-to-end demo: generate, decompose, reconstruct, realise, analyse.

Runs the whole pipeline for a handful of sizes and seeds and prints a small
report.  Usage:

    python3 scripts/demo_pipeline.py [--n N] [--seed SEED] [--character {0,1}]
"""

from __future__ import annotations

import argparse

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


def run(n: int, seed: int, j: int) -> None:
    params = PARAMS_220 if j == 0 else PARAMS_222
    g = random_tight(n, params, seed=seed)
    print(f"n={g.n} |E|={len(g.edges)} counts={params} seed={seed}")
    print(f"  edges: {g.triples()}")

    seq, pi, signs = decompose(g, params)
    rebuilt = construct(seq)
    assert apply_iso(g, pi, signs) == rebuilt
    print(f"  decomposed to bases {seq.initial} in {len(seq.steps)} moves,"
          f" reconstruction matches via pi={pi} signs={signs}")

    fw = realize(seq, j)
    verdict = geometric_verdict(fw)
    report = analyse(fw, j)
    flag = verdict.chi0_isostatic if j == 0 else verdict.chi1_isostatic
    assert flag and report.isostatic
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
