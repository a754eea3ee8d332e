"""Scaling benchmark of the sparsity checker, the round trip and placement.

Times check_tight, decompose and construct(verify=True) on tight graphs from
perfbench's own generator (gen.tight_graph: unions of two matroid bases, so
no checker decides what the input is), with a digest of each decompose
output (its sequence, pi and signs as canonical JSON), and realize on
perfbench's forward sequences (gen.forward_sequence), character 0 for
(2,2,0) and character 1 for (2,2,2), and realize_random: realize of
decompose(random_tight(n, p, seed)) up to n = RANDOM_MAX, whose sequences
hold every move kind of the regime (vertex-to-K4 and vertex split among
them).  Each realize row has a digest of the positions it placed and the
number of analyse calls (global ranks) placement made in one run.  It
writes one JSON file.  Each time is also rescaled to a fixed machine speed
with perfbench's reference loop, timed just before and after the call (see
perfbench/README.md, "Load and timing").  With --repeat k each stage is
timed k times: ``seconds`` and ``raw_seconds`` are the medians, so files
made with and without repeats compare, and ``min_seconds`` and
``max_seconds`` give the spread of the rescaled times.  Standard library
only; it imports gainrig from this checkout's src/.  The sizes and the
seed are fixed, so any two BENCH files compare at the sizes both hold.
The file records the commit and the git tree id of src/ as it was run,
which equals `git rev-parse <commit>:src` of any commit holding that code,
uncommitted changes included.  Usage:

    python3 scripts/bench.py [--repeat K] [-o PATH]

PATH defaults to BENCH_<date>.json at the root of the checkout; an existing
file there is not overwritten unless named with -o.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402  (perfbench's input generator)
from run import REF_S, reference  # noqa: E402

from gainrig import (  # noqa: E402
    PARAMS_220, PARAMS_222, GainGraph, apply_iso, check_tight, construct, decompose, placement,
    random_tight, realize,
)
from gainrig.jsonio import sequence_to_dict  # noqa: E402

REGIMES = {"220": PARAMS_220, "222": PARAMS_222}
CHARACTER = {"220": 0, "222": 1}  # the character realize places each regime at
SIZES = (100, 200, 400, 800, 1600, 3200, 6400)  # append new sizes, so older files still compare
DECOMPOSE_MAX = 3200  # largest n also timed through decompose and construct
RANDOM_MAX = 800  # largest n of the realize_random stage
SEED = 1


def timed(call, repeat: int):
    """(result, [(raw seconds, seconds rescaled by the reference loop)] of
    each of `repeat` calls)."""
    runs = []
    for _ in range(repeat):
        before = statistics.median(reference() for _ in range(3))
        t = time.perf_counter()
        result = call()
        raw = time.perf_counter() - t
        after = statistics.median(reference() for _ in range(3))
        runs.append((raw, raw * REF_S * 2 / (before + after)))
    return result, runs


def digest(obj) -> str:
    """A short hash of obj as canonical JSON, equal for byte-identical outputs."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def git(*args: str, env=None):
    """The output of a git command run in this checkout, or None."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30, check=True, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def src_tree():
    """The git tree id of src/ as it is on disk, staged through a temporary
    index so that the checkout's own index is left alone."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        if git("add", "src", env=env) is None:
            return None
        return git("write-tree", "--prefix=src/", env=env)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-o", "--output")
    ap.add_argument("--repeat", type=int, default=1, metavar="K",
                    help="time each stage K times and keep the median (default 1)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    today = datetime.datetime.now(datetime.timezone.utc).date().isoformat()
    path = Path(args.output or ROOT / f"BENCH_{today}.json")
    if args.output is None and path.exists():
        print(f"error: {path} exists; name the output with -o", file=sys.stderr)
        return 2

    rows = []

    def record(stage, regime, g, call, **extra):
        out, runs = timed(call, args.repeat)
        raw = statistics.median(r for r, _ in runs)
        scaled = sorted(s for _, s in runs)
        s = statistics.median(scaled)
        rows.append({"stage": stage, "regime": regime, "n": g.n,
                     "edges": len(g.edges), **extra,
                     "seconds": round(s, 4), "min_seconds": round(scaled[0], 4),
                     "max_seconds": round(scaled[-1], 4), "raw_seconds": round(raw, 4)})
        print(f"{stage:12} ({regime}) n={g.n:4}  {s:8.3f} s  "
              f"[{scaled[0]:.3f}, {scaled[-1]:.3f}]  (raw {raw:.3f} s)", flush=True)
        return out, s

    for regime, p in REGIMES.items():
        for n in SIZES:
            triples = gen.tight_graph(random.Random(SEED), n, regime)
            g = GainGraph.from_triples(n, triples)
            ok, _ = record("check_tight", regime, g, lambda: check_tight(g, p))
            if n <= DECOMPOSE_MAX:
                (seq, pi, signs), t_dec = record("decompose", regime, g,
                                                 lambda: decompose(g, p))
                rows[-1]["sequence_sha256"] = digest(
                    {**sequence_to_dict(seq), "pi": list(pi), "signs": list(signs)})
                built, t_con = record("construct", regime, g,
                                      lambda: construct(seq, verify=True),
                                      moves=len(seq.steps))
                ok = ok and built == apply_iso(g, pi, signs)
                rows.append({"stage": "roundtrip", "regime": regime, "n": n,
                             "edges": len(g.edges), "seconds": round(t_dec + t_con, 4)})
            if not ok:
                print(f"error: ({regime}) n={n}: a tight input was not certified "
                      "or rebuilt", file=sys.stderr)
                return 1
    calls, analyse = [], placement.analyse  # one entry per analyse call placement makes
    placement.analyse = lambda fw, j: calls.append(1) or analyse(fw, j)

    def placed(stage, regime, g, seq, j) -> bool:
        """Time realize(seq, j) as `stage` and whether it placed g."""
        calls.clear()
        fw, _ = record(stage, regime, g, lambda: realize(seq, j), character=j, moves=len(seq.steps))
        rows[-1]["positions_sha256"] = digest([[str(c) for c in p] for p in fw.positions])
        rows[-1]["analyse_calls"] = len(calls) // args.repeat
        return fw.graph == g

    for regime, j in CHARACTER.items():
        for n in SIZES:
            seq, g = gen.forward_sequence(random.Random(SEED), n, regime)
            ok = placed("realize", regime, g, seq, j)
            if ok and n <= RANDOM_MAX:
                g = random_tight(n, REGIMES[regime], SEED)
                seq, pi, signs = decompose(g, REGIMES[regime])
                ok = placed("realize_random", regime, apply_iso(g, pi, signs), seq, j)
            if not ok:
                print(f"error: ({regime}) n={n}: realize placed another graph", file=sys.stderr)
                return 1

    status = git("status", "--porcelain", "--untracked-files=no")
    doc = {
        "date": today,
        "git_sha": git("rev-parse", "HEAD"),
        "uncommitted_changes": None if status is None else bool(status),
        "src_tree": src_tree(),
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "seed": SEED,
        "repeat": args.repeat,
        "inputs": "perfbench gen.tight_graph(random.Random(seed), n, regime); "
                  "realize: gen.forward_sequence(random.Random(seed), n, regime); "
                  "realize_random: decompose(random_tight(n, p, seed), p)",
        "rescaled_to_reference_s": REF_S,
        "stages": rows,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
