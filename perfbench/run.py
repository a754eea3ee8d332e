#!/usr/bin/env python3
"""Benchmark of gainrig: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: gainrig is imported from ``src/`` there,
never from an installed copy.  One process with one thread calls gainrig in
a closed loop, each operation starting when the previous one returned, over
whole rounds of the workload's fixed input list for at most ``--seconds``
(one round at least).  Every output is checked after its timed call.

Times are wall times rescaled to a fixed machine speed: a short reference
loop runs between operations, and each operation's wall time is multiplied
by REF_S over the mean of the reference times just before and after it.
The speed of the machine this was built on drifts by 20% and more over
minutes, and the rescaling removes most of that drift (README.md).

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` timing wrappers are installed around gainrig's layers and
it holds the per-layer metrics, per round, instead.  Both write the result
with per-op detail, and the traced run also its spans, under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# Set-up is repeated in fresh interpreters and its median reported, so one
# slow start (a cold file cache, a busy neighbour) does not set the figure.
SETUP_SAMPLES = 5
# Nominal time of the reference loop; op times are rescaled to this speed.
REF_S = 0.002


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop of dict, tuple and integer
    work, timed between operations to track the machine's current speed."""
    t = time.perf_counter()
    d: dict = {}
    for i in range(7000):
        k = (i & 63, i >> 6)
        d[k] = d.get(k, 0) + i * i % 7
    return time.perf_counter() - t


def load(workload: str, seed: int):
    """Import gainrig from this checkout and build the round's inputs.
    Returns (ops, import seconds, input seconds), both rescaled to the
    reference speed measured just before and just after."""
    src = ROOT / "src"
    if not (src / "gainrig" / "__init__.py").is_file():
        raise SystemExit(f"error: no gainrig source at {src}")
    sys.path.insert(0, str(src))
    import workloads

    ref_before = statistics.median(reference() for _ in range(3))
    t0 = time.perf_counter()
    import gainrig

    t1 = time.perf_counter()
    if Path(gainrig.__file__).resolve().parent != src / "gainrig":
        raise SystemExit(f"error: imported gainrig from {gainrig.__file__}, not {src}")
    ops = workloads.build(workload, seed)
    t2 = time.perf_counter()
    scale = REF_S * 2 / (ref_before + statistics.median(reference() for _ in range(3)))
    return ops, (t1 - t0) * scale, (t2 - t1) * scale


def setup_samples(workload: str, seed: int, first: tuple[float, float]) -> list[tuple[float, float]]:
    """(import, inputs) seconds of this process plus fresh interpreters."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        d = json.loads(out.stdout.strip().splitlines()[-1])
        samples.append((d["import_s"], d["inputs_s"]))
    return samples


def run_rounds(ops, seconds: float, tracer):
    """Whole rounds over ops for at most ``seconds`` (one round at least):
    the first round's wall time sets how many rounds fit.  Returns the time of every
    attempted op, the times of the ops whose output passed its check, the
    failures, whether any output was wrong, the round count and the
    denominator bit lengths of the first round's realised positions."""
    times: list[float] = []
    ok_times: list[float] = []
    per_op: list[tuple[str, float, float]] = []
    failed: list[str] = []
    wrong = False
    bits: list[int] = []
    rounds = 0
    target = None
    start = time.perf_counter()
    raw = 0.0
    ref_before = reference()
    while target is None or rounds < target:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(rounds * len(ops) + i)
            t = time.perf_counter()
            out = None
            try:
                out = op.run()
            except Exception as exc:  # a failed op is counted, not fatal
                failed.append(f"{op.label}: {type(exc).__name__}: {exc}")
            finally:
                dt = time.perf_counter() - t
                if tracer is not None:
                    tracer.end_op()
            ref_after = reference()
            raw += dt
            times.append(dt * REF_S * 2 / (ref_before + ref_after))
            ref_before = ref_after
            if rounds == 0:
                per_op.append((op.label, dt, times[-1]))
            if out is None:
                continue
            reason = op.check(out)
            if reason is not None:
                wrong = True
                failed.append(f"{op.label}: wrong output: {reason}")
                continue
            ok_times.append(times[-1])
            if op.realize_output and rounds == 0:
                bits += [c.denominator.bit_length() for p in out[0].positions for c in p]
        rounds += 1
        if target is None:
            target = max(1, int(seconds / (time.perf_counter() - start)))
    print(f"raw timed {raw:.3f} s", file=sys.stderr)
    return times, ok_times, failed, wrong, rounds, bits, per_op


def end_to_end(times, ok_times, setup) -> dict:
    return {
        "setup_s": (statistics.median(a + b for a, b in setup), "s"),
        "ops_per_s": (len(ok_times) / sum(times), "op/s"),
        "op_p50_ms": (statistics.median(ok_times) * 1000 if ok_times else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, rounds: int, setup, bits) -> dict:
    st = tracer.self_times()
    c = tracer.counts

    def calls(name):
        return st.get(name, (0, 0.0))[0] / rounds

    def self_s(name):
        return st.get(name, (0, 0.0))[1] / rounds

    def count(key):
        return c[key] / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    # Frameworks built while placing, not by the JSON decode.
    candidates = count("rigidity.framework_builds@placement.realize") + count(
        "rigidity.framework_builds@placement.extend_placement"
    )
    return {
        "sparsity.check_sparsity.calls": (calls("sparsity.check_sparsity"), "count"),
        "sparsity.check_sparsity.self_s": (self_s("sparsity.check_sparsity"), "s"),
        "sparsity.check_sparsity.incremental_calls": (count("sparsity.check_sparsity.incremental"), "count"),
        "sparsity.check_tight.calls": (calls("sparsity.check_tight"), "count"),
        "moves.enumerate_reductions.self_s": (self_s("moves.enumerate_reductions"), "s"),
        "moves.reductions_tried": (count("moves.enumerate_reductions.yields"), "count"),
        "moves.is_admissible.calls": (calls("moves.is_admissible"), "count"),
        "moves.is_admissible.self_s": (self_s("moves.is_admissible"), "s"),
        "moves.admissible_ratio": (ratio(count("moves.is_admissible.accepted"), calls("moves.is_admissible")), "ratio"),
        "moves.apply_move.calls": (calls("moves.apply_move"), "count"),
        "moves.apply_move.self_s": (self_s("moves.apply_move"), "s"),
        "construct.decompose.self_s": (self_s("construct.decompose"), "s"),
        "construct.construct.self_s": (self_s("construct.construct"), "s"),
        "construct.steps": (count("construct.steps"), "count"),
        "iso.isomorphism.calls": (calls("iso.isomorphism"), "count"),
        "iso.isomorphism.self_s": (self_s("iso.isomorphism"), "s"),
        "catalog.is_base_graph.self_s": (self_s("catalog.is_base_graph"), "s"),
        "graph.gaingraph_builds": (count("graph.gaingraph_builds"), "count"),
        "graph.balance_potential.calls": (count("graph.balance_potential.calls"), "count"),
        "placement.realize.self_s": (self_s("placement.realize"), "s"),
        "placement.extend_placement.calls": (calls("placement.extend_placement"), "count"),
        "placement.extend_placement.self_s": (self_s("placement.extend_placement"), "s"),
        "placement.candidates": (candidates, "count"),
        "placement.candidates_per_step": (ratio(candidates, calls("placement.extend_placement")), "count"),
        "placement.restarts": (count("placement.extend_placement.raised.RetriesExhausted"), "count"),
        "placement.coord_bits_p50": (statistics.median(bits) if bits else 0, "bits"),
        "rigidity.framework_rejects": (count("rigidity.framework_builds.rejected"), "count"),
        "rigidity.well_positioned.self_s": (self_s("rigidity.well_positioned"), "s"),
        "rigidity.analyse.calls": (calls("rigidity.analyse"), "count"),
        "rigidity.analyse.self_s": (self_s("rigidity.analyse"), "s"),
        "linalg.matrix_rank.calls": (calls("linalg.matrix_rank"), "count"),
        "linalg.matrix_rank.self_s": (self_s("linalg.matrix_rank"), "s"),
        "colouring.geometric_verdict.calls": (calls("colouring.geometric_verdict"), "count"),
        "colouring.geometric_verdict.self_s": (self_s("colouring.geometric_verdict"), "s"),
        "colouring.accept_ratio": (ratio(count("colouring.geometric_verdict.accepted"),
                                         calls("colouring.geometric_verdict")), "ratio"),
        "jsonio.encode.self_s": (self_s("jsonio.encode"), "s"),
        "jsonio.decode.self_s": (self_s("jsonio.decode"), "s"),
        "setup.import_s": (statistics.median(a for a, _ in setup), "s"),
        "setup.inputs_s": (statistics.median(b for _, b in setup), "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("certify", "roundtrip", "realize"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    ops, import_s, inputs_s = load(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    times, ok_times, failed, wrong, rounds, bits, per_op = run_rounds(ops, args.seconds, tracer)
    setup = setup_samples(args.workload, args.seed, (import_s, inputs_s))
    for line in failed:
        print("FAILED", line, file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {rounds} rounds of {len(ops)} ops, "
          f"{sum(times):.2f} s timed, {len(ok_times) / sum(times):.4f} op/s, "
          f"{len(failed)} failed", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(times, ok_times, setup)
    else:
        metrics = per_layer(tracer, rounds, setup, bits)
    result = {
        "correct": not wrong,
        "attempted": len(times),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, rounds=rounds, failures=failed, setup_samples=setup,
                  first_round=[{"op": label, "wall_s": w, "scaled_s": t} for label, w, t in per_op])
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
