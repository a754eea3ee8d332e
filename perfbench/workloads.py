"""The three workloads: their input make-up, the timed call, and the check.

One operation is a closed-loop call into gainrig made by a single caller.
``Op.run`` holds only calls into gainrig (and, for ``realize``, the JSON text
round trip of the framework); ``Op.check`` runs outside the timed span and
uses only ``checks``.

A round is the whole input list of a workload, always in the same order.
Inputs are drawn in strata of fixed size, number of loops and verdict, so
that a round's cost moves little from one seed to the next; the strata and
why each workload exists are listed in README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import checks
import gen

# Each stratum is (case, regime, n, loops, count); loops None leaves the
# number of loops free.  PASS inputs are tight graphs, "extra" adds one edge
# to a tight graph, "block" plants a balanced violation.  The (2,2,2) PASS
# checks cost nearly the same on every graph, and the strata are sized so
# that they straddle the median from both sides: op_p50_ms stays inside that
# group instead of falling in the gap between cheaper and dearer ones.
CERTIFY = (
    ("block", "220", 12, None, 4),
    ("block", "220", 14, None, 4),
    ("extra", "220", 12, None, 6),
    ("extra", "220", 13, None, 6),
    ("extra", "222", 14, None, 6),
    ("pass", "220", 12, 1, 8),
    ("pass", "220", 13, 2, 10),
    ("pass", "222", 14, None, 36),
    ("pass", "220", 12, 0, 12),
    ("pass", "220", 13, 1, 14),
    ("pass", "220", 13, 0, 10),
)

# (regime, n, loops, count) of tight graphs; the median sits in the
# (2,2,2) n=13 group, whose cost varies by a few per cent between graphs.
ROUNDTRIP = (
    ("222", 12, None, 14),
    ("220", 11, 1, 16),
    ("220", 12, 2, 16),
    ("222", 13, None, 44),
    ("220", 12, 1, 24),
    ("220", 13, 2, 16),
    ("220", 13, 1, 8),
)

# (regime, character, n, count) of forward sequences.  A placement that
# exhausts its candidates restarts the whole fold, at 5 to 15 times an op's
# cost; at these sizes that happens to about 1 op in 100 of (2,2,2) and fewer
# of (2,2,0).  Many small (2,2,0) ops keep the restarts per round, and so
# ops_per_s, steady.  The median sits in the (2,2,0) n=24 group.
REALIZE = (
    ("222", 1, 22, 12),
    ("220", 0, 20, 12),
    ("220", 0, 24, 40),
    ("220", 0, 28, 24),
)

WORKLOADS = ("certify", "roundtrip", "realize")


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    realize_output: bool = False


def _triples(g) -> list[tuple[int, int, int]]:
    return [(e.u, e.v, e.gain) for e in g.edges]


def build(name: str, seed: int) -> list[Op]:
    """The input list of one round, made only from the seed."""
    import gainrig

    ops: list[Op] = []
    rng = random.Random(f"{name}:{seed}")
    if name == "certify":
        for case, regime, n, loops, count in CERTIFY:
            ops += [_certify_op(gainrig, rng, case, regime, n, loops) for _ in range(count)]
    elif name == "roundtrip":
        for regime, n, loops, count in ROUNDTRIP:
            ops += [_roundtrip_op(gainrig, rng, regime, n, loops) for _ in range(count)]
    elif name == "realize":
        for regime, j, n, count in REALIZE:
            ops += [_realize_op(gainrig, rng, regime, j, n) for _ in range(count)]
    else:
        raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")
    # Interleave the strata so a round's cost is spread evenly in time.
    random.Random(f"order:{name}:{seed}").shuffle(ops)
    return ops


def _params(gainrig, regime: str):
    return gainrig.PARAMS_220 if regime == "220" else gainrig.PARAMS_222


def _certify_op(gainrig, rng, case, regime, n, loops) -> Op:
    op_seed = rng.getrandbits(32)
    r = random.Random(op_seed)
    if case == "pass":
        edges = gen.tight_graph(r, n, regime, loops)
    elif case == "extra":
        edges = gen.with_extra_edge(r, n, gen.tight_graph(r, n, regime), regime)
    else:
        edges = gen.balanced_block(r, n, r.choice((5, 6)))
    g = gainrig.GainGraph.from_triples(n, edges)
    p = _params(gainrig, regime)
    truth = case == "pass"
    cause = "balanced" if case == "block" else None
    edge_set = set(edges)

    def run():
        report = gainrig.check_sparsity(g, p)
        tight = gainrig.check_tight(g, p) if truth else None
        return report, tight

    def check(out):
        report, tight = out
        return checks.check_verdict(
            edge_set, p.as_tuple(), truth, cause, report.passed,
            [(e.u, e.v, e.gain) for e in report.witness or ()],
            report.balanced_violation, tight,
        )

    shape = f"n={n}" if loops is None else f"n={n}/loops={loops}"
    return Op(f"certify/{case}/({regime})/{shape}/seed={op_seed}", run, check)


def _roundtrip_op(gainrig, rng, regime, n, loops) -> Op:
    op_seed = rng.getrandbits(32)
    edges = gen.tight_graph(random.Random(op_seed), n, regime, loops)
    g = gainrig.GainGraph.from_triples(n, edges)
    p = _params(gainrig, regime)

    def run():
        seq, pi, signs = gainrig.decompose(g, p)
        return seq, pi, signs, gainrig.construct(seq, verify=True)

    def check(out):
        seq, pi, signs, h = out
        return checks.check_roundtrip(
            n, edges, regime, seq.initial, [m.kind for m in seq.steps],
            pi, signs, h.n, _triples(h),
        )

    shape = f"n={n}" if loops is None else f"n={n}/loops={loops}"
    return Op(f"roundtrip/({regime})/{shape}/seed={op_seed}", run, check)


def _realize_op(gainrig, rng, regime, j, n) -> Op:
    import gainrig.jsonio as jsonio

    op_seed = rng.getrandbits(32)
    seq, target = gen.forward_sequence(random.Random(op_seed), n, regime)
    target_edges = _triples(target)
    cfg = gainrig.RealisationConfig(seed=op_seed)

    def run():
        fw = gainrig.realize(seq, j, cfg)
        report = gainrig.analyse(fw, j)
        verdict = gainrig.geometric_verdict(fw)
        text = json.dumps(jsonio.framework_to_dict(fw))
        back = jsonio.framework_from_dict(json.loads(text))
        return fw, report, verdict, back

    def fields(fw):
        return fw.graph.n, _triples(fw.graph), fw.positions, fw.norm, fw.group_order

    def check(out):
        fw, report, verdict, back = out
        coloured = verdict.chi0_isostatic if j == 0 else verdict.chi1_isostatic
        return checks.check_realisation(
            n, target_edges, j, fw.graph.n, _triples(fw.graph), fw.positions,
            report.isostatic, coloured, fields(back) == fields(fw),
        )

    return Op(f"realize/({regime})/n={n}/seed={op_seed}", run, check, realize_output=True)
