"""Tests of the benchmark's own generators, checks and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import checks
import gen
from gainrig import (
    LINF,
    PARAMS_220,
    PARAMS_222,
    Framework,
    FrameworkError,
    GainGraph,
    RealisationConfig,
    analyse,
    brute_force_oracle,
    construct,
    realize,
    well_positioned,
)

REGIMES = {"220": PARAMS_220, "222": PARAMS_222}
# Largest n that keeps the brute-force oracle at 16 edges or fewer (it is
# guarded at 20, but enumerates every subset: 2^20 of them costs minutes).
ORACLE_N = {"220": 8, "222": 9}


def _graph(n, triples):
    return GainGraph.from_triples(n, triples)


@pytest.mark.parametrize("regime", ["220", "222"])
def test_union_of_bases_is_tight_by_the_oracle(regime):
    p = REGIMES[regime]
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, ORACLE_N[regime])
        g = _graph(n, gen.tight_graph(rng, n, regime))
        assert len(g.edges) == 2 * n - p.m
        assert brute_force_oracle(g, p).passed, g.triples()


def test_loop_count_is_honoured():
    rng = random.Random(3)
    for loops in (0, 1, 2):
        edges = gen.tight_graph(rng, 9, "220", loops)
        assert sum(u == v for u, v, _ in edges) == loops


@pytest.mark.parametrize("regime", ["220", "222"])
def test_extra_edge_breaks_the_oracle(regime):
    p = REGIMES[regime]
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(3, ORACLE_N[regime] - 1)
        edges = gen.with_extra_edge(rng, n, gen.tight_graph(rng, n, regime), regime)
        assert not brute_force_oracle(_graph(n, edges), p).passed


def test_balanced_block_breaks_only_the_balanced_count():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(5, ORACLE_N["220"])
        g = _graph(n, gen.balanced_block(rng, n, 5))
        report = brute_force_oracle(g, PARAMS_220)
        assert not report.passed and report.balanced_violation
        assert len(g.edges) <= 2 * n


@pytest.mark.parametrize("regime", ["220", "222"])
def test_forward_sequences_replay_to_tight_graphs(regime):
    p = REGIMES[regime]
    rng = random.Random(2)
    for _ in range(6):
        n = rng.randint(5, ORACLE_N[regime])
        seq, g = gen.forward_sequence(rng, n, regime)
        assert g.n == n
        assert construct(seq, verify=False) == g
        assert brute_force_oracle(g, p).passed


def test_certificate_accepts_a_realisation():
    seq, g = gen.forward_sequence(random.Random(4), 12, "220")
    fw = realize(seq, 0, RealisationConfig(seed=4))
    edges = [(e.u, e.v, e.gain) for e in fw.graph.edges]
    assert checks.isostatic_certificate(fw.graph.n, edges, fw.positions, 0) is None


def test_certificate_rejects_a_flexible_framework():
    # Base graph a with every bar in the x facet: the y columns are empty,
    # so the orbit matrix has rank 2 with 4 edges and the framework flexes.
    edges = [(0, 0, -1), (0, 1, -1), (0, 1, 1), (1, 1, -1)]
    positions = ((Fraction(10), Fraction(1)), (Fraction(1), Fraction(0)))
    reason = checks.isostatic_certificate(2, edges, positions, 0)
    assert reason is not None and "rank" in reason
    fw = Framework(_graph(2, edges), positions, LINF, 2)
    assert not analyse(fw, 0).isostatic


def test_certificate_agrees_with_analyse():
    rng = random.Random(9)
    tried = 0
    while tried < 60:
        regime = rng.choice(("220", "222"))
        j = 0 if regime == "220" else 1
        n = rng.randint(2, 7)
        g = _graph(n, gen.tight_graph(rng, n, regime))
        pos = tuple((Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))) for _ in range(n))
        try:
            fw = Framework(g, pos, LINF, 2)
        except FrameworkError:
            continue
        if not well_positioned(fw):
            continue
        tried += 1
        edges = [(e.u, e.v, e.gain) for e in g.edges]
        ours = checks.isostatic_certificate(n, edges, pos, j) is None
        assert ours == analyse(fw, j).isostatic


def test_verdict_check_catches_wrong_answers():
    edges = [(0, 1, 1), (0, 1, -1), (0, 0, -1), (1, 1, -1)]
    es = set(edges)
    assert checks.check_verdict(es, (2, 2, 0), True, None, True, (), None, True) is None
    assert checks.check_verdict(es, (2, 2, 0), True, None, False, edges, False, None)
    assert checks.check_verdict(es, (2, 2, 0), True, None, True, (), None, False)
    # A witness within its own bound, or flagged balanced but unbalanced.
    assert checks.check_verdict(es, (2, 2, 0), False, None, False, edges[:2], False, None)
    assert checks.check_verdict(es, (2, 2, 0), False, None, False, edges[:2], True, None)
    assert checks.check_verdict(es, (2, 2, 0), False, None, False, [(0, 2, 1)], False, None)


def test_roundtrip_check_catches_a_wrong_isomorphism():
    edges = sorted(gen.tight_graph(random.Random(1), 5, "222"))
    ident, ones = list(range(5)), [1] * 5
    assert checks.check_roundtrip(5, edges, "222", ("k1",), ["H1a"], ident, ones, 5, edges) is None
    swapped = [1, 0, 2, 3, 4]
    assert checks.check_roundtrip(5, edges, "222", ("k1",), ["H1a"], swapped, ones, 5, edges)
    assert checks.check_roundtrip(5, edges, "222", ("k1",), ["H3a"], ident, ones, 5, edges)
    assert checks.check_roundtrip(5, edges, "222", ("a",), ["H1a"], ident, ones, 5, edges)


def test_tracer_records_nested_spans_only_inside_ops():
    from tracing import Tracer
    import gainrig

    tracer = Tracer()
    tracer.install()
    g = _graph(3, gen.tight_graph(random.Random(0), 3, "222"))
    gainrig.check_tight(g, PARAMS_222)  # outside an op: not recorded
    tracer.begin_op(0)
    gainrig.check_tight(g, PARAMS_222)
    tracer.end_op()
    st = tracer.self_times()
    assert st["sparsity.check_tight"][0] == 1
    assert st["sparsity.check_sparsity"][0] == 1
    spans = {tracer.names[s[0]]: s for s in tracer.spans}
    outer, inner = spans["sparsity.check_tight"], spans["sparsity.check_sparsity"]
    assert inner[3] == tracer.spans.index(outer) and inner[1] >= outer[1] and inner[2] <= outer[2]
    assert st["sparsity.check_tight"][1] == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))


def test_metric_names_match_benchmark_json():
    import json
    from pathlib import Path

    import run
    from tracing import Tracer

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    layer = run.per_layer(Tracer(), 1, [(0.1, 0.2)], [])
    e2e = run.end_to_end([0.1], [0.1], [(0.1, 0.2)])
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert all(layer[m["name"]][1] == m["unit"] for m in spec["per_layer"])
    assert all(e2e[m["name"]][1] == m["unit"] for m in spec["end_to_end"])
