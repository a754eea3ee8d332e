import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import gainrig
from gainrig import sparsity
from gainrig.cli import main
from gainrig.graph import GainGraph, InvariantViolation, edge
from gainrig.jsonio import graph_to_dict, save_json
from gainrig.sparsity import (
    OracleGuardExceeded,
    Partition,
    SparsityParams,
    _scan_sparsity,
    _violation_report,
    brute_force_oracle,
    check_sparsity,
    check_tight,
    f_value,
)

from conftest import random_gain_graph, two_base_union

P220 = SparsityParams(2, 2, 0)
P222 = SparsityParams(2, 2, 2)
# Every l = k count with k <= 3: each is decided by the matroid partition.
L_EQ_K = [SparsityParams(k, k, m) for k in (1, 2, 3) for m in range(k + 1)]
PARAM_SETS = L_EQ_K + [SparsityParams(2, 3, 1)]


def test_params_validation():
    with pytest.raises(ValueError):
        SparsityParams(0, 0, 0)
    with pytest.raises(ValueError):
        SparsityParams(2, 2, 5)


def test_f_value():
    g = GainGraph.from_triples(3, [[0, 1, 1], [1, 2, -1]])
    assert f_value(g) == 2 * 3 - 2


def test_empty_graph_is_sparse():
    g = GainGraph(3, ())
    assert check_sparsity(g, P220).passed
    assert not check_tight(g, P220)


def test_known_violations_with_witness():
    # balanced K4: 6 edges on 4 vertices exceeds the balanced bound
    # 2*4 - 3 = 5, so it violates (2,3,1)-sparsity.
    g = GainGraph.from_triples(
        4, [[0, 1, 1], [0, 2, 1], [0, 3, 1], [1, 2, 1], [1, 3, 1], [2, 3, 1]]
    )
    rep = check_sparsity(g, SparsityParams(2, 3, 1))
    assert not rep.passed
    assert rep.witness is not None
    # the witness genuinely violates its own bound
    assert len(rep.witness) > rep.bound


def test_balanced_vs_general_bound():
    # balanced triangle: 3 edges on 3 vertices; passes (2,2,0) general and
    # balanced counts, fails (2,3,0) balanced count (3 <= 2*3-3 = 3 passes);
    # K4 balanced: 6 > 2*4-3 = 5 fails with l=3.
    k4 = GainGraph.from_triples(
        4, [[0, 1, 1], [0, 2, 1], [0, 3, 1], [1, 2, 1], [1, 3, 1], [2, 3, 1]]
    )
    rep = check_sparsity(k4, SparsityParams(2, 3, 0))
    assert not rep.passed
    assert rep.balanced_violation
    assert check_sparsity(k4, P220).passed


def test_tight_examples():
    base_a = GainGraph.from_triples(
        2, [[0, 1, 1], [0, 1, -1], [0, 0, -1], [1, 1, -1]]
    )
    assert check_tight(base_a, P220)
    assert not check_tight(base_a, P222)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_checker_matches_oracle(seed):
    rng = random.Random(seed)
    g = random_gain_graph(rng, max_n=5, max_edges=10)
    for p in PARAM_SETS:
        fast = check_sparsity(g, p)
        slow = brute_force_oracle(g, p)
        assert fast.passed == slow.passed, (g.triples(), p)


def test_require_edges_incremental_consistency(rng):
    # one edge added to a sparse graph: inserting it into the graph's
    # partition, and the scan of the subsets that hold it, agree with the
    # full check
    for _ in range(100):
        g = random_gain_graph(rng, max_n=5, max_edges=9)
        if not g.edges:
            continue
        e = g.edges[rng.randrange(len(g.edges))]
        rest = g.replace_edges(tuple(x for x in g.edges if x != e))
        for p in PARAM_SETS:
            if not check_sparsity(rest, p).passed:
                continue
            full = check_sparsity(g, p).passed
            assert _scan_sparsity(g, p, (e,)).passed == full
            if p.l == p.k:
                part = Partition(g.n, p, {})
                assert all(part.insert(x) is None for x in rest.edges)
                assert (part.insert(e) is None) == full


def test_bogus_witness_raises_invariant_violation():
    edge_only = GainGraph.from_triples(2, [[0, 1, 1]])
    with pytest.raises(InvariantViolation):  # 1 edge is within 2*2 - 0
        _violation_report(edge_only, edge_only.edges, P220, balanced=False)
    loop = GainGraph.from_triples(1, [[0, 0, -1]])
    with pytest.raises(InvariantViolation):  # over its bound, but unbalanced
        _violation_report(loop, loop.edges, P220, balanced=True)


def test_invariants_hold_under_python_O():
    script = (
        "from gainrig.graph import GainGraph, InvariantViolation\n"
        "from gainrig.sparsity import SparsityParams, _violation_report\n"
        "assert False, 'assert statements must be stripped under -O'\n"
        "g = GainGraph.from_triples(2, [[0, 1, 1]])\n"
        "try:\n"
        "    _violation_report(g, g.edges, SparsityParams(2, 2, 0), False)\n"
        "except InvariantViolation:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('no InvariantViolation')\n"
    )
    src = os.path.dirname(os.path.dirname(gainrig.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_empty_require_edges_passes_at_once():
    # no subset holds one of zero edges, even in a graph that is not sparse
    g = GainGraph.from_triples(1, [[0, 0, -1]])
    assert not check_sparsity(g, P222).passed
    assert _scan_sparsity(g, P222, ()).passed


def test_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(gainrig.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gainrig; print('numpy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _all_triples(n):
    return [
        (u, v, g)
        for u in range(n)
        for v in range(u, n)
        for g in ((-1,) if u == v else (1, -1))
    ]


def _with_extra_edges(rng, g, count):
    absent = [t for t in _all_triples(g.n) if edge(*t) not in set(g.edges)]
    extra = tuple(edge(*t) for t in rng.sample(absent, min(count, len(absent))))
    return g.replace_edges(g.edges + extra)


def _assert_witness_over_its_bound(g, p, rep):
    wit = rep.witness
    assert len(set(wit)) == len(wit) and set(wit) <= set(g.edges)
    support = {x for e in wit for x in (e.u, e.v)}
    offset = p.l if rep.balanced_violation else p.m
    assert len(wit) > p.k * len(support) - offset
    assert not rep.balanced_violation or g.is_balanced(wit)


def _compare_partition_with_scan(rng, p, min_n):
    # an arbitrary graph, or a near-tight one: a union of k bases with a
    # few edges dropped and a few added; the brute-force oracle too, where
    # it is quick
    if rng.random() < 0.5:
        g = random_gain_graph(rng, max_n=8, max_edges=16)
    else:
        g = two_base_union(rng, rng.randint(min_n, 8), p)
        g = g.replace_edges(e for e in g.edges if rng.random() > 0.2)
        g = _with_extra_edges(rng, g, rng.randint(0, 2))
    fast = check_sparsity(g, p)
    assert fast.passed == _scan_sparsity(g, p).passed, (g.triples(), p)
    if len(g.edges) <= 10:
        assert fast.passed == brute_force_oracle(g, p).passed, (g.triples(), p)
    if not fast.passed:
        _assert_witness_over_its_bound(g, p, fast)


def test_partition_matches_scan(rng):
    for _ in range(300):
        _compare_partition_with_scan(rng, rng.choice((P220, P222)), 2)
    # the other l = k counts; three bases on three vertices would take
    # (nearly) all nine (u, v, gain) triples, so those unions start at four
    for p in L_EQ_K:
        if p not in (P220, P222):
            for _ in range(60):
                _compare_partition_with_scan(rng, p, 2 if p.k < 3 else p.k + 1)


@pytest.mark.parametrize(
    "p", [P220, P222, SparsityParams(3, 3, 1), SparsityParams(3, 3, 2)],
    ids=["220", "222", "331", "332"],
)
@pytest.mark.parametrize("n", [16, 32, 64])
def test_two_base_unions_are_tight_and_one_more_edge_breaks_them(n, p):
    rng = random.Random(n)
    for _ in range(3):
        g = two_base_union(rng, n, p)
        assert check_tight(g, p)
        h = _with_extra_edges(rng, g, 1)
        rep = check_sparsity(h, p)
        assert not rep.passed
        _assert_witness_over_its_bound(h, p, rep)


def _balanced_block(rng, n, b):
    """2b - 1 edges on b vertices, all consistent with one switching, then
    grown to n vertices by adding vertices of degree 2."""
    sign = [rng.choice((1, -1)) for _ in range(b)]
    pairs = rng.sample([(u, v) for u in range(b) for v in range(u + 1, b)], 2 * b - 1)
    triples = [(u, v, sign[u] * sign[v]) for u, v in pairs]
    for w in range(b, n):
        x, y = rng.choice(range(w)), rng.choice(range(w))
        gx = rng.choice((1, -1))
        triples += [(x, w, gx), (y, w, -gx if x == y else rng.choice((1, -1)))]
    return GainGraph.from_triples(n, triples)


@pytest.mark.parametrize("b", [5, 6])
def test_planted_balanced_block_is_a_balanced_violation(b):
    rng = random.Random(b)
    for _ in range(10):
        g = _balanced_block(rng, rng.randint(b, 16), b)
        rep = check_sparsity(g, P220)
        assert not rep.passed and rep.balanced_violation
        _assert_witness_over_its_bound(g, P220, rep)


def test_same_input_same_witness(rng):
    for p in (P220, P222):
        g = _with_extra_edges(rng, two_base_union(rng, 24, p), 2)
        first, second = check_sparsity(g, p), check_sparsity(g, p)
        assert not first.passed and first == second


def test_scan_gives_up_after_its_budget(monkeypatch, tmp_path, capsys):
    # the doubled path is (2,3,0)-sparse, so the scan would visit all 2^n
    # supports; a balanced K4 planted on its first vertices is still found
    p = SparsityParams(2, 3, 0)
    path = GainGraph.from_triples(12, [[i, i + 1, s] for i in range(11) for s in (1, -1)])
    k4 = path.replace_edges(path.edges + tuple(
        edge(u, v, 1) for u, v in ((0, 2), (0, 3), (1, 3))
    ))
    monkeypatch.setattr(sparsity, "SCAN_BUDGET", 1000)
    assert not check_sparsity(k4, p).passed
    with pytest.raises(OracleGuardExceeded):
        check_sparsity(path, p)
    graph_file = tmp_path / "path.json"
    save_json(str(graph_file), graph_to_dict(path))
    assert main(["check", str(graph_file), "--counts", "2,3,0"]) == 2
    err = capsys.readouterr().err
    assert "guarded" in err and "Traceback" not in err
