import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import gainrig
from gainrig.graph import GainGraph, InvariantViolation
from gainrig.sparsity import (
    SparsityParams,
    _violation_report,
    brute_force_oracle,
    check_sparsity,
    check_tight,
    f_value,
)

from conftest import random_gain_graph

P220 = SparsityParams(2, 2, 0)
P222 = SparsityParams(2, 2, 2)
PARAM_SETS = [P220, P222, SparsityParams(2, 3, 1), SparsityParams(1, 1, 0)]


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
    # incremental check agrees with the full check when the graph minus the
    # required edges is sparse
    for _ in range(100):
        g = random_gain_graph(rng, max_n=5, max_edges=9)
        if not g.edges:
            continue
        e = g.edges[rng.randrange(len(g.edges))]
        rest = g.replace_edges(tuple(x for x in g.edges if x != e))
        for p in (P220, P222):
            if not check_sparsity(rest, p).passed:
                continue
            full = check_sparsity(g, p).passed
            inc = check_sparsity(g, p, require_edges=(e,)).passed
            assert full == inc


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
    assert check_sparsity(g, P222, require_edges=()).passed


def test_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(gainrig.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gainrig; print('numpy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
