"""The paper's characterisation on every small tight graph: each labelled
(2,2,0)-tight graph on at most 3 vertices and each labelled (2,2,2)-tight
graph on at most 4, found as edge subsets filtered by check_tight (and
cross-checked with the brute-force oracle), decomposes into a construction
sequence that rebuilds it, and that sequence is realised isostatic at the
regime's character under the l-infinity and the l1 norm."""

from itertools import combinations

import pytest

from gainrig.catalog import PARAMS_220, PARAMS_222
from gainrig.colouring import geometric_verdict
from gainrig.construct import construct, decompose
from gainrig.graph import GainGraph, edge
from gainrig.iso import apply_iso
from gainrig.norms import L1, LINF
from gainrig.placement import realize
from gainrig.rigidity import analyse
from gainrig.sparsity import brute_force_oracle, check_tight


def tight_graphs(n: int, p) -> list[GainGraph]:
    """Every labelled p-tight graph on n vertices: each set of k*n - m
    edges that check_tight accepts, where brute_force_oracle agrees.  A loop
    alone breaks (2,2,2)'s count (1 > 2 - 2), so (2,2,2) draws no loop."""
    loops = [edge(v, v, -1) for v in range(n)] if p.m < p.k else []
    pairs = [edge(u, v, s) for u, v in combinations(range(n), 2) for s in (1, -1)]
    out = []
    for chosen in combinations(loops + pairs, p.k * n - p.m):
        g = GainGraph(n, chosen)
        tight = check_tight(g, p)
        assert tight == brute_force_oracle(g, p).passed, g.triples()
        if tight:
            out.append(g)
    return out


# (regime, character, vertex counts, labelled tight graphs per count)
CASES = [(PARAMS_220, 0, {1: 0, 2: 1, 3: 84}), (PARAMS_222, 1, {1: 1, 2: 1, 3: 15, 4: 776})]


@pytest.mark.parametrize("p, j, counts", CASES, ids=["220", "222"])
def test_every_small_tight_graph_decomposes_and_realises(p, j, counts):
    graphs = {n: tight_graphs(n, p) for n in counts}
    assert {n: len(gs) for n, gs in graphs.items()} == counts
    for g in (g for gs in graphs.values() for g in gs):
        seq, pi, signs = decompose(g, p)
        assert construct(seq, verify=True) == apply_iso(g, pi, signs)
        for norm in (LINF, L1):
            fw = realize(seq, j, norm=norm)
            verdict = geometric_verdict(fw)
            assert fw.norm == norm and analyse(fw, j).isostatic
            assert verdict.chi0_isostatic if j == 0 else verdict.chi1_isostatic
