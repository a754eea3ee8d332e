"""Acceptance harness: ten checks, each printing a single PASS line and
enforcing its stated correctness and time budget."""

import random
import time
from fractions import Fraction as F

import pytest

from gainrig.catalog import BASE_CATALOG, PARAMS_220, PARAMS_222
from gainrig.colouring import geometric_verdict
from gainrig.construct import (
    _random_move,
    construct,
    decompose,
    random_tight,
)
from gainrig.iso import apply_iso
from gainrig.moves import ALL_KINDS, KINDS_222, MoveError, apply_move
from gainrig.norms import LINF
from gainrig.placement import RealisationConfig, realize
from gainrig.rigidity import (
    Framework,
    FrameworkError,
    analyse,
    orbit_matrix,
    trivial_dim,
    well_positioned,
)
from gainrig.sparsity import brute_force_oracle, check_sparsity, check_tight

from conftest import covering_rigidity_matrix, dense_rank, random_gain_graph


def _budget(t0, limit, label):
    elapsed = time.time() - t0
    assert elapsed < limit, f"{label} exceeded budget: {elapsed:.1f}s > {limit}s"
    print(f"PASS {label} ({elapsed:.1f}s)")


def _random_placement(g, rng, tries=300):
    for _ in range(tries):
        pos = tuple(
            (F(rng.randint(-50, 50)), F(rng.randint(-50, 50)))
            for _ in range(g.n)
        )
        try:
            fw = Framework(g, pos, LINF, 2)
        except FrameworkError:
            continue
        if well_positioned(fw):
            return fw
    return None


def test_criterion_1_base_catalogue():
    t0 = time.time()
    assert len(BASE_CATALOG) == 8
    for bid, g in BASE_CATALOG.items():
        assert check_tight(g, PARAMS_220), bid
        seq, pi, signs = decompose(g, PARAMS_220)
        assert seq.steps == () and seq.initial == (bid,)
    _budget(t0, 1.0, "criterion 1: 8 bases tight, empty decompositions")


def test_criterion_2_sparsity_oracle_agreement():
    t0 = time.time()
    cases = list(BASE_CATALOG.values())
    rng = random.Random(2024)
    while len(cases) < 8 + 500:
        cases.append(random_gain_graph(rng, max_n=6, max_edges=12))
    disagreements = 0
    for g in cases:
        for p in (PARAMS_220, PARAMS_222):
            if check_sparsity(g, p).passed != brute_force_oracle(g, p).passed:
                disagreements += 1
    assert disagreements == 0
    _budget(t0, 30.0, "criterion 2: checker == oracle on 508 graphs x 2 counts")


def test_criterion_3_move_closure():
    t0 = time.time()
    rng = random.Random(3)
    done = 0
    failures = 0
    while done < 1000:
        g = random_tight(2 + done % 6, PARAMS_220, seed=30_000 + done)
        mv = _random_move(g, ALL_KINDS, rng)
        if mv is None:
            continue
        try:
            h = apply_move(g, mv)
        except MoveError:
            continue
        done += 1
        if not check_tight(h, PARAMS_220):
            failures += 1
    assert failures == 0
    _budget(t0, 60.0, "criterion 3: 1000 legal moves preserve tightness")


# Realisations for criterion 7/8 reuse the graphs from criteria 4 and 5;
# the corpora are computed once and cached.
_CORPUS: dict = {}


def _crit4_corpus():
    if "c4" not in _CORPUS:
        out = []
        for i in range(200):
            n = 2 + i % 7  # n <= 8
            g = random_tight(n, PARAMS_220, seed=40_000 + i)
            out.append((g, decompose(g, PARAMS_220)))
        _CORPUS["c4"] = out
    return _CORPUS["c4"]


def _crit5_corpus():
    if "c5" not in _CORPUS:
        out = []
        for i in range(100):
            n = 1 + i % 8  # n <= 8
            g = random_tight(n, PARAMS_222, seed=50_000 + i)
            out.append((g, decompose(g, PARAMS_222)))
        _CORPUS["c5"] = out
    return _CORPUS["c5"]


def test_criterion_4_recursive_characterisation():
    t0 = time.time()
    for g, (seq, pi, signs) in _crit4_corpus():
        # construct re-verifies tightness of every intermediate graph
        c = construct(seq, verify=True)
        assert apply_iso(g, pi, signs) == c
    _budget(t0, 300.0, "criterion 4: 200 decompose/reconstruct roundtrips")


def test_criterion_5_loopless_characterisation():
    t0 = time.time()
    for g, (seq, pi, signs) in _crit5_corpus():
        assert seq.initial == ("k1",)
        assert all(m.kind in KINDS_222 for m in seq.steps)
        assert apply_iso(g, pi, signs) == construct(seq, verify=True)
    _budget(t0, 120.0, "criterion 5: 100 loopless decompositions to a vertex")


def test_criterion_6_geometric_equals_algebraic():
    t0 = time.time()
    rng = random.Random(6)
    for target_j, params, nmin in ((0, PARAMS_220, 2), (1, PARAMS_222, 1)):
        agreed = 0
        while agreed < 100:
            n = rng.randint(nmin, 6)
            g = random_tight(n, params, seed=rng.randrange(10**6))
            fw = _random_placement(g, rng, tries=30)
            if fw is None:
                continue
            gv = geometric_verdict(fw)
            flag = gv.chi0_isostatic if target_j == 0 else gv.chi1_isostatic
            assert flag == analyse(fw, target_j).isostatic
            agreed += 1
    _budget(t0, 120.0, "criterion 6: 100+100 colouring vs rank verdicts")


def _crit7_frameworks():
    if "c7" not in _CORPUS:
        out = []
        for idx, (g, (seq, _, _)) in enumerate(_crit4_corpus()):
            out.append((realize(seq, 0, RealisationConfig(seed=idx)), 0))
        for idx, (g, (seq, _, _)) in enumerate(_crit5_corpus()):
            out.append((realize(seq, 1, RealisationConfig(seed=idx)), 1))
        _CORPUS["c7"] = out
    return _CORPUS["c7"]


def test_criterion_7_realisation():
    t0 = time.time()
    frameworks = _crit7_frameworks()
    assert len(frameworks) == 300
    for fw, j in frameworks:
        gv = geometric_verdict(fw)
        assert (gv.chi0_isostatic if j == 0 else gv.chi1_isostatic)
        assert analyse(fw, j).isostatic
    _budget(t0, 300.0, "criterion 7: 300 verified isostatic realisations")


def test_criterion_8_necessary_counts():
    t0 = time.time()
    for fw, j in _crit7_frameworks():
        params = PARAMS_220 if j == 0 else PARAMS_222
        assert check_tight(fw.graph, params)
    _budget(t0, 60.0, "criterion 8: isostatic quotients pass the tight counts")


def test_criterion_9_block_decomposition():
    t0 = time.time()
    rng = random.Random(9)
    done = 0
    while done < 50:
        g = random_gain_graph(rng, max_n=5, max_edges=10)
        fw = _random_placement(g, rng, tries=20)
        if fw is None:
            continue
        try:
            cov = covering_rigidity_matrix(fw)
        except Exception:
            continue
        r0 = dense_rank(orbit_matrix(fw, 0))
        r1 = dense_rank(orbit_matrix(fw, 1))
        assert r0 + r1 == dense_rank(cov)
        done += 1
    _budget(t0, 30.0, "criterion 9: 50 exact block-rank decompositions")


def test_criterion_10_trivial_motion_table():
    t0 = time.time()
    expected = {
        2: {2: [0, 2], 3: [1, 2]},
        3: {2: [0, 1, 1], 3: [1, 1, 1]},
        4: {2: [0, 1, 0, 1], 3: [1, 1, 0, 1]},
        6: {2: [0, 1, 0, 0, 0, 1], 3: [1, 1, 0, 0, 0, 1]},
    }
    for n, by_d in expected.items():
        for d, row in by_d.items():
            assert [trivial_dim(n, j, d) for j in range(n)] == row, (n, d)
    _budget(t0, 1.0, "criterion 10: trivial-motion dimension table")
