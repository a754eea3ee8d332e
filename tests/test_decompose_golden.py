"""decompose's output, frozen: the sequence, pi and signs it returns for
random_tight graphs and two-base unions in both regimes.  A change to how
decompose searches must reproduce the file byte for byte; a change meant to
alter its output must regenerate it (run this file as a script) and say why.

    PYTHONPATH=src python tests/test_decompose_golden.py
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from gainrig.catalog import PARAMS_220, PARAMS_222
from gainrig.construct import decompose, random_tight
from gainrig.jsonio import sequence_to_dict

sys.path.insert(0, str(Path(__file__).parent))
from conftest import two_base_union  # noqa: E402

PATH = Path(__file__).parent / "data" / "decompose_golden.json"
REGIMES = {"220": PARAMS_220, "222": PARAMS_222}
SIZES, SEEDS, LARGE = (6, 12, 32, 64), (0, 1), 400


def source(kind: str, regime: str, n: int, seed: int):
    p = REGIMES[regime]
    return random_tight(n, p, seed) if kind == "random_tight" else two_base_union(random.Random(seed), n, p)


def canonical(regime: str, g) -> str:
    """decompose(g)'s sequence, pi and signs as canonical JSON."""
    seq, pi, signs = decompose(g, REGIMES[regime])
    out = {"sequence": sequence_to_dict(seq), "pi": list(pi), "signs": list(signs)}
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def cases():
    return [{"source": kind, "regime": regime, "n": n, "seed": seed}
            for regime in REGIMES for kind in ("random_tight", "two_base_union")
            for n in SIZES for seed in SEEDS]


def large():
    return [{"source": kind, "regime": regime, "n": LARGE, "seed": 0}
            for regime in REGIMES for kind in ("random_tight", "two_base_union")]


def sha(case) -> str:
    g = source(case["source"], case["regime"], case["n"], case["seed"])
    return hashlib.sha256(canonical(case["regime"], g).encode()).hexdigest()


GOLDEN = json.loads(PATH.read_text()) if PATH.exists() else {"cases": [], "large": []}


def _id(case) -> str:
    return f"{case['regime']}-{case['source']}-{case['n']}-{case['seed']}"


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=_id)
def test_decompose_reproduces_golden_output(case):
    g = source(case["source"], case["regime"], case["n"], case["seed"])
    assert json.loads(canonical(case["regime"], g)) == case["output"]


@pytest.mark.parametrize("case", GOLDEN["large"], ids=_id)
def test_decompose_reproduces_golden_digest(case):
    assert sha(case) == case["sha256"]


def test_golden_cases_cover_the_contractions():
    assert [{k: c[k] for k in ("source", "regime", "n", "seed")} for c in GOLDEN["cases"]] == cases()
    kinds = {step["kind"] for c in GOLDEN["cases"] if c["regime"] == "220"
             for step in c["output"]["sequence"]["steps"]}
    assert {"VertexToK4", "VertexSplit"} <= kinds


if __name__ == "__main__":
    doc = {"cases": [], "large": []}
    for case in cases():
        g = source(case["source"], case["regime"], case["n"], case["seed"])
        doc["cases"].append({**case, "output": json.loads(canonical(case["regime"], g))})
    doc["large"] = [{**case, "sha256": sha(case)} for case in large()]
    lines = ",\n".join(json.dumps(c, sort_keys=True, separators=(",", ":")) for c in doc["cases"])
    big = ",\n".join(json.dumps(c, sort_keys=True) for c in doc["large"])
    PATH.write_text(f'{{"cases": [\n{lines}\n],\n"large": [\n{big}\n]}}\n')
    print(f"wrote {PATH}")
