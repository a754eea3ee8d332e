"""`gainrig check`'s FAIL output, frozen: the report it prints for tight
graphs with one edge too many, in both regimes.  Each input is a tight
graph (random_tight, or a two-base union that no move built) plus its first
absent edge [0, v, g], v = 1, 2, ... and g = 1, -1, as CI's python -O
witness step builds it.  A change to how the sparsity check searches may
change a witness: it must then regenerate the file (run this file as a
script) and say which witnesses changed.  Every stored witness violates its
own bound.

    PYTHONPATH=src python tests/test_check_fail_golden.py
"""

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from gainrig.catalog import PARAMS_220, PARAMS_222
from gainrig.cli import main
from gainrig.construct import random_tight
from gainrig.graph import GainGraph, edge
from gainrig.jsonio import graph_to_dict, save_json

sys.path.insert(0, str(Path(__file__).parent))
from conftest import two_base_union  # noqa: E402

PATH = Path(__file__).parent / "data" / "check_fail_golden.json"
REGIMES = {"220": PARAMS_220, "222": PARAMS_222}


def cases():
    return ([{"source": "random_tight", "regime": r, "n": n, "seed": s}
             for r in REGIMES for n in (12, 32, 200) for s in (0, 1)]
            + [{"source": "two_base_union", "regime": r, "n": n, "seed": 0}
               for r in REGIMES for n in (12, 32)])


def overfull(case) -> GainGraph:
    """The case's tight graph plus its first absent edge [0, v, g]."""
    p, n = REGIMES[case["regime"]], case["n"]
    g = random_tight(n, p, case["seed"]) if case["source"] == "random_tight" \
        else two_base_union(random.Random(case["seed"]), n, p)
    have = set(g.edges)
    extra = next(e for v in range(1, n) for e in (edge(0, v, 1), edge(0, v, -1)) if e not in have)
    return GainGraph(n, g.edges + (extra,))


def check_output(case) -> tuple[int, str]:
    """`gainrig check` on the overfull graph: its exit code and stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "g.json")
        save_json(path, graph_to_dict(overfull(case)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check", path, "--counts", ",".join(map(str, REGIMES[case["regime"]].as_tuple()))])
    return code, out.getvalue()


GOLDEN = json.loads(PATH.read_text())["cases"] if PATH.exists() else []


def _id(case) -> str:
    return f"{case['regime']}-{case['source']}-{case['n']}-{case['seed']}"


@pytest.mark.parametrize("case", GOLDEN, ids=_id)
def test_check_reproduces_golden_fail_output(case):
    code, out = check_output(case)
    summary, body = out.split("\n", 1)
    assert (code, summary, json.loads(body)) == (1, "FAIL", case["output"])


@pytest.mark.parametrize("case", GOLDEN, ids=_id)
def test_golden_witness_violates_its_own_bound(case):
    # the stored report alone: the witness is edges of the input, on its
    # support, over the bound of that support, and balanced if it claims so
    out, p = case["output"], REGIMES[case["regime"]]
    g, witness = overfull(case), [edge(*t) for t in case["output"]["witness"]]
    support = sorted({x for e in witness for x in (e.u, e.v)})
    assert len(set(witness)) == len(witness) and set(witness) <= set(g.edges)
    assert out["support"] == support and out["counts"] == list(p.as_tuple())
    assert out["bound"] == p.k * len(support) - (p.l if out["balanced_violation"] else p.m)
    assert len(witness) > out["bound"]
    assert not out["balanced_violation"] or g.is_balanced(witness)


def test_golden_cases_are_the_listed_inputs():
    assert [{k: c[k] for k in ("source", "regime", "n", "seed")} for c in GOLDEN] == cases()


if __name__ == "__main__":
    doc = []
    for case in cases():
        code, out = check_output(case)
        summary, body = out.split("\n", 1)
        if (code, summary) != (1, "FAIL"):
            sys.exit(f"{_id(case)}: check gave exit {code}, {summary!r}, not a FAIL")
        doc.append({**case, "output": json.loads(body)})
    lines = ",\n".join(json.dumps(c, sort_keys=True, separators=(",", ":")) for c in doc)
    PATH.write_text(f'{{"cases": [\n{lines}\n]}}\n')
    print(f"wrote {PATH}")
