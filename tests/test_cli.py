import json

import pytest

from gainrig.catalog import BASE_CATALOG
from gainrig.cli import main
from gainrig.jsonio import graph_to_dict, save_json


@pytest.fixture
def base_a_file(tmp_path):
    path = tmp_path / "a.json"
    save_json(str(path), graph_to_dict(BASE_CATALOG["a"]))
    return str(path)


def test_check_tight(base_a_file, capsys):
    assert main(["check", base_a_file, "--counts", "2,2,0"]) == 0
    assert capsys.readouterr().out.startswith("TIGHT")


def test_check_fail_with_witness(tmp_path, capsys):
    path = tmp_path / "bad.json"
    save_json(
        str(path),
        {"n": 2, "edges": [[0, 1, 1], [0, 1, -1], [0, 0, -1], [1, 1, -1]]},
    )
    assert main(["check", str(path), "--counts", "2,2,2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL")
    body = json.loads(out.split("\n", 1)[1])
    assert body["witness"]


def test_missing_file_is_usage_error(capsys):
    assert main(["check", "/nonexistent/x.json"]) == 2


def test_invalid_graph_is_usage_error(tmp_path):
    path = tmp_path / "invalid.json"
    save_json(str(path), {"n": 1, "edges": [[0, 0, 1]]})
    assert main(["check", str(path)]) == 2


def test_full_pipeline(tmp_path, capsys):
    g = tmp_path / "g.json"
    seq = tmp_path / "seq.json"
    g2 = tmp_path / "g2.json"
    fwp = tmp_path / "fw.json"
    assert main(["gen", "--n", "5", "--seed", "3", "-o", str(g)]) == 0
    assert main(["decompose", str(g), "-o", str(seq)]) == 0
    assert main(["construct", str(seq), "-o", str(g2)]) == 0
    assert main(["realize", str(seq), "--character", "0", "--seed", "7",
                 "-o", str(fwp)]) == 0
    assert main(["analyse", str(fwp), "--character", "0"]) == 0
    out = capsys.readouterr().out
    assert '"isostatic": true' in out
    assert main(["colour", str(fwp)]) == 0
    assert '"chi0_isostatic": true' in capsys.readouterr().out


def test_roundtrip_command(capsys):
    assert main(["roundtrip", "--n", "6", "--seed", "1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_decompose_non_tight_fails(tmp_path, capsys):
    path = tmp_path / "sparse.json"
    save_json(str(path), {"n": 2, "edges": [[0, 1, 1]]})
    assert main(["decompose", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["construct", "realize"])
def test_unknown_base_id_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "seq.json"
    save_json(str(path), {"counts": [2, 2, 0], "initial": ["zz"], "steps": []})
    assert main([command, str(path)]) == 2
    assert "unknown base id 'zz'" in capsys.readouterr().err


def _sequence_file(tmp_path, step):
    path = tmp_path / "seq.json"
    save_json(str(path), {"counts": [2, 2, 0], "initial": ["a"], "steps": [step]})
    return str(path)


@pytest.mark.parametrize("command", ["construct", "realize"])
@pytest.mark.parametrize(
    "step, message",
    [
        ({"kind": "H2a", "removed": [[0, 1, 1]], "vertices": [0, 1]}, "H2a needs 2 gains"),
        ({"kind": "H1a", "vertices": 5, "gains": [1, 1]}, "'vertices' must be a list"),
    ],
)
def test_malformed_move_is_usage_error(tmp_path, capsys, command, step, message):
    assert main([command, _sequence_file(tmp_path, step)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["construct", "realize"])
def test_move_that_does_not_fit_fails(tmp_path, capsys, command):
    step = {"kind": "H1a", "vertices": [0, 7], "gains": [1, 1]}
    assert main([command, _sequence_file(tmp_path, step)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL") and "no vertex 7" in out
