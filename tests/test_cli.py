import json

import pytest

from gainrig.catalog import BASE_CATALOG
from gainrig.cli import main
from gainrig.jsonio import framework_to_dict, graph_from_dict, graph_to_dict, save_json
from gainrig.placement import base_placement
from gainrig.sparsity import SparsityParams, check_tight


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
    assert main(["realize", str(seq), "--character", "0", "-o", str(fwp)]) == 0
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


def test_realize_rejects_kind_not_allowed(tmp_path, capsys):
    path = tmp_path / "seq.json"
    step = {"kind": "H1c", "vertices": [0], "gains": [1]}
    save_json(str(path), {"counts": [2, 2, 2], "initial": ["k1"], "steps": [step]})
    assert main(["realize", str(path), "--character", "1"]) == 1
    assert "move kind H1c not allowed for (2, 2, 2)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, reason",
    [
        (["construct"], "not tight after H1a"),
        (["realize", "--character", "1"], "do not verify for character 1"),
    ],
)
def test_sequence_that_is_not_tight_fails(tmp_path, capsys, command, reason):
    # H1a joins the two K1 seeds: two edges on three vertices, two short of
    # (2,2,2)-tight
    path = tmp_path / "seq.json"
    step = {"kind": "H1a", "vertices": [0, 1], "gains": [1, 1]}
    save_json(str(path), {"counts": [2, 2, 2], "initial": ["k1", "k1"], "steps": [step]})
    assert main([command[0], str(path), *command[1:]]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL") and reason in out
    assert json.loads(out.split("\n", 1)[1])["verdict"] == "FAIL"


def test_realize_empty_initial_is_usage_error(tmp_path, capsys):
    # decompose of the empty graph gives this sequence; there is no base to place
    path = tmp_path / "seq.json"
    save_json(str(path), {"counts": [2, 2, 0], "initial": [], "steps": []})
    assert main(["realize", str(path)]) == 2
    assert "no initial base" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyse", "colour"])
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("positions", 5, "'positions'"),
        ("group", {"n": "x"}, "group order"),
        ("norm", {"p": [1]}, "'p' must be a number"),
    ],
)
def test_malformed_framework_is_usage_error(tmp_path, capsys, command, field, value,
                                            message):
    d = framework_to_dict(base_placement("b"))
    d[field] = value
    path = tmp_path / "fw.json"
    save_json(str(path), d)
    assert main([command, str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_gen_needs_a_vertex(capsys, n):
    assert main(["gen", f"--n={n}", "--counts", "2,2,2"]) == 2
    assert "n >= 1" in capsys.readouterr().err


def test_gen_starts_from_a_base_tight_for_the_counts(capsys):
    # base d..h hold a balanced K4, which is not (2,3,0)-sparse
    assert main(["gen", "--n", "5", "--counts", "2,3,0", "--seed", "4"]) == 0
    g = graph_from_dict(json.loads(capsys.readouterr().out))
    assert g.n == 5
    assert check_tight(g, SparsityParams(2, 3, 0))


def test_gen_without_a_tight_base_is_usage_error(capsys):
    assert main(["gen", "--n", "4", "--counts", "1,1,1"]) == 2
    captured = capsys.readouterr()
    assert "no catalogue base" in captured.err
    assert captured.out == ""
