import json
import random

import pytest

from gainrig.catalog import BASE_CATALOG
from gainrig.cli import main
from gainrig.graph import GainGraph
from gainrig.jsonio import framework_to_dict, graph_to_dict, save_json
from gainrig.placement import base_placement
from gainrig.sparsity import SparsityParams, check_tight

from conftest import two_base_union


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


@pytest.mark.parametrize("counts, character", [("2,2,0", "0"), ("2,2,2", "1")])
def test_realize_under_l1_norm(tmp_path, capsys, counts, character):
    g, seq, fwp = tmp_path / "g.json", tmp_path / "seq.json", tmp_path / "fw.json"
    assert main(["gen", "--n", "7", "--counts", counts, "--seed", "2", "-o", str(g)]) == 0
    assert main(["decompose", str(g), "--counts", counts, "-o", str(seq)]) == 0
    assert main(["realize", str(seq), "--character", character, "--norm", "l1",
                 "-o", str(fwp)]) == 0
    assert json.loads(fwp.read_text())["norm"] == "l1"
    capsys.readouterr()
    assert main(["analyse", str(fwp), "--character", character]) == 0
    assert '"isostatic": true' in capsys.readouterr().out
    assert main(["colour", str(fwp)]) == 0
    assert f'"chi{character}_isostatic": true' in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:  # argparse: a usage error
        main(["realize", str(seq), "--norm", "l2"])
    assert exc.value.code == 2


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


def test_gen_without_a_tight_base_is_usage_error(capsys):
    assert main(["gen", "--n", "1", "--counts", "2,2,0"]) == 2
    captured = capsys.readouterr()
    assert "no catalogue base" in captured.err
    assert captured.out == ""


def test_gen_of_an_unserved_count_names_the_served_counts(capsys):
    assert main(["gen", "--n", "4", "--counts", "2,2,1"]) == 2
    captured = capsys.readouterr()
    assert "serve counts (2, 2, 0) and (2, 2, 2) only" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("counts", [(2, 2, 1), (3, 3, 1)])
@pytest.mark.parametrize("command", ["construct", "realize", "gen", "roundtrip"])
def test_every_construction_command_serves_only_220_and_222(tmp_path, capsys, command,
                                                             counts):
    if command in ("gen", "roundtrip"):
        argv = [command, "--n", "4", "--counts", ",".join(map(str, counts))]
    else:
        path = tmp_path / "seq.json"
        save_json(str(path), {"counts": list(counts), "initial": ["a"], "steps": []})
        argv = [command, str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"got {counts}" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("p, code", [(1000, 0), (float("inf"), 2), (10**400, 2)])
def test_lp_norm_exponents_never_end_in_a_traceback(tmp_path, capsys, p, code):
    d = framework_to_dict(base_placement("a"))
    d["positions"], d["norm"] = [[-2, -1], [-1, 2]], {"p": p}
    path = tmp_path / "fw.json"
    path.write_text(json.dumps(d))
    assert main(["analyse", str(path)]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out.split("\n", 1)[0].endswith("-> isostatic")
    else:
        assert captured.out == "" and "Traceback" not in captured.err


def test_lp_norm_coordinate_beyond_a_float_is_usage_error(tmp_path, capsys):
    # an l^p framework is ranked in floats: a coordinate that does not fit
    # one is refused when the framework is built, naming the coordinate
    d = framework_to_dict(base_placement("a"))
    d["positions"], d["norm"] = [["1e400", -1], [-1, 2]], {"p": 3}
    path = tmp_path / "fw.json"
    path.write_text(json.dumps(d))
    assert main(["analyse", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "coordinate 0 of vertex 0 does not fit a float" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["check", "g.json"], ["gen", "--n", "5"], ["decompose", "g.json"],
     ["roundtrip", "--n", "5"]],
)
def test_counts_with_l_not_k_are_rejected_at_once(capsys, argv):
    with pytest.raises(SystemExit) as exc:  # argparse: a usage error
        main([*argv, "--counts", "2,3,0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "2,3,0" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["gen", "roundtrip"])
def test_moves_need_k_equal_2(capsys, command):
    # every move adds two edges per vertex, so no k = 3 count is kept
    assert main([command, "--n", "3", "--counts", "3,3,2"]) == 2
    err = capsys.readouterr().err
    assert "(3, 3, 2)" in err and "Traceback" not in err


@pytest.mark.parametrize("counts", ["3,3,1", "2,2,1"])
def test_decompose_serves_only_220_and_222(tmp_path, capsys, counts):
    # a tight graph of a count no construction serves: a usage error at
    # once, not a FAIL after every reduction was tried
    p = SparsityParams(*map(int, counts.split(",")))
    if p.k == 3:
        g = two_base_union(random.Random(1), 6, p)
    else:
        g = GainGraph.from_triples(3, [[0, 1, 1], [1, 2, 1], [0, 1, -1], [1, 2, -1], [2, 2, -1]])
    assert check_tight(g, p)
    path = tmp_path / "g.json"
    save_json(str(path), graph_to_dict(g))
    assert main(["decompose", str(path), "--counts", counts]) == 2
    captured = capsys.readouterr()
    assert str(p.as_tuple()) in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
