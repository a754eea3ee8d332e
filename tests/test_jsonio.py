import sys
import time
from fractions import Fraction as F

import pytest

from gainrig.catalog import BASE_CATALOG, PARAMS_220
from gainrig.construct import decompose, random_tight
from gainrig.graph import GainGraphError
from gainrig.jsonio import (
    FormatError,
    dump_rational,
    framework_from_dict,
    framework_to_dict,
    graph_from_dict,
    graph_to_dict,
    move_from_dict,
    move_to_dict,
    norm_from_json,
    parse_rational,
    sequence_from_dict,
    sequence_to_dict,
)
from gainrig.norms import L1, LINF, LpNorm
from gainrig.placement import base_placement


def test_graph_roundtrip():
    g = BASE_CATALOG["c"]
    assert graph_from_dict(graph_to_dict(g)) == g


def test_graph_parse_validation():
    with pytest.raises(GainGraphError):
        graph_from_dict({"n": 1, "edges": [[0, 0, 1]]})
    with pytest.raises(FormatError):
        graph_from_dict({"n": 2})
    with pytest.raises(FormatError):
        graph_from_dict({"n": 2, "edges": [[0, 1]]})


@pytest.mark.parametrize("d", [
    {"n": True, "edges": []},
    {"n": 2, "edges": [[0, 1, True]]},
    {"n": 2, "edges": [[False, 1, 1]]},
])
def test_json_booleans_are_not_graph_integers(d):
    # bool is an int subclass: True would pass as a vertex count or a gain
    with pytest.raises(FormatError):
        graph_from_dict(d)


def test_rationals():
    assert parse_rational("3/7") == F(3, 7)
    assert parse_rational(5) == F(5)
    assert parse_rational(0.25) == F(1, 4)
    with pytest.raises(FormatError):
        parse_rational("x/y")


def test_a_decimal_exponent_past_the_integer_digit_limit_is_refused_at_once(monkeypatch):
    # Fraction builds 10**exponent first, which for "1e100000000" runs far
    # past any timeout.  An exponent within the limit Python puts on integer
    # literals parses; one beyond it is a FormatError, as a literal that
    # long is; with the limit off (0) no bound applies
    limit = sys.get_int_max_str_digits()
    assert parse_rational(f"1e{limit}") == 10 ** limit
    assert parse_rational(f"1e-{limit}") == F(1, 10 ** limit)
    start = time.perf_counter()
    for text in ("1e100000000", "-2.5E+100000000", f"1e-{limit + 1}"):
        with pytest.raises(FormatError, match="exponent beyond"):
            parse_rational(text)
    assert time.perf_counter() - start < 1
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    assert parse_rational(f"1e{limit + 1}") == 10 ** (limit + 1)


def test_norm_specs():
    assert norm_from_json("linf") == LINF
    assert norm_from_json("l1") == L1
    assert isinstance(norm_from_json({"p": 3}), LpNorm)
    custom = norm_from_json({"facets": [["1", "2"], [0, 1]]})
    assert custom.facets[0] == (F(1), F(2))
    with pytest.raises(FormatError):
        norm_from_json("l2")


def test_framework_roundtrip():
    fw = base_placement("b")
    d = framework_to_dict(fw)
    fw2 = framework_from_dict(d)
    assert fw2.graph == fw.graph
    assert fw2.positions == fw.positions
    assert fw2.norm == fw.norm
    assert fw2.group_order == 2


def test_move_and_sequence_roundtrip():
    for i in range(15):
        g = random_tight(2 + i % 6, PARAMS_220, seed=6000 + i)
        seq, _, _ = decompose(g, PARAMS_220)
        d = sequence_to_dict(seq)
        back = sequence_from_dict(d)
        assert back == seq
        for m in seq.steps:
            assert move_from_dict(move_to_dict(m)) == m


@pytest.mark.parametrize(
    "move",
    [
        {"kind": ["H1a"]},
        {"kind": "H9"},
        {"kind": "H1b", "vertices": [0], "gains": [1]},
        {"kind": "H1a", "vertices": [0, "1"], "gains": [1, 1]},
        {"kind": "H1a", "vertices": [0, 1], "gains": [1, 2]},
        {"kind": "H2e", "removed": [[0, 0]]},
        {"kind": "H2e", "removed": [[0, 0, "-1"]]},
        {"kind": "VertexToK4", "vertices": [0], "attach": [[[0, 1, 1]]]},
        {"kind": "VertexToK4", "vertices": [0], "loop_attach": [0, 1, 2]},
        {"kind": "VertexSplit", "vertices": [0], "moved": {"a": 1}},
        {"kind": "VertexSplit", "vertices": [0], "v2_edge": [0, 1, 1], "move_loop": "no"},
        {"kind": "VertexSplit", "vertices": [0], "v2_edge": [0, 1, 1], "move_loop": 1},
        # a field the kind does not read, and a key that names no field
        {"kind": "H1a", "vertices": [0, 1], "gains": [1, 1], "moved": [[0, 1, 1]]},
        {"kind": "VertexSplit", "vertices": [0], "v2_edge": [0, 1, 1], "moves": [[0, 2, 1]]},
    ],
)
def test_malformed_move_raises_format_error(move):
    with pytest.raises(FormatError):
        move_from_dict(move)


@pytest.mark.parametrize(
    "seq",
    [
        {"counts": 5, "initial": ["a"], "steps": []},
        {"counts": [2, 2], "initial": ["a"], "steps": []},
        {"counts": [2, 2, 0], "initial": "a", "steps": []},
        {"counts": [2, 2, 0], "initial": [["a"]], "steps": []},
        {"counts": [2, 2, 0], "initial": ["a"], "steps": {"kind": "H1b"}},
        {"counts": [2, 3, 0], "initial": ["a"], "steps": []},
        {"counts": [0, 0, 0], "initial": ["a"], "steps": []},
    ],
)
def test_malformed_sequence_raises_format_error(seq):
    with pytest.raises(FormatError):
        sequence_from_dict(seq)


@pytest.mark.parametrize(
    "field, value",
    [("positions", 5), ("positions", [1, 2]), ("group", {"n": "x"}),
     ("norm", {"p": [1]}), ("norm", {"facets": [1, 2]}), ("group", 4), ("group", [4])],
)
def test_malformed_framework_raises_format_error(field, value):
    d = framework_to_dict(base_placement("b"))
    d[field] = value
    with pytest.raises(FormatError):
        framework_from_dict(d)


@pytest.mark.parametrize("text, value", [
    ("3/8", F(3, 8)), ("-3/8", F(-3, 8)), (" 3/8", F(3, 8)), ("+3/8", F(3, 8)),
    ("1.5", F(3, 2)), ("1e3", F(1000)), ("-0/5", F(0)), ("6/4", F(3, 2)), ("007/030", F(7, 30)),
    ("1/0", "bad rational '1/0': Fraction(1, 0)"),
    ("-5/00", "bad rational '-5/00': Fraction(-5, 0)"),
    ("3/-4", "bad rational '3/-4': Invalid literal for Fraction: '3/-4'"),
    ("1/2/3", "bad rational '1/2/3': Invalid literal for Fraction: '1/2/3'"),
])
def test_rationals_read_and_written(text, value):
    # a canonical "p/q" is read from two ints, everything else by Fraction
    # itself: the same values and the same error texts either way
    if isinstance(value, str):
        with pytest.raises(FormatError) as exc:
            parse_rational(text)
        assert str(exc.value) == value
        return
    got = parse_rational(text)
    assert got == value == F(text) and type(got) is F
    dumped = dump_rational(got)
    assert dumped == (value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}")
    assert parse_rational(dumped) == value
    assert dump_rational(value) == dump_rational(value.numerator / F(value.denominator)) == dumped
    assert dump_rational(3) == 3 and dump_rational(F(6, 3)) == 2 and type(dump_rational(F(6, 3))) is int
