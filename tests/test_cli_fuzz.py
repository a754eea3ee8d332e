"""Fuzz the CLI in-process: whatever graph, framework or sequence JSON it
reads, well-formed or not, `main` returns 0, 1 or 2 and raises nothing."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainrig.cli import main
from gainrig.jsonio import framework_to_dict
from gainrig.moves import ALL_KINDS, ARITY
from gainrig.placement import base_placement

FUZZ = settings(max_examples=100, derandomize=True, deadline=None)

scalar = st.none() | st.booleans() | st.integers(-2, 8) | st.floats(-4, 4) | st.text(max_size=3)
junk = scalar | st.recursive(
    scalar,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
gain = st.sampled_from([1, -1])


def _spoil(doc: dict, key: str, value) -> dict:
    """doc with key set to value, or dropped when value is None."""
    out = {k: v for k, v in doc.items() if k != key}
    if value is not None:
        out[key] = value
    return out


def spoiled(doc: st.SearchStrategy, keys: list[str]) -> st.SearchStrategy:
    """Mostly well-formed documents, some with one field replaced by junk
    or dropped, and some junk in place of the whole document."""
    broken = st.builds(_spoil, doc, st.sampled_from(keys), junk)
    return st.one_of(doc, doc, broken, junk)


def _graph(n: int) -> st.SearchStrategy:
    """n vertices and edges among them; repeated edges make some invalid."""
    vertex = st.integers(0, max(n - 1, 0)) | st.integers(-1, 6)
    triple = st.tuples(vertex, vertex, gain).map(
        lambda t: [t[0], t[1], -1 if t[0] == t[1] else t[2]])
    return st.fixed_dictionaries(
        {"n": st.just(n), "edges": st.lists(triple, max_size=2 * n + 1)})


graph = st.integers(0, 6).flatmap(_graph)

point = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(list) | st.sampled_from(
    [["1/2", -1], ["-3/2", "2"], [1, "1/0"], [0, 0], [1]])
norm = st.sampled_from(["linf", "l1", {"p": 3}, {"p": 2}, {"p": 1000}, {"p": float("inf")},
                        {"facets": [[1, 1], [1, -1]]}, {"facets": [[1, 0], [2, 0]]}]) | st.fixed_dictionaries(
    {}, optional={"p": junk, "facets": junk | st.lists(junk, min_size=2, max_size=2)})
fixtures = [framework_to_dict(base_placement(b)) for b in ("a", "b", "e")]
framework = (
    st.sampled_from(fixtures)
    | st.builds(lambda fw, i, pt: {**fw, "positions": fw["positions"][:i] + [pt]
                                   + fw["positions"][i + 1:]},
                st.sampled_from(fixtures), st.integers(0, 3), point)
    | st.builds(lambda g, pos, order, nm: {**g, "positions": pos, "group": {"n": order},
                                           "norm": nm},
                graph, st.lists(point | junk, max_size=6) | scalar,
                st.integers(-1, 4) | scalar, norm)
)


def _move(kind: str) -> st.SearchStrategy:
    vertex = st.integers(0, 5)
    triple = st.tuples(vertex, vertex, gain).map(list)
    nv, ng, nr = ARITY[kind]
    return st.fixed_dictionaries(
        {
            "kind": st.just(kind),
            "vertices": st.lists(vertex, min_size=nv, max_size=nv),
            "gains": st.lists(gain, min_size=ng, max_size=ng),
            "removed": st.lists(triple, min_size=nr, max_size=nr),
        },
        optional={
            "attach": st.lists(st.tuples(triple, st.integers(0, 3)).map(list), max_size=3),
            "loop_attach": st.lists(st.integers(0, 3), min_size=2, max_size=2),
            "v2_edge": triple,
            "moved": st.lists(triple, max_size=2),
            "move_loop": st.booleans(),
        },
    )


move = spoiled(st.sampled_from(ALL_KINDS).flatmap(_move),
               ["kind", "vertices", "gains", "removed", "attach", "v2_edge"])
sequence = st.fixed_dictionaries(
    {
        "counts": st.sampled_from([[2, 2, 0], [2, 2, 2]]),
        "initial": st.lists(st.sampled_from(["a", "b", "e", "k1", "zz"]), max_size=2),
        "steps": st.lists(move, max_size=3),
    }
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(workdir, argv, doc) -> None:
    path = workdir / "in.json"
    path.write_text(json.dumps(doc))
    assert main([argv[0], str(path), *argv[1:]]) in (0, 1, 2)


@FUZZ
@given(st.sampled_from([["check", "--counts", "2,2,0"], ["check", "--counts", "2,2,2"],
                        ["decompose"]]), spoiled(graph, ["n", "edges"]))
def test_graph_commands(workdir, argv, doc):
    _run(workdir, argv, doc)


@FUZZ
@given(st.sampled_from([["analyse", "--character", "0"], ["analyse", "--character", "1"],
                        ["analyse", "--character", "2"], ["colour"]]),
       spoiled(framework, ["n", "edges", "positions", "group", "norm"]))
def test_framework_commands(workdir, argv, doc):
    _run(workdir, argv, doc)


@FUZZ
@given(st.sampled_from([["construct"], ["realize", "--character", "0"],
                        ["realize", "--character", "1"]]),
       spoiled(sequence, ["counts", "initial", "steps"]))
def test_sequence_commands(workdir, argv, doc):
    _run(workdir, argv, doc)
