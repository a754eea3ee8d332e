"""Spans and counters at gainrig's layer boundaries, installed from outside.

``Tracer.install`` replaces each traced public function with a timing
wrapper in every ``gainrig`` module namespace that binds it (modules import
each other with ``from .x import y``, so patching one namespace would miss
the others).  While an operation is open (``begin_op``/``end_op``) every
call records a span (name, start, end, parent span, op id) in memory;
calls outside operations, such as set-up and output checks, record nothing.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) -> span name.  Generators get one span per next().
SPANNED = {
    ("sparsity", "check_sparsity"): "sparsity.check_sparsity",
    ("sparsity", "check_tight"): "sparsity.check_tight",
    ("moves", "enumerate_reductions"): "moves.enumerate_reductions",
    ("moves", "is_admissible"): "moves.is_admissible",
    ("moves", "apply_move"): "moves.apply_move",
    ("construct", "decompose"): "construct.decompose",
    ("construct", "construct"): "construct.construct",
    ("iso", "isomorphism"): "iso.isomorphism",
    ("catalog", "is_base_graph"): "catalog.is_base_graph",
    ("placement", "realize"): "placement.realize",
    ("placement", "extend_placement"): "placement.extend_placement",
    ("rigidity", "well_positioned"): "rigidity.well_positioned",
    ("rigidity", "analyse"): "rigidity.analyse",
    ("linalg", "matrix_rank"): "linalg.matrix_rank",
    ("colouring", "geometric_verdict"): "colouring.geometric_verdict",
    ("jsonio", "framework_to_dict"): "jsonio.encode",
    ("jsonio", "framework_from_dict"): "jsonio.decode",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self._name_ids: dict[str, int] = {}

    # -- operations ----------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def end_op(self) -> None:
        self._op = None

    def count(self, key: str, k: int = 1) -> None:
        if self._op is not None:
            self.counts[key] += k

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> tuple[int, int, float]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((nid, 0.0, 0.0, parent, self._op))
        self._stack.append(idx)
        return idx, parent, time.perf_counter()

    def _close(self, idx: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (self.spans[idx][0], start, end, parent, self._op)

    def _innermost(self) -> str:
        return self.names[self.spans[self._stack[-1]][0]] if self._stack else ""

    def _wrap(self, fn, name: str):
        tracer = self
        nid = self._name_id(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if tracer._op is None:
                        item = next(it, _DONE)
                    else:
                        idx, parent, start = tracer._open(nid)
                        try:
                            item = next(it, _DONE)
                        finally:
                            tracer._close(idx, parent, start)
                    if item is _DONE:
                        return
                    tracer.count(name + ".yields")
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            idx, parent, start = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.count(name + ".raised." + type(exc).__name__)
                raise
            finally:
                tracer._close(idx, parent, start)
            tracer._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _observe(self, name: str, args, kwargs, result) -> None:
        """Counters that need a call's arguments or result."""
        if name == "sparsity.check_sparsity":
            if kwargs.get("require_edges", args[2] if len(args) > 2 else None) is not None:
                self.count("sparsity.check_sparsity.incremental")
        elif name == "moves.is_admissible" and result:
            self.count("moves.is_admissible.accepted")
        elif name == "construct.construct":
            self.count("construct.steps", len(args[0].steps))
        elif name == "colouring.geometric_verdict":
            if result.chi0_isostatic or result.chi1_isostatic:
                self.count("colouring.geometric_verdict.accepted")

    def _counting(self, fn, key: str, rejected: type | None = None):
        """Count calls made inside ops, in total and as ``key@span`` for the
        innermost open span; with ``rejected``, count calls that raise it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            scope = "@" + tracer._innermost()
            tracer.counts[key] += 1
            tracer.counts[key + scope] += 1
            if rejected is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            except rejected:
                tracer.counts[key + ".rejected"] += 1
                raise

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name in every loaded gainrig namespace."""
        from gainrig.graph import GainGraph
        from gainrig.rigidity import Framework, FrameworkError

        for mod_name, _ in SPANNED:
            importlib.import_module("gainrig." + mod_name)
        mods = [
            mod for name, mod in sys.modules.items()
            if name == "gainrig" or name.startswith("gainrig.")
        ]
        for (mod_name, attr), span in SPANNED.items():
            orig = getattr(sys.modules["gainrig." + mod_name], attr)
            wrapped = self._wrap(orig, span)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        GainGraph.__post_init__ = self._counting(GainGraph.__post_init__, "graph.gaingraph_builds")
        GainGraph.balance_potential = self._counting(
            GainGraph.balance_potential, "graph.balance_potential.calls"
        )
        Framework.__post_init__ = self._counting(
            Framework.__post_init__, "rigidity.framework_builds", FrameworkError
        )

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self seconds) over spans inside ops."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (nid, start, end, parent, op) in enumerate(self.spans):
            if op is None:
                continue
            agg = out[self.names[nid]]
            agg[0] += 1
            agg[1] += (end - start) - child[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path) -> None:
        """Spans as tab-separated lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for i, (nid, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


_DONE = object()
