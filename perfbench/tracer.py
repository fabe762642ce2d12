"""Span tracer for the traced benchmark pass.

``install`` replaces each public function of the engine's layers with a
wrapper, at every module attribute where callers look it up (so
``reltutte.tutte.contract`` and ``reltutte.graph.contract`` are both wrapped),
and wraps the ``RelPolynomial`` operator methods on the class. Each call
records one span: layer name, start, end, parent span and instance index.
Spans are kept in flat arrays in memory and written out once, after the pass.

A span's self time is its duration minus the durations of its child spans.
Children never overlap, so the self times of all spans partition the time
covered by the top-level spans, and their sum cannot exceed the traced window.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

#: layer name -> functions of that layer, as (module, attribute) pairs
LAYERS = {
    "graph.contract": [("graph", "contract")],
    "graph.delete": [("graph", "delete")],
    "graph.is_bridge": [("graph", "is_bridge")],
    "graph.components": [("graph", "components")],
    "graph.blocks": [("graph", "blocks")],
    "graph.pivot_class_key": [("graph", "pivot_class_key")],
    "graph.canonical_atoms": [("graph", "canonical_atoms")],
    "tutte.statesum": [("tutte", "universal_tutte_statesum")],
    "tutte.recursive": [("tutte", "tutte_recursive")],
    "tutte.enumerate": [("tutte", "enumerate_contracting_sets")],
    "pointed.pointed_polys": [("pointed", "pointed_polys")],
    "pointed.classify_pair": [("pointed", "classify_pair")],
    "tensor.tensor_product": [("tensor", "tensor_product")],
    "tensor.beta_lambda": [("tensor", "beta_lambda")],
    "tensor.sigma": [("tensor", "sigma")],
    "tensor.beta_zero": [("tensor", "beta_zero")],
    "tensor.substitution_rhs": [("tensor", "substitution_rhs")],
    "tensor.bijection": [("tensor", "induced_partition"), ("tensor", "compose_contracting_set")],
    "poly.equal_mod_ideal": [("poly", "equal_mod_ideal")],
    "textio.parse": [("textio", "parse_graph_text")],
    "randgen": [
        ("randgen", "random_graph"),
        ("randgen", "random_graph_with_zero_edges"),
        ("randgen", "random_proper_labeling"),
        ("randgen", "random_pointed_graph"),
        ("randgen", "random_tensor_instance"),
    ],
}

#: RelPolynomial methods timed as poly.arith and poly.render
ARITH_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__")
RENDER_METHODS = ("render",)

#: generator functions: one span per resumption, so the span covers the work
#: of producing each item and not the consumer's work between items
GENERATORS = {"tutte.enumerate"}

#: span name of the counters' own bookkeeping, kept out of every layer
HOOKS = "trace.hooks"


class Tracer:
    """Records spans in flat arrays plus a few counters taken at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_instance = -1
        self.leaves = 0
        self.terms = 0
        self.pivot_args: set[int] = set()
        self.pointed_args: set[int] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.instance.append(self.current_instance)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        hook_id = self._id(HOOKS)

        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hidx = self._open(hook_id)
                try:
                    hook(args, result)
                finally:
                    self._close(hidx)
            return result

        return wrapper

    # -- counters taken at layer boundaries -----------------------------------

    def _count_statesum(self, args, poly):
        self.terms += len(poly)
        self.leaves += sum(coeff for _, coeff in poly.terms())

    def _count_pivot(self, args, key):
        self.pivot_args.add(hash(args[0]))

    def _count_pointed(self, args, pp):
        self.pointed_args.add(hash(args[0].graph))

    def hooks(self) -> dict:
        return {
            "tutte.statesum": self._count_statesum,
            "graph.pivot_class_key": self._count_pivot,
            "pointed.pointed_polys": self._count_pointed,
        }

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Layer name -> (calls, self seconds) over every recorded span but the hooks'."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        return {nm: (calls[k], self_s[k]) for k, nm in enumerate(self.names) if nm != HOOKS}

    def write(self, path: str) -> None:
        """Write the spans: a JSON header line, then the raw column arrays."""
        columns = ("name", "parent", "instance", "start", "end")
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c in columns:
                getattr(self, c).tofile(fh)


def install() -> Tracer:
    """Import the engine and wrap every traced function wherever callers look it up.

    Modules imported later bind the wrapped functions, since they look them
    up on the already patched modules. A function the engine no longer has
    is skipped, and its layer's metrics read 0.
    """
    tracer = Tracer()
    hooks = tracer.hooks()
    importlib.import_module("reltutte")
    for layer, targets in LAYERS.items():
        for mod_name, attr in targets:
            try:
                original = getattr(importlib.import_module(f"reltutte.{mod_name}"), attr)
            except (ImportError, AttributeError):
                continue
            wrapped = tracer.wrap(layer, original, hooks.get(layer))
            for name, mod in list(sys.modules.items()):
                if name != "reltutte" and not name.startswith("reltutte."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
    poly_cls = getattr(sys.modules.get("reltutte.poly"), "RelPolynomial", None)
    for layer, methods in (("poly.arith", ARITH_METHODS), ("poly.render", RENDER_METHODS)):
        for meth in methods:
            original = vars(poly_cls).get(meth) if poly_cls else None
            if original is not None:
                setattr(poly_cls, meth, tracer.wrap(layer, original))
    return tracer
