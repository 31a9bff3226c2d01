"""Spans around every call into mufilt's public functions.

`Tracer` wraps each binding of each public module-level function of the
package, so a call is recorded whichever name it goes through:
`sc.constants(...)`, `constants(...)` after `from .signature_core import
constants`, or a call inside the defining module.  A span is (id, parent,
op, layer, function, start, end) with times from `perf_counter_ns`; the op
is the id of the benchmark's own root span for the operation, so the spans
of one operation share it.  Spans stay in memory until the run ends.

A layer is the defining module.  Self time is a span's duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import json
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter_ns

ROOT_LAYER = "op"


def public_functions(package: str):
    """{function: (layer, name)} for the public functions defined in the
    package's modules, and every (namespace, attribute) bound to one."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    defined = {}
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                defined[obj] = (layer, name)
    bindings = [(mod, attr, obj) for mod in modules for attr, obj in vars(mod).items()
                if isinstance(obj, types.FunctionType) and obj in defined]
    return defined, bindings


class Tracer:
    def __init__(self, package: str):
        self.layers = [ROOT_LAYER]
        self.names = [ROOT_LAYER]
        self.parent = array("q")
        self.op = array("q")
        self.layer = array("H")
        self.name = array("H")
        self.t0 = array("q")
        self.t1 = array("q")
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        defined, bindings = public_functions(package)
        wrappers = {fn: self._wrap(fn, *where) for fn, where in defined.items()}
        self._bindings = [(ns, attr, fn, wrappers[fn]) for ns, attr, fn in bindings]

    # --- recording ----------------------------------------------------------

    def _index(self, table: list, value: str) -> int:
        if value not in table:
            table.append(value)
        return table.index(value)

    def _open(self, layer: int, name: int) -> int:
        sid = len(self.t0)
        stack = self.stack
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op[stack[0]] if stack else sid)
        self.layer.append(layer)
        self.name.append(name)
        self.t1.append(0)
        stack.append(sid)
        self.t0.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.t1[sid] = perf_counter_ns()
        self.stack.pop()

    def _wrap(self, fn, layer: str, name: str):
        li = self._index(self.layers, layer)
        ni = self._index(self.names, name)
        observe = _OBSERVERS.get((layer, name))
        opener, closer = self._open, self._close

        def traced(*args, **kwargs):
            sid = opener(li, ni)
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(sid)
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        for ns, attr, _, wrapper in self._bindings:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn, _ in self._bindings:
            setattr(ns, attr, fn)

    def begin_op(self) -> int:
        return self._open(0, 0)

    def end_op(self, sid: int) -> None:
        self._close(sid)

    # --- results ------------------------------------------------------------

    def write(self, path: str, header: dict) -> None:
        """One JSON header line, then [id, parent, op, layer, function,
        start_ns, end_ns] per span; layer and function index the header's
        lists."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "layers": self.layers, "functions": self.names}) + "\n")
            for sid, row in enumerate(zip(self.parent, self.op, self.layer, self.name,
                                          self.t0, self.t1)):
                fh.write("[%d,%d,%d,%d,%d,%d,%d]\n" % (sid, *row))


def self_times(parent, t0, t1) -> list[int]:
    """Per span: its duration minus the union of its children's intervals,
    each clipped to the parent's interval."""
    out = [b - a for a, b in zip(t0, t1)]
    children = defaultdict(list)
    for sid, par in enumerate(parent):
        if par >= 0:
            children[par].append(sid)
    for par, kids in children.items():
        lo, hi = t0[par], t1[par]
        covered = 0
        end = lo
        for a, b in sorted((max(t0[k], lo), min(t1[k], hi)) for k in kids):
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        out[par] -= covered
    return out


def _count_nodes(counters, args, kwargs, result):
    counters["group_models.nodes"] += len(result)


def _count_hn(counters, args, kwargs, result):
    nodes = args[0] if args else kwargs["nodes"]
    counters["hn_engine.candidate_scans"] += (len(result.filtration) - 1) * len(nodes)
    pairs = kwargs.get("containment", args[2] if len(args) > 2 else None)
    if pairs is not None:
        counters["hn_engine.containment_pairs"] += len(pairs)


def _count_bytes(counters, args, kwargs, result):
    counters["serialize.output_bytes"] += len(result.encode("utf-8"))


_OBSERVERS = {
    ("group_models", "enumerate_split_subgroups"): _count_nodes,
    ("hn_engine", "hn_from_lattice"): _count_hn,
    ("serialize", "dump_json"): _count_bytes,
}

SELF_MS_LAYERS = ("cli_reports", "signature_core", "polygons", "group_models",
                  "hn_engine", "period_calculus", "canonical_tower", "lt_crystals")
PARSE_FUNCTIONS = ("relaxed_literal", "parse_frac", "parse_signature", "parse_polygon",
                   "parse_desc", "parse_lattice")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics over the traced operations: self time
    per layer, serialize split into parsing and encoding, and counts."""
    self_ns = self_times(tracer.parent, tracer.t0, tracer.t1)
    by_layer = defaultdict(int)
    calls = defaultdict(int)
    parse_ns = dump_ns = 0
    for sid, ns in enumerate(self_ns):
        layer = tracer.layers[tracer.layer[sid]]
        name = tracer.names[tracer.name[sid]]
        by_layer[layer] += ns
        calls[layer, name] += 1
        calls[layer] += 1
        if layer == "serialize":
            if name in PARSE_FUNCTIONS:
                parse_ns += ns
            else:
                dump_ns += ns
    ms = 1e-6 / ops
    out = {f"{layer}.self_ms": (by_layer[layer] * ms, "ms") for layer in SELF_MS_LAYERS}
    out["serialize.parse_ms"] = (parse_ns * ms, "ms")
    out["serialize.dump_ms"] = (dump_ns * ms, "ms")
    out["serialize.output_bytes"] = (tracer.counters["serialize.output_bytes"] / ops, "bytes")
    out["signature_core.constants_calls"] = (calls["signature_core", "constants"] / ops, "count")
    out["period_calculus.calls"] = (calls["period_calculus"] / ops, "count")
    for key in ("group_models.nodes", "hn_engine.candidate_scans",
                "hn_engine.containment_pairs"):
        out[key] = (tracer.counters[key] / ops, "count")
    return out
