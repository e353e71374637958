"""Outside-in layer tracing of one circlelab op.

The layers are the package's modules plus the pseudo-layer ``fft`` for
``numpy.fft.fft``/``ifft``.  `install` replaces every public function of
a layer, under each name a layer module binds it to, with a wrapper, and
does the same for ``numpy.fft.fft``/``ifft``.  No file of the package
changes.  A wrapper opens a span only when the call crosses a layer
boundary, that is when the innermost open span belongs to another layer;
calls within one module run straight through.

A span holds its name, start, end and parent span; all spans of one op
share the op id.  Spans stay in memory until `Tracer.dump` writes them,
when the op has ended.  Work counters are computed from the arguments and
results at the same boundaries.  `layer_metrics` turns a dump into
per-layer self times: a span's duration minus the time its child spans
cover.  `nesting_problems` checks that the spans of a dump nest, which is
what makes every self time non-negative.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "verify", "spectral", "varnorm", "expsum", "arith", "torus",
          "fft")
ROOT_SPAN = "cli.main"


def _count_classify(tracer, caller, bound, result):
    tracer.counters["arith.classify_calls"] += 1
    if caller == "verify":
        tracer.counters["verify.classify_calls"] += 1
        tracer.counters["verify.classify_major"] += int(result.is_major)


def _count_phase_terms(key):
    def count(tracer, caller, bound, result):
        tracer.counters["expsum.phase_terms"] += int(bound.arguments[key])
    return count


def _count_tail(tracer, caller, bound, result):
    args = bound.arguments
    m = int(args["R"]) - int(args["k"])
    if m > 0:
        tracer.counters["expsum.tail_terms"] += int(args["N"]) % (1 << m)


def _count_variation(tracer, caller, bound, result):
    shape = np.shape(bound.arguments["values"])
    S = shape[-1]
    rows = int(np.prod(shape[:-1], dtype=np.int64))
    tracer.counters["varnorm.calls"] += 1
    tracer.counters["varnorm.dp_cells"] += rows * S * (S - 1) // 2
    if caller == "torus":
        tracer.counters["torus.objective_evals"] += 1


def _count_multiplier(tracer, caller, bound, result):
    tracer.counters["spectral.multiplier_calls"] += 1
    args = bound.arguments
    tracer.multiplier_keys.add((args["P"], int(args["N"]), int(args["M"])))


def _count_grid(tracer, caller, bound, result):
    tracer.counters["spectral.grid_points"] += int(bound.arguments["M"])


def _count_fft(tracer, caller, bound, result):
    a = np.asarray(bound.arguments["a"])
    n = bound.arguments.get("n")
    axis = bound.arguments.get("axis", -1)
    points = a.size if n is None else a.size // max(a.shape[axis], 1) * n
    tracer.counters["fft.points"] += int(points)


COUNTERS = {
    "arith.classify_arc": _count_classify,
    "expsum.weyl_sum": _count_phase_terms("t"),
    "expsum.weyl_sum_prefix": _count_phase_terms("t_max"),
    "expsum.fast_dyadic_quadratic_weyl": _count_tail,
    "varnorm.variation_values": _count_variation,
    "spectral.average_multiplier": _count_multiplier,
    "spectral.arc_projection_multiplier": _count_grid,
    "fft.fft": _count_fft,
    "fft.ifft": _count_fft,
}


class Tracer:
    """Span and counter store for one op process.

    The root span ``cli.main`` starts at the parent's spawn time and ends
    when the CLI's ``main`` returns.
    """

    def __init__(self, spawn_t: float):
        self.names = [ROOT_SPAN]
        self.span_name = [0]
        self.start = [spawn_t]
        self.end = [spawn_t]
        self.parent = [-1]
        self.open = [0]
        self.open_layer = ["cli"]
        self.counters = Counter()
        self.multiplier_keys = set()

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        name_id = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = self.open_layer[-1]
            if caller == layer:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(self.open[-1])
            self.open.append(idx)
            self.open_layer.append(layer)
            self.end.append(0.0)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.open.pop()
                self.open_layer.pop()
            if count:
                count(self, caller, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def finish(self, main_end: float):
        self.end[0] = main_end

    def dump(self, path: str, op_id: int) -> dict:
        """Write the spans to `path` (.npz); return names and counters."""
        np.savez(path, op=np.int64(op_id),
                 name=np.asarray(self.span_name, dtype=np.int32),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent, dtype=np.int64))
        counters = dict(self.counters)
        counters["spectral.multiplier_keys"] = len(self.multiplier_keys)
        return {"names": self.names, "counters": counters}


def install(tracer: Tracer):
    """Wrap the public functions of every layer module, and numpy.fft."""
    modules = {layer: importlib.import_module(f"circlelab.{layer}")
               for layer in LAYERS if layer != "fft"}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (callable(obj) and not isinstance(obj, type)
                    and not attr.startswith("_")
                    and getattr(obj, "__module__", None) == mod.__name__):
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if callable(obj) and not isinstance(obj, type) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    for attr in ("fft", "ifft"):
        fn = getattr(np.fft, attr)
        setattr(np.fft, attr, tracer.wrap(f"fft.{attr}", fn))


def _load(span_path: str):
    with np.load(span_path) as d:
        return d["name"], d["start"], d["end"], d["parent"]


def nesting_problems(span_path: str) -> list:
    """What is wrong with the nesting of one op's spans; empty if nothing.

    Every span must end after it starts and lie inside its parent, and
    spans with the same parent must not overlap.
    """
    _, start, end, parent = _load(span_path)
    problems = []
    if np.any(end < start):
        problems.append(f"{int(np.sum(end < start))} spans end before "
                        "they start")
    kid, up = np.arange(1, len(start)), parent[1:]
    if np.any((start[kid] < start[up]) | (end[kid] > end[up])):
        problems.append("a span lies outside its parent")
    order = kid[np.lexsort((start[kid], up))]
    same = parent[order[1:]] == parent[order[:-1]]
    if np.any(same & (start[order[1:]] < end[order[:-1]])):
        problems.append("sibling spans overlap")
    return problems


def layer_metrics(span_path: str, meta: dict) -> dict:
    """Per-layer self seconds and counters of one traced op.

    `meta` is what `Tracer.dump` returned.  Returns ``<layer>.self_s`` for
    every layer and the counters.  The self times add up to the root
    span's duration by construction.
    """
    name, start, end, parent = _load(span_path)
    dur = end - start
    covered = np.bincount(parent[1:], weights=dur[1:], minlength=len(dur))
    self_t = dur - covered
    layer_of_name = np.array([LAYERS.index(n.split(".", 1)[0])
                              for n in meta["names"]])
    per_layer = np.bincount(layer_of_name[name], weights=self_t,
                            minlength=len(LAYERS))
    out = {f"{layer}.self_s": float(t) for layer, t in zip(LAYERS, per_layer)}
    out.update(meta["counters"])
    return out
