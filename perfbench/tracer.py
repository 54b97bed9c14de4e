"""Out-of-program tracing: spans and counters recorded by wrapping public functions.

The tracer swaps each wrapped function for a timing shim in every
``gaussworld.*`` module namespace that binds it, so a call made through any
import path (``from .splat import splat``, ``gio.load_grid``, the package
re-exports) opens a span. Nothing under ``src/`` is edited; ``uninstall``
puts the original objects back.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` is the operation id the benchmark
set when the call was made. Calls made while no operation is open are passed
straight through and leave no span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

SETUP_OP = "setup"
SETUP_LAYERS = ("synth", "io", "splat", "fit", "flow")


def _layer(span_name):
    """Layer of a span: the module prefix, with grid.voxel_centers counted as splat."""
    return "splat" if span_name == "grid.voxel_centers" else span_name.split(".", 1)[0]


def _path_arg(args, kwargs):
    return kwargs["path"] if "path" in kwargs else args[0]


def _count_bytes_read(tracer, args, kwargs, out):
    tracer.count("io.bytes_read", os.path.getsize(_path_arg(args, kwargs)))


def _count_bytes_written(tracer, args, kwargs, out):
    tracer.count("io.bytes_written", os.path.getsize(_path_arg(args, kwargs)))


def _count_voxels(tracer, args, kwargs, out):
    tracer.count("grid.voxel_centers.voxels", out.shape[0])


def _count_gradcheck(tracer, args, kwargs, out):
    scene = args[0] if args else kwargs["scene"]
    widths = {"mean": 3, "log_scale": 3, "logits": scene.num_classes, "rotation": 4}
    tracer.count("fit.check_gradients.excluded", sum(v["excluded"] for v in out.values()))
    tracer.count("fit.check_gradients.components", len(scene) * sum(widths[g] for g in out))


COUNTERS = {
    "io.load_scene": _count_bytes_read,
    "io.load_grid": _count_bytes_read,
    "io.load_flows": _count_bytes_read,
    "io.load_trajectory": _count_bytes_read,
    "io.save_scene": _count_bytes_written,
    "io.save_grid": _count_bytes_written,
    "io.save_flows": _count_bytes_written,
    "grid.voxel_centers": _count_voxels,
    "fit.check_gradients": _count_gradcheck,
}


class Tracer:
    """In-memory span and counter store plus the function patches that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counters = defaultdict(lambda: defaultdict(float))  # op -> name -> value
        self.op = None
        self._stack = []
        self._patches = []

    def count(self, name, value):
        self.counters[self.op][name] += value

    def _shim(self, fn, name):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer, args, kwargs, out)
            return out

        return traced

    def install(self, span_names):
        """Wrap each ``<module>.<function>`` of gaussworld wherever a module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "gaussworld" or n.startswith("gaussworld.")]
        for name in span_names:
            module, func = name.split(".")
            orig = getattr(sys.modules[f"gaussworld.{module}"], func, None)
            if orig is None:
                continue  # renamed or removed: its expected span is reported as never hit
            shim = self._shim(orig, name)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is orig]:
                    setattr(mod, attr, shim)
                    self._patches.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def dump(self, path, header):
        """Write the header, every span and the per-op counters as JSON lines."""
        with open(path, "w") as f:
            f.write(json.dumps({"header": header}) + "\n")
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
            for op, values in self.counters.items():
                f.write(json.dumps({"counters": dict(values), "op": op}) + "\n")

    def summarize(self, span_names, num_ops):
        """Per-layer metrics per traced op, setup totals, and call counts by phase.

        Busy time of a function counts only its outermost spans, so a recursive
        call is not counted twice; self time subtracts the time its direct
        children cover. Returns (metrics, {"ops"|SETUP_OP: {span: calls}}).
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        hit = {"ops": defaultdict(int), SETUP_OP: defaultdict(int)}
        busy = defaultdict(float)
        self_s = defaultdict(float)
        setup_busy = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            dur = end - start
            if op == SETUP_OP:
                hit[SETUP_OP][name] += 1
                if not self._has_ancestor(i, lambda n: _layer(n) == _layer(name)):
                    setup_busy[_layer(name)] += dur
                continue
            hit["ops"][name] += 1
            self_s[name] += dur - child[i]
            if not self._has_ancestor(i, lambda n: n == name):
                busy[name] += dur
        n = max(num_ops, 1)
        out = {}
        for name in span_names:
            out[f"{name}.calls"] = hit["ops"][name] / n
            out[f"{name}.busy_s"] = busy[name] / n
            out[f"{name}.self_s"] = self_s[name] / n
        ops = defaultdict(float)
        for op, values in self.counters.items():
            if op != SETUP_OP:
                for k, v in values.items():
                    ops[k] += v
        setup = self.counters.get(SETUP_OP, {})
        out["grid.voxel_centers.voxels"] = ops["grid.voxel_centers.voxels"] / n
        out["io.bytes_read"] = ops["io.bytes_read"] / n
        out["io.bytes_written"] = ops["io.bytes_written"] / n
        comps = ops["fit.check_gradients.components"]
        out["fit.check_gradients.excluded_ratio"] = ops["fit.check_gradients.excluded"] / comps if comps else 0.0
        for layer in SETUP_LAYERS:
            out[f"setup.{layer}.busy_s"] = setup_busy[layer]
        out["setup.io.bytes_read"] = setup.get("io.bytes_read", 0.0)
        out["setup.io.bytes_written"] = setup.get("io.bytes_written", 0.0)
        return out, hit

    def _has_ancestor(self, i, pred):
        p = self.spans[i][3]
        while p >= 0:
            if pred(self.spans[p][0]):
                return True
            p = self.spans[p][3]
        return False
