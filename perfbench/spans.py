"""Span tracing from outside the program.

``Tracer.install`` wraps the public functions of each ``wta`` layer, and a
few methods, by rebinding every name in every loaded ``wta.*`` module
namespace that refers to the original object. Because the program's
modules call each other through those namespaces (``optimize`` calls its
own ``simulate`` binding, ``cli`` its own ``run_experiment``), the wrappers
see every call across a layer boundary without any change to the program.

Spans stay in memory as (name, start, end, parent) records. Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# layer -> public functions wrapped by name; None means the module's __all__
LAYERS = {
    "graph": None,
    "dynamics": None,
    "integrate": None,
    "analysis": None,
    "optimize": None,
    "experiments": None,
    # cli exports only main(); its subcommands are the layer's public surface
    "cli": ("cmd_simulate", "cmd_classify", "cmd_optimize", "cmd_experiment"),
}

# (layer, class, method): methods wrapped on their class
METHODS = (
    ("optimize", "OptimizeProblem", "graph_for_mask"),
    ("integrate", "Trajectory", "write_csv"),
)

_SIMULATORS = ("integrate.simulate", "integrate.simulate_reverse")


def _span_name(layer: str, attr: str) -> str:
    if layer == "cli" and attr.startswith("cmd_"):
        return f"cli.{attr[4:]}"
    return f"{layer}.{attr}"


class Tracer:
    """Records nested spans for the calls the installed wrappers see."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.steps = 0
        self.stopped = 0
        self.largest_input = None  # (graph, x0) of the largest simulated graph

    # --- wrapping ---

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        on_result = self._on_simulate if name in _SIMULATORS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _on_simulate(self, args, result) -> None:
        traj = result[0]
        self.steps += traj.metadata["steps_taken"]
        self.stopped += bool(traj.metadata["stopped_at_equilibrium"])
        g = args[0]
        if self.largest_input is None or g.n + g.num_edges > (
            self.largest_input[0].n + self.largest_input[0].num_edges
        ):
            self.largest_input = (g, args[1])

    def _rebind(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"wta.{layer}")
        modules = [m for n, m in sys.modules.items() if n == "wta" or n.startswith("wta.")]
        for layer, names in LAYERS.items():
            mod = sys.modules[f"wta.{layer}"]
            for attr in names or mod.__all__:
                fn = getattr(mod, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue  # classes, constants and re-exports
                wrapper = self._wrap(_span_name(layer, attr), fn)
                for ns in modules:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._rebind(ns, key, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"wta.{layer}"), cls_name)
            self._rebind(cls, meth, self._wrap(f"{layer}.{meth}", getattr(cls, meth)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # --- aggregation ---

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, _parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
