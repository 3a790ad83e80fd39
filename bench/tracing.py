"""Per-layer timing from outside the package.

:class:`Tracer` replaces every public function that the layer modules
expose as an attribute (``dmdkit.cli.*``, ``dmdkit.dmd.*``, ...) with a
wrapper that records a span, and puts the originals back on
:meth:`Tracer.uninstall`. Callers look these attributes up at call time,
including the names one module imported from another (``dmdkit.dmd``
calls ``reduced_svd`` through its own attribute), so every call that
crosses a layer boundary is seen. Nothing inside ``src/`` changes.

A span is ``[name, start, end, parent, op, bytes_in]``: ``name`` is
``<defining module>.<function>``, ``parent`` the index of the enclosing
span (-1 at top level) and ``op`` the op the call belongs to. Spans are
kept in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np

LAYERS = ("cli", "pairs", "linalg", "dmd", "scaling", "era", "lim")

# Functions whose first argument's size is recorded, and how it is measured.
_BYTES_IN = {
    "cli.read_matrix": lambda arg: os.path.getsize(arg),
    "linalg.reduced_svd": lambda arg: np.asarray(arg).nbytes,
    "linalg.eig_dense": lambda arg: np.asarray(arg).nbytes,
}

ROUTES = ("exact_dmd", "projected_dmd", "exact_dmd_qr", "exact_dmd_sequential")

# name -> (unit, better); the order is the order metrics are reported in.
PER_LAYER = {
    "cli.read_s": ("s", "lower"),
    "cli.read_bytes": ("bytes", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.write_bytes": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "pairs.build_s": ("s", "lower"),
    "linalg.svd_calls": ("count", "lower"),
    "linalg.svd_s": ("s", "lower"),
    "linalg.svd_bytes_in": ("bytes", "lower"),
    "linalg.eig_calls": ("count", "lower"),
    "linalg.eig_s": ("s", "lower"),
    "linalg.eig_bytes_in": ("bytes", "lower"),
    "dmd.reduced_operator_calls": ("count", "lower"),
    "dmd.reduced_operator_s": ("s", "lower"),
    "dmd.route_self_s": ("s", "lower"),
    **{f"dmd.{route}_s": ("s", "lower") for route in ROUTES},
    "dmd.consistency_s": ("s", "lower"),
    "dmd.spectrum_s": ("s", "lower"),
    "scaling.amplitudes_s": ("s", "lower"),
    "era.realize_s": ("s", "lower"),
    "era.similarity_s": ("s", "lower"),
    "lim.model_s": ("s", "lower"),
    "lim.equivalence_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("share", "higher"),
}

# Metrics that are counts of work, which must repeat exactly run to run.
COUNTS = tuple(m for m in PER_LAYER if m.endswith("_calls") or "_bytes" in m)

# Metrics that are inclusive time of one function (all its calls).
_INCLUSIVE = {
    **{f"dmd.{route}_s": f"dmd.{route}" for route in ROUTES},
    "dmd.consistency_s": "dmd.linear_consistency",
    "dmd.spectrum_s": "dmd.spectrum",
    "scaling.amplitudes_s": "scaling.scale_amplitudes",
    "era.realize_s": "era.era_realize",
    "era.similarity_s": "era.era_dmd_similarity",
    "lim.model_s": "lim.lim_model",
    "lim.equivalence_s": "lim.lim_dmd_equivalence",
}


class Tracer:
    """Installs timing wrappers on the layer modules and collects spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[object, object] = {}

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        layer_modules = {f"dmdkit.{name}" for name in LAYERS}
        for name in LAYERS:
            module = importlib.import_module(f"dmdkit.{name}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ not in layer_modules:
                    continue
                if obj not in self._wrappers:
                    self._wrappers[obj] = self._wrap(obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, self._wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        measure = _BYTES_IN.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nbytes = measure(args[0]) if measure is not None and args else 0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, nbytes]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper


def op_metrics(spans: list[list], op: int, wall_s: float, write_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced op (all but ``trace.overhead_s``)."""
    mine = [(i, s) for i, s in enumerate(spans) if s[4] == op]
    child = {}
    for _, s in mine:
        if s[3] >= 0:
            child[s[3]] = child.get(s[3], 0.0) + (s[2] - s[1])
    calls, self_s, incl_s, nbytes = {}, {}, {}, {}
    top_level = 0.0
    for i, (name, start, end, parent, _, size) in mine:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child.get(i, 0.0)
        incl_s[name] = incl_s.get(name, 0.0) + (end - start)
        nbytes[name] = nbytes.get(name, 0) + size
        if parent < 0:
            top_level += end - start

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    read = self_s.get("cli.read_matrix", 0.0)
    write = self_s.get("cli.write_real_matrix", 0.0) + self_s.get("cli.write_complex_matrix", 0.0)
    out = {
        "cli.read_s": read,
        "cli.read_bytes": nbytes.get("cli.read_matrix", 0),
        "cli.write_s": write,
        "cli.write_bytes": write_bytes,
        "cli.self_s": layer_self("cli") - read - write,
        "pairs.build_s": layer_self("pairs"),
        "linalg.svd_calls": calls.get("linalg.reduced_svd", 0),
        "linalg.svd_s": self_s.get("linalg.reduced_svd", 0.0),
        "linalg.svd_bytes_in": nbytes.get("linalg.reduced_svd", 0),
        "linalg.eig_calls": calls.get("linalg.eig_dense", 0),
        "linalg.eig_s": self_s.get("linalg.eig_dense", 0.0),
        "linalg.eig_bytes_in": nbytes.get("linalg.eig_dense", 0),
        "dmd.reduced_operator_calls": calls.get("dmd.reduced_operator", 0),
        "dmd.reduced_operator_s": self_s.get("dmd.reduced_operator", 0.0),
        "dmd.route_self_s": sum(self_s.get(f"dmd.{r}", 0.0) for r in ROUTES),
        **{metric: incl_s.get(fn, 0.0) for metric, fn in _INCLUSIVE.items()},
        "trace.coverage": top_level / wall_s,
    }
    return {name: out[name] for name in PER_LAYER if name in out}
