"""Span tracing of the library's public functions, installed from outside.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper that records one span per call: name, start, end, parent span and
run id (the benchmark cycle). The replacement is made under every name a
layer module binds the function to, so ``solver``'s own ``smooth_value``
(bound at import by ``from .objective import ...``) is traced as well. A
few methods are wrapped on their classes. ``uninstall`` puts the originals
back.

Spans are kept in memory in flat arrays and written once, at the end, by
``save``. Self time is derived from them: a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

PACKAGE = "l20factor"
LAYERS = ("linalg", "sampling", "penalty", "objective", "prox", "solver",
          "diagnostics", "harness")

# (module, class, method, span name). The operator methods carry the sampling
# layer's interface, so their spans are named after the layer alone.
METHODS = (
    ("sampling", "SamplingOperator", "apply", "sampling.apply"),
    ("sampling", "SamplingOperator", "adjoint", "sampling.adjoint"),
    ("sampling", "FullOperator", "operator_norm", "sampling.operator_norm"),
    ("sampling", "UniformMaskOperator", "operator_norm", "sampling.operator_norm"),
    ("sampling", "GaussianOperator", "operator_norm", "sampling.operator_norm"),
    ("objective", "FactorPair", "product", "objective.FactorPair.product"),
    ("solver", "SolveTrace", "record", "solver.SolveTrace.record"),
    ("solver", "SolveTrace", "backfill_distances", "solver.SolveTrace.backfill_distances"),
)


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, parents, runs = self.name_id, self.parent, self.run
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap public functions of every layer and the METHODS table."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        package = importlib.import_module(PACKAGE)
        for mod in (*modules.values(), package):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._set(cls, meth, self._wrap(span, cls.__dict__[meth]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """The span table as numpy arrays (spans are indexed in start order)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Derived per-span quantities: duration, self time, outermost flag."""

    def __init__(self, names: list[str], name_id, parent, run, start, end):
        self.names = names
        self.name_id = name_id
        self.parent = parent
        self.run = run
        self.start = start
        self.end = end
        self.dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(start))
        self.self_time = self.dur - child
        # A span is outermost when no earlier span of the same name is still
        # open at its start; busy time sums outermost spans only, so a
        # function that re-enters itself is not counted twice.
        self.outermost = np.ones(len(start), dtype=bool)
        for nid in np.unique(name_id):
            idx = np.flatnonzero(name_id == nid)
            open_until = np.maximum.accumulate(end[idx])
            self.outermost[idx[1:]] = start[idx[1:]] >= open_until[:-1]

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "SpanTable":
        return cls(list(tracer.names), **tracer.arrays())

    def ids(self, name: str) -> np.ndarray:
        """Indices of all spans of ``name`` (empty when it never ran)."""
        if name not in self.names:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.name_id == self.names.index(name))

    def subtree(self, idx: int) -> slice:
        """Index range of span ``idx`` and everything it called."""
        stop = int(np.searchsorted(self.start, self.end[idx], side="left"))
        return slice(idx, stop)

    def stats(self, scope: np.ndarray, name: str) -> tuple[int, float, float]:
        """(calls, busy seconds, self seconds) of ``name`` within ``scope``."""
        sel = scope & (self.name_id == self.names.index(name)) \
            if name in self.names else np.zeros_like(scope)
        busy = float(np.sum(self.dur[sel & self.outermost]))
        return int(np.count_nonzero(sel)), busy, float(np.sum(self.self_time[sel]))

    def module_self(self, scope: np.ndarray, module: str) -> float:
        """Self time of every span whose name starts with ``module.``."""
        ids = [i for i, n in enumerate(self.names) if n.startswith(module + ".")]
        return float(np.sum(self.self_time[scope & np.isin(self.name_id, ids)]))
