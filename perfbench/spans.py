"""In-memory spans around the program's layer entry points.

:class:`Tracer` wraps each entry point named in :data:`LAYERS` from the
outside -- module functions are replaced wherever a ``repro`` module
holds them, methods on every class that defines them -- so nothing
under ``src/`` is edited.  A span is ``[name, start, end, parent, op]``;
:func:`layer_totals` turns one op's spans into per-layer self time
(duration minus the part of it that child spans cover) and call counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

#: layer -> entry points, as ``module:function`` or ``module:Class.method``
#: (a method is wrapped on the class and every subclass overriding it)
LAYERS = {
    "apps.program": ("repro.apps.base:Application.program",),
    "core.analyze": ("repro.core.analyzer:analyze",),
    "partition.plan": ("repro.partition.base:Strategy.plan",),
    "partition.profiling": (
        "repro.partition.profiling:profile_kernel",
        "repro.partition.profiling:build_profile_table",
    ),
    "cache.fingerprint": (
        "repro.cache:device_fingerprint",
        "repro.cache:platform_fingerprint",
        "repro.cache:kernel_fingerprint",
    ),
    "runtime.graph": ("repro.runtime.graph:expand_program",),
    "runtime.dependence": ("repro.runtime.dependence:build_dependences",),
    "runtime.executor": ("repro.runtime.executor:RuntimeEngine.execute",),
    "sim.plan.compile": ("repro.sim.plan:compile_plan",),
    "sim.plan.evaluate": ("repro.sim.plan:PlanEvaluator.evaluate",),
    "bench.harness": (
        "repro.bench.harness:run_sweep",
        "repro.bench.harness:run_sweep_iter",
    ),
}

#: the root span of one op; its self time is the unattributed remainder
OP = "op"


class Tracer:
    """Records nested spans while installed; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent, self._op])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    @contextmanager
    def op(self, op_id: int):
        """Record one op's root span; yields the span."""
        self._op = op_id
        self.open(OP)
        try:
            yield self.spans[-1]
        finally:
            self.close()
            self._op = -1

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS`."""
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, _, qual = target.partition(":")
                module = importlib.import_module(module_name)
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    self._wrap_method(layer, getattr(module, cls_name), meth)
                else:
                    self._wrap_function(layer, getattr(module, qual))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap_function(self, layer: str, fn) -> None:
        wrapper = self._wrapper(layer, fn)
        # every module that imported the function by name holds its own
        # reference, so replace each of them
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def _wrap_method(self, layer: str, base: type, meth: str) -> None:
        todo, seen = [base], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            fn = cls.__dict__.get(meth)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                self._patch(cls, meth, self._wrapper(layer, fn))

    def _wrapper(self, layer: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                tracer.open(layer)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.close()
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close()
        return traced


def _covered(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``[start, end]``."""
    total, reach = 0.0, start
    for lo, hi in sorted(children):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_totals(spans: list[list]) -> dict[str, list]:
    """Per-layer ``[self_s, calls]`` of one op's spans (root included).

    ``spans`` holds one op's spans with ``parent`` indices into the same
    list (``-1`` for the root), in the order they were opened.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, list] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        own = (end - start) - _covered(start, end, children.get(index, []))
        entry = totals.setdefault(name, [0.0, 0])
        entry[0] += own
        entry[1] += 1
    return totals


def split_ops(spans: list[list]) -> dict[int, list[list]]:
    """Group a run's spans by op, re-indexing parents within each op."""
    by_op: dict[int, list[list]] = {}
    local: dict[int, int] = {}
    for index, (name, start, end, parent, op) in enumerate(spans):
        ops = by_op.setdefault(op, [])
        local[index] = len(ops)
        ops.append([name, start, end, local.get(parent, -1), op])
    return by_op
