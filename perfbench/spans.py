"""Per-layer host self time, measured from outside the simulator's source.

:class:`SpanTracer` wraps every function and method defined in the
``repro.<layer>`` modules (module functions, methods, static and class
methods; properties and dunder methods other than ``__init__`` and
``__call__`` are left alone).  A wrapper records a span only when control
crosses into its layer from another one, so the spans sit at layer
boundaries: a call from ``core`` into ``ethernet`` opens an ``ethernet``
span, while ``ethernet`` calling itself passes straight through.  Every
call is still counted, so :meth:`calls` gives exact call counts such as
``host.memory.write`` (for a ``<resume>`` name, the resumes that entered
its layer).

Calling a generator function only creates the generator; its body runs
when the engine resumes the process.  So a wrapped generator function
returns a :class:`_GenProxy`, and each resume that reaches the generator
(directly or through ``yield from``) runs in a span of its layer: when a
``host`` generator returns into the ``apps`` code that delegated to it,
the rest of that resume is ``apps`` time again.  Generators that are not
module-level functions (closures, the benchmark's own processes) are
timed by the process: ``Process.__init__`` is wrapped to replace a raw
generator's bound ``send`` with one that spans each resume, attributed
to the innermost raw generator of its ``yield from`` chain.

Spans are kept in memory as four columns (name, start, end, parent) and
written out by :meth:`save` when the benchmark ends.  A span's self time
is its duration minus the durations of its child spans; a layer's self
time is the sum over its spans (:meth:`self_times`).

The tracer reads the clock and appends to arrays; it never touches
simulator state, so a traced run simulates exactly what an untraced one
does (the benchmark checks this by comparing digests).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array
from pathlib import Path

import numpy as np

__all__ = ["SpanTracer"]

# Name used for code that is not part of the simulator (the benchmark's
# own sender processes and glue).
HARNESS = "harness"

_WRAPPED_DUNDERS = ("__init__", "__call__")


def layer_of_module(modname: str):
    """``repro.core.connection`` -> ``core``; None outside ``repro.*``."""
    parts = modname.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    return parts[1]


class _GenProxy:
    """Stands in for a generator: every resume goes through ``step``, which
    runs it inside a span of the generator's layer.  ``yield from`` and the
    engine's processes drive it like the generator it wraps."""

    __slots__ = ("_gen", "_step")

    def __init__(self, gen, step) -> None:
        self._gen = gen
        self._step = step

    @property
    def __name__(self) -> str:
        return self._gen.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self._step(self._gen.send, None)

    def send(self, value):
        return self._step(self._gen.send, value)

    def throw(self, *exc):
        return self._step(self._gen.throw, *exc)

    def close(self) -> None:
        self._gen.close()


class SpanTracer:
    """Layer-boundary spans for one traced run (see module docstring)."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []  # name id -> "layer:qualname"
        self.name_layers: list[str] = []  # name id -> layer
        self._name_ids: dict[str, int] = {}
        self.calls_by_name: list[int] = []
        # Span columns; parent is a span index, -1 for a top-level span.
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        # Open spans: indices and their layers (sentinels at the bottom).
        self._stack = [-1]
        self._layers = [HARNESS]
        self._patches: list[tuple[object, str, object]] = []
        self._code_layers: dict[object, str] = {}
        self._file_layers: dict[str, str] = {}
        self._runner = self._make_runner()

    # -- names -------------------------------------------------------------

    def _name_id(self, layer: str, label: str) -> int:
        key = f"{layer}:{label}"
        nid = self._name_ids.get(key)
        if nid is None:
            nid = len(self.names)
            self._name_ids[key] = nid
            self.names.append(key)
            self.name_layers.append(layer)
            self.calls_by_name.append(0)
        return nid

    # -- wrappers ----------------------------------------------------------

    def _make_runner(self):
        """``run(nid, layer, fn, *args)``: call ``fn`` inside a span of
        ``layer`` unless that layer is already running (shared by the
        generator paths; plain functions inline the same steps)."""
        tracer = self
        calls = self.calls_by_name
        layers = self._layers
        stack = self._stack
        clock = time.perf_counter_ns
        ends = self.span_end
        names_append = self.span_name.append
        start_append = self.span_start.append
        parent_append = self.span_parent.append

        def run(nid, layer, fn, *args):
            if not tracer.active or layers[-1] == layer:
                return fn(*args)
            calls[nid] += 1
            index = len(ends)
            names_append(nid)
            parent_append(stack[-1])
            ends.append(0)
            stack.append(index)
            layers.append(layer)
            start_append(clock())
            try:
                return fn(*args)
            finally:
                ends[index] = clock()
                stack.pop()
                layers.pop()

        return run

    def _make_wrapper(self, func, layer: str, label: str):
        if inspect.isgeneratorfunction(func):
            return self._make_gen_wrapper(func, layer, label)
        nid = self._name_id(layer, label)
        tracer = self
        calls = self.calls_by_name
        layers = self._layers
        stack = self._stack
        clock = time.perf_counter_ns
        names_append = self.span_name.append
        start_append = self.span_start.append
        end_append = self.span_end.append
        parent_append = self.span_parent.append
        ends = self.span_end

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            calls[nid] += 1
            if layers[-1] == layer:
                return func(*args, **kwargs)
            index = len(ends)
            names_append(nid)
            parent_append(stack[-1])
            end_append(0)
            stack.append(index)
            layers.append(layer)
            start_append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                layers.pop()

        return wrapper

    def _make_gen_wrapper(self, func, layer: str, label: str):
        """Generator functions return a :class:`_GenProxy`, so each resume
        that reaches this generator runs in a span of its layer."""
        nid = self._name_id(layer, f"{label}<resume>")
        run = self._runner

        def step(method, *args):
            return run(nid, layer, method, *args)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return _GenProxy(func(*args, **kwargs), step)

        return wrapper

    def _layer_of_code(self, code) -> str:
        layer = self._code_layers.get(code)
        if layer is None:
            layer = self._file_layers.get(code.co_filename, HARNESS)
            self._code_layers[code] = layer
        return layer

    def _make_send(self, gen):
        """A replacement for a raw generator's ``send`` that spans each
        resume in the layer of the innermost raw generator of its
        ``yield from`` chain (closures and the benchmark's own processes;
        module-level generator functions are proxied instead)."""
        send = gen.send
        run = self._runner
        layer_of_code = self._layer_of_code
        name_id = self._name_id
        resume_ids: dict[object, int] = {}

        def traced_send(value):
            inner = gen
            while True:
                sub = inner.gi_yieldfrom
                if sub is None or not hasattr(sub, "gi_yieldfrom"):
                    break
                inner = sub
            code = inner.gi_code
            nid = resume_ids.get(code)
            if nid is None:
                nid = resume_ids[code] = name_id(
                    layer_of_code(code), f"{code.co_qualname}<resume>"
                )
            return run(nid, self.name_layers[nid], send, value)

        return traced_send

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _WRAPPED_DUNDERS:
                continue
            label = f"{cls.__qualname__}.{attr}"
            if isinstance(value, (staticmethod, classmethod)):
                if isinstance(value.__func__, types.FunctionType):
                    self._patch(cls, attr, type(value)(
                        self._make_wrapper(value.__func__, layer, label)))
            elif isinstance(value, types.FunctionType):
                self._patch(cls, attr, self._make_wrapper(value, layer, label))

    def install(self) -> None:
        """Wrap every layer's functions and methods (idempotent per run).

        Must run before the traced cluster is built: objects that bind a
        method once at construction (the engine's processes, for one)
        bind whatever the class holds at that moment.
        """
        from repro.sim.core import Process

        modules = [
            (name, mod)
            for name, mod in sorted(sys.modules.items())
            if mod is not None and layer_of_module(name) is not None
        ]
        for name, mod in modules:
            path = getattr(mod, "__file__", None)
            if path:
                self._file_layers[str(Path(path))] = layer_of_module(name)
        replaced: dict[int, object] = {}
        for name, mod in modules:
            layer = layer_of_module(name)
            for attr, value in list(vars(mod).items()):
                if getattr(value, "__module__", None) != name:
                    continue
                if isinstance(value, type):
                    self._wrap_class(value, layer)
                elif isinstance(value, types.FunctionType):
                    replaced[id(value)] = self._make_wrapper(
                        value, layer, value.__qualname__)
        # Swap module-level functions everywhere they were imported by name.
        holders = [mod for _, mod in modules] + [
            mod for name, mod in sys.modules.items()
            if name.startswith("perfbench") and mod is not None
        ]
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

        original_init = Process.__init__
        tracer = self

        def process_init(proc, sim, gen, name=""):
            original_init(proc, sim, gen, name)
            if isinstance(gen, types.GeneratorType):
                proc._send = tracer._make_send(gen)

        functools.update_wrapper(process_init, original_init)
        self._patch(Process, "__init__", process_init)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        self.active = False
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_end)

    def _columns(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.int64)
        end = np.frombuffer(self.span_end, dtype=np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        return name, start, end, parent

    def self_ns_by_name(self) -> np.ndarray:
        """Self time per span name id, in host nanoseconds."""
        name, start, end, parent = self._columns()
        duration = end - start
        child = np.zeros(len(duration), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return np.bincount(
            name, weights=duration - child, minlength=len(self.names)
        )

    def self_times(self) -> dict[str, float]:
        """Self time per layer, in host seconds."""
        out: dict[str, float] = {}
        for nid, ns in enumerate(self.self_ns_by_name()):
            layer = self.name_layers[nid]
            out[layer] = out.get(layer, 0.0) + float(ns) / 1e9
        return out

    def calls(self, label: str) -> int:
        """Calls of one wrapped function, e.g. ``host:VirtualMemory.write``."""
        nid = self._name_ids.get(label)
        return 0 if nid is None else self.calls_by_name[nid]

    def top_names(self, count: int = 12) -> list[tuple[str, float, int]]:
        """The ``count`` span names with the most self time."""
        by_name = self.self_ns_by_name()
        order = np.argsort(by_name)[::-1][:count]
        return [
            (self.names[i], float(by_name[i]) / 1e9, self.calls_by_name[i])
            for i in order
            if by_name[i] > 0
        ]

    def save(self, path: Path) -> None:
        """Write every span plus the name table (compressed ``.npz``)."""
        name, start, end, parent = self._columns()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            name=name,
            start_ns=start - (start.min() if len(start) else 0),
            end_ns=end - (start.min() if len(start) else 0),
            parent=parent,
            names=np.array(self.names),
            calls=np.array(self.calls_by_name, dtype=np.int64),
        )
