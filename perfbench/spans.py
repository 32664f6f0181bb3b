"""Span tracing of the ortho7 layers, installed from outside the package.

The package binds many functions by name (``from .poly import
apply_transform``), so a layer function is patched at every binding that
holds it in any loaded ``ortho7`` module, not only where it is defined.
``Tracer.uninstall`` restores every binding.

Three kinds of wrapper:

  span       one record per call: name, start, end, parent, thread and
             self time (duration minus the time of its direct children);
  aggregate  hot leaf calls (hundreds of thousands per pass) keep only a
             call count and total/self time, not one record per call;
  generator  a generator function; each ``next`` is timed as one
             aggregated call, so the consumer's work between items is not
             charged to the producer.

Each thread keeps its own call stack, aggregates and counters, merged when
read, so the hot path takes no lock. A call made on a worker thread whose
stack is empty takes as parent the innermost open span of the installing
thread (the span that started the pool); it is not subtracted from that
parent's self time, since the parent only waits for it.
"""

from __future__ import annotations

import importlib
import pkgutil
import threading
import time
from dataclasses import dataclass
from typing import Callable


class _Frame:
    __slots__ = ("name", "start", "span_id", "parent_id", "context", "child_s")

    def __init__(self, name, start, span_id, parent_id):
        self.name = name
        self.start = start
        self.span_id = span_id      # None for aggregate and generator frames
        self.parent_id = parent_id
        # innermost span open at or below this frame: the parent of calls
        # made inside it
        self.context = parent_id if span_id is None else span_id
        self.child_s = 0.0


class _ThreadState:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.aggs: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}


@dataclass
class Layer:
    """One traced function: `module.func`, its wrapper kind, and an optional
    hook ``hook(tracer, args, kwargs, result)`` that updates counters."""

    module: str
    func: str
    kind: str = "span"
    hook: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.func}"


class Tracer:
    def __init__(self, layers: list[Layer]):
        self.layers = layers
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._main = self._state()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Patch every binding of every layer function in `package`'s
        modules. Layers the package no longer has are listed in `missing`."""
        self._main = self._state()
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)]
        by_name = {m.__name__: m for m in modules}
        self.missing = []
        for layer in self.layers:
            home = by_name.get(f"{package.__name__}.{layer.module}")
            orig = getattr(home, layer.func, None)
            if orig is None:
                self.missing.append(layer.name)
                continue
            wrapped = self._wrap(layer, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- recording ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def _enter(self, st: _ThreadState, name: str, as_span: bool) -> _Frame:
        stack = st.stack or self._main.stack
        parent_id = stack[-1].context if stack else None
        span_id = None
        if as_span:
            with self._lock:
                span_id = len(self.spans)
                self.spans.append({})  # reserve the id; filled on exit
        frame = _Frame(name, time.perf_counter(), span_id, parent_id)
        st.stack.append(frame)
        return frame

    def _exit(self, st: _ThreadState, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = st.stack
        stack.pop()
        dur = end - frame.start
        self_s = dur - frame.child_s
        outermost = True
        for f in stack:
            if f.name == frame.name:
                outermost = False
                break
        if stack:
            stack[-1].child_s += dur
        if frame.span_id is not None:
            self.spans[frame.span_id] = {
                "id": frame.span_id, "name": frame.name,
                "start": frame.start - self._t0, "end": end - self._t0,
                "parent": frame.parent_id, "thread": threading.get_ident(),
                "self": self_s, "outermost": outermost}
            return
        agg = st.aggs.get(frame.name)
        if agg is None:
            agg = st.aggs[frame.name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[2] += self_s
        if outermost:
            agg[1] += dur

    def count(self, name: str, value: float) -> None:
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + value

    def set(self, name: str, value: float) -> None:
        self._state().counters[name] = value

    def _wrap(self, layer: Layer, fn):
        tracer, name, hook = self, layer.name, layer.hook

        if layer.kind == "generator":
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    st = tracer._state()
                    frame = tracer._enter(st, name, False)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(st, frame)
                    if hook:
                        hook(tracer, args, kwargs, item)
                    yield item
        else:
            as_span = layer.kind == "span"

            def wrapper(*args, **kwargs):
                st = tracer._state()
                frame = tracer._enter(st, name, as_span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(st, frame)
                if hook:
                    hook(tracer, args, kwargs, result)
                return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- derived figures ----------------------------------------------------

    def aggregates(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for st in self._states:
            for name, (calls, total_s, self_s) in st.aggs.items():
                a = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                a["calls"] += calls
                a["total_s"] += total_s
                a["self_s"] += self_s
        return out

    def counters(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for st in self._states:
            for name, v in st.counters.items():
                out[name] = out.get(name, 0) + v
        return out

    def total_s(self, name: str) -> float:
        """Inclusive time of `name`, counting only calls not nested in
        another call of the same name."""
        aggs = self.aggregates()
        if name in aggs:
            return aggs[name]["total_s"]
        return sum(s["end"] - s["start"] for s in self.spans
                   if s.get("name") == name and s["outermost"])

    def self_s(self, name: str) -> float:
        aggs = self.aggregates()
        if name in aggs:
            return aggs[name]["self_s"]
        return sum(s["self"] for s in self.spans if s.get("name") == name)

    def calls(self, name: str) -> int:
        aggs = self.aggregates()
        if name in aggs:
            return aggs[name]["calls"]
        return sum(1 for s in self.spans if s.get("name") == name)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": dict(sorted(self.aggregates().items())),
            "counters": dict(sorted(self.counters().items())),
            "missing_layers": self.missing,
        }
