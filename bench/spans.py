"""Span recording around the public functions of each symell layer.

A traced run replaces module attributes with timing wrappers, so every
call that goes through the module (``dispatch.evaluate``,
``quad_oracle.oracle_with_error``, a harness-internal ``sample_args``)
records a span.  Calls bound at import time are not seen: ``asym`` imports
the ``core`` functions by name, so core work inside an enclosure counts as
``asym`` self time.

Spans live in flat arrays in memory and are written out when the run ends.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (module, attribute) pairs wrapped in a traced run; the span name is
# "<layer>.<attribute>" with the layer the module's last dotted part
WRAPPED = (
    ("symell.dispatch", "evaluate"),
    ("symell.asym", "enclose"),
    ("symell.asym", "case_ratio"),
    ("symell.asym", "theta_recover"),
    ("symell.core", "rc"),
    ("symell.core", "rf"),
    ("symell.core", "rd"),
    ("symell.core", "rj"),
    ("symell.core", "rg"),
    ("symell.quadrature", "oracle_with_error"),
    ("symell.quadrature", "quad"),
    ("symell.harness", "sample_args"),
    ("symell.harness", "reference_value"),
    ("symell.harness", "write_report_json"),
    ("symell.harness", "write_report_csv"),
    ("symell.bounds", "bracket"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.errors: Counter = Counter()   # (span name, exception class name)
        self.current_request = 0
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Record ``fn(*args)`` as a span named ``name`` from the benchmark's side."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn):
        """``fn`` recording a span per call.  The span includes its own
        bookkeeping, so a parent's self time does not carry its children's
        tracing cost, and the clock is read first thing so that little of
        that cost falls outside every span."""
        nid = self._id(name)
        clock = time.perf_counter_ns
        names, t0s, t1s = self.name, self.t0, self.t1
        parents, requests, stack = self.parent, self.request, self._stack

        def wrapper(*args, **kwargs):
            t0 = clock()
            i = len(names)
            names.append(nid)
            t0s.append(t0)
            t1s.append(0)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.current_request)
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                stack.pop()
                t1s[i] = clock()

        return wrapper

    @contextmanager
    def installed(self):
        """Swap the wrappers into the symell modules for the duration."""
        saved = []
        try:
            for modname, attr in WRAPPED:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                layer = modname.rsplit(".", 1)[1]
                setattr(mod, attr, self.wrap(f"{layer}.{attr}", fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def frame(self):
        """Column arrays of all spans plus self time, in nanoseconds."""
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        t0 = np.frombuffer(self.t0, dtype=np.int64).copy()
        t1 = np.frombuffer(self.t1, dtype=np.int64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = t1 - t0
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": name, "t0": t0, "t1": t1, "parent": parent,
                "request": np.frombuffer(self.request, dtype=np.int32).copy(),
                "dur": dur, "self": dur - child}

    def save(self, path) -> None:
        f = self.frame()
        np.savez(path, names=np.array(self.names), **{k: f[k] for k in
                                                      ("name", "t0", "t1", "parent", "request")})


class Summary:
    """Per-name totals over a span frame: calls, inclusive and self nanoseconds."""

    def __init__(self, tracer: Tracer):
        f = tracer.frame()
        self.frame = f
        n = len(tracer.names)
        self.calls = np.bincount(f["name"], minlength=n)
        self.dur = np.bincount(f["name"], weights=f["dur"], minlength=n)
        self.self_ns = np.bincount(f["name"], weights=f["self"], minlength=n)
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        self.names = tracer.names
        self.errors = tracer.errors

    def _get(self, arr, name):
        i = self.ids.get(name)
        return 0.0 if i is None else float(arr[i])

    def count(self, name: str) -> float:
        return self._get(self.calls, name)

    def inclusive_s(self, name: str) -> float:
        return self._get(self.dur, name) * 1e-9

    def mean_us(self, name: str) -> float:
        n = self.count(name)
        return self._get(self.dur, name) * 1e-3 / n if n else 0.0

    def self_mean_us(self, name: str) -> float:
        n = self.count(name)
        return self._get(self.self_ns, name) * 1e-3 / n if n else 0.0

    def layer_self_s(self, layer: str) -> float:
        return sum(float(self.self_ns[i]) for i, nm in enumerate(self.names)
                   if nm.split(".", 1)[0] == layer) * 1e-9

    def layer_calls(self, layer: str) -> float:
        return sum(float(self.calls[i]) for i, nm in enumerate(self.names)
                   if nm.split(".", 1)[0] == layer)

    def root_s(self) -> float:
        f = self.frame
        return float(f["dur"][f["parent"] < 0].sum()) * 1e-9

    def child_count(self, name: str, parent_name: str) -> float:
        """Spans named ``name`` whose direct parent is named ``parent_name``."""
        i, p = self.ids.get(name), self.ids.get(parent_name)
        if i is None or p is None:
            return 0.0
        f = self.frame
        sel = (f["name"] == i) & (f["parent"] >= 0)
        return float((f["name"][f["parent"][sel]] == p).sum())
