"""Span tracer that wraps the package's public functions from outside.

Each target names a module attribute (or a class method) of ``regait``. The
wrapper records one span per call: the span's name, its start and end on
``time.perf_counter`` and the index of the enclosing span. A function that
another module imported by name is replaced there too, so calls through
``optimize.residual`` or ``ctslip.estimate_phases`` are seen as well. A
target the package no longer defines is listed in ``absent`` instead of
failing the run.

Spans stay in memory until ``save``; self time is a span's duration minus
the durations of its direct children (one thread, so children never
overlap).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # ------------------------------------------------------------ recording

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, on_result=None, on_args=None):
        """``fn`` wrapped so that each call records one span."""
        nid = self._id(name)
        start, end, parent, span_name = (self.span_start, self.span_end,
                                         self.span_parent, self.span_name)
        stack = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_args is not None:
                args = on_args(args)
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                out = on_result(out, start[idx])
            return out

        return wrapper

    # ------------------------------------------------------------- patching

    def wrap(self, target: str, name: str | None = None, on_result=None,
             on_args=None):
        """Replace ``module.attr`` or ``module.Class.attr`` by its traced form
        everywhere a loaded ``regait`` module binds it; spans are named
        ``name`` (default: ``target``)."""
        mod_name, _, attr = target.partition(".")
        owner = importlib.import_module(f"regait.{mod_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            self.absent.append(target)
            return
        wrapped = self.span(name or target, original, on_result, on_args)
        if path:  # a method: patch the class only
            self._patch(owner, leaf, wrapped)
            return
        for mname, module in list(sys.modules.items()):
            if mname != "regait" and not mname.startswith("regait."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapped)

    def wrap_returned(self, target: str, inner: str):
        """Trace ``target`` and also every closure it returns, as ``inner``."""
        self.wrap(target, on_result=lambda fn, _t0: self.span(inner, fn))

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # --------------------------------------------------------------- output

    def arrays(self):
        name = np.asarray(self.span_name, dtype=np.int32)
        start = np.asarray(self.span_start)
        end = np.asarray(self.span_end)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return name, start, dur, dur - child, parent

    def save(self, path: str) -> None:
        name, start, dur, self_time, parent = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), name=name,
                            start=start, duration=dur, self_time=self_time,
                            parent=parent)
