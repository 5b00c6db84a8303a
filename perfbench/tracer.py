"""Per-layer tracing of kickedqubit from outside the program.

``Tracer.install`` replaces every public function of the seven modules
wherever a module looks it up by name (``analysis.rk4_evolve``,
``cli.scenario``, ``validation.rk4_propagator``, ``propagators.*`` reached
through the module object, ...) with a wrapper that records a span: name,
start, end and parent, kept in flat arrays.  Self time is a span's duration
minus the durations of its direct children.

Two hot spots are counted but not timed, since a timer per call would
distort them: the scalar envelope closure returned by ``evolve.envelope``
(about 1 us a call) and ``evolve._rk4_span``, the stepping kernel, which
reports its step count and how many of those steps lie outside every
``Pulse.window()`` of the sequence being integrated.
"""
from __future__ import annotations

import inspect
import math
import time
from array import array

import numpy as np

MODULES = ("su2", "pulses", "evolve", "propagators", "analysis", "validation", "cli")


class Tracer:
    """Spans and counts of one traced pass, recorded while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.envelope_evals = [0]
        self.steps = 0
        self.free_steps = 0
        self._windows: list[list[tuple[float, float]]] = []

    # -- recording -------------------------------------------------------

    def _span(self, fn, name: str):
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _counted_envelope(self, factory):
        cell = self.envelope_evals

        def envelope(pulses):
            v = factory(pulses)

            def counted(t):
                cell[0] += 1
                return v(t)

            return counted

        return envelope

    def _windowed(self, rk4_evolve):
        windows = self._windows

        def evolve(pulses, *args, **kwargs):
            spans = [p.window() for p in pulses]
            windows.append(_merged([(lo, hi) for lo, hi in spans if hi > lo]))
            try:
                return rk4_evolve(pulses, *args, **kwargs)
            finally:
                windows.pop()

        return evolve

    def _counted_steps(self, rk4_span):
        tracer = self

        def span(*args):
            t0, t1, n = args[-3:]  # (..., t0, t1, n): n uniform steps on [t0, t1]
            tracer.steps += n
            windows = tracer._windows[-1] if tracer._windows else []
            tracer.free_steps += n - _busy_steps(windows, t0, t1, n)
            return rk4_span(*args)

        return span

    # -- installation ----------------------------------------------------

    def install(self, package):
        """Instrument every lookup site; returns a function that undoes it."""
        evolve, pulses = package.evolve, package.pulses
        special = {
            id(pulses.envelope): self._span(self._counted_envelope(pulses.envelope), "pulses.envelope"),
            id(evolve.rk4_evolve): self._span(self._windowed(evolve.rk4_evolve), "evolve.rk4_evolve"),
        }
        kernel = getattr(evolve, "_rk4_span", None)
        if kernel is not None:
            special[id(kernel)] = self._counted_steps(kernel)
        replacement: dict[int, object] = dict(special)
        saved = []
        for module in (getattr(package, m) for m in MODULES):
            for attr, value in list(vars(module).items()):
                key = id(value)
                if key not in replacement:
                    if not (inspect.isfunction(value) and _traceable(value)):
                        continue
                    short = value.__module__.rsplit(".", 1)[-1]
                    replacement[key] = self._span(value, f"{short}.{value.__name__}")
                saved.append((module, attr, value))
                setattr(module, attr, replacement[key])

        def restore():
            for module, attr, value in saved:
                setattr(module, attr, value)

        return restore

    # -- reduction -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k)
        own = np.bincount(names, weights=duration - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def children_of(self, parent_prefix: str, child_name: str) -> int:
        """How many child_name spans have a parent whose name starts with parent_prefix."""
        if child_name not in self._ids:
            return 0
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        chosen = parent[(names == self._ids[child_name]) & (parent >= 0)]
        wanted = [i for i, name in enumerate(self.names) if name.startswith(parent_prefix)]
        return int(np.isin(names[chosen], wanted).sum())


def _traceable(fn) -> bool:
    return fn.__module__.startswith("kickedqubit.") and not fn.__name__.startswith("_")


def _merged(windows):
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(windows):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _busy_steps(windows, t0: float, t1: float, n: int) -> int:
    """Steps of a uniform n-step grid on [t0, t1] that overlap some window."""
    h = (t1 - t0) / n
    if not windows or h <= 0.0:
        return 0
    busy = 0
    last = -1
    for lo, hi in windows:
        k_min = max(0, math.floor((lo - t0) / h), last + 1)
        k_max = min(n - 1, math.ceil((hi - t0) / h) - 1)
        if k_max >= k_min:
            busy += k_max - k_min + 1
            last = k_max
    return busy
