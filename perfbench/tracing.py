"""Layer spans recorded from outside the program, and the per-layer numbers
derived from them.

A ``Tracer`` replaces a function where a caller binds it (a module attribute
such as ``experiments.run_batch``, or a method on a class) with a wrapper that
records one span per call: name, parent span, start and end.  Spans stay in
memory and are written out once, when the traced process ends.

Functions called per loop iteration or per trial are aggregated instead:
the engine calls ``rng.uniforms_at`` twice per iteration (330k calls in one
coin-search run) and the records workload resolves 40k targets, so a span per
call would cost more than many of the calls.  Their calls, units of work
(draws) and time are added to the innermost open span of the calling thread.

Pool workers start with an empty span stack; their outermost spans hang under
the span open in the thread that created the tracer, which is where
``run_experiment`` waits for its chunks.
"""

from __future__ import annotations

import json
import threading
import time

# span record fields; INLINE maps an aggregated name to [calls, units, ns]
NAME, PARENT, T0, T1, INLINE, CPU, ATTRS = range(7)


def _new_span(name, parent):
    return [name, parent, 0, 0, {}, None, None]


class Tracer:
    def __init__(self):
        self.spans = []
        self._main = []
        self._local = threading.local()
        self._local.stack = self._main
        self._patches = []

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, owner, attr, name, on_result=None, cpu=False):
        """Trace calls of owner.attr under span name.

        on_result(span, args, kwargs, result) returns a dict of counts taken
        from the call's arguments, result and aggregated children; cpu=True
        also records process CPU time across the call.
        """
        fn = getattr(owner, attr)
        spans, main, stack_of = self.spans, self._main, self._stack
        now, cpu_now = time.perf_counter_ns, time.process_time_ns

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (main[-1] if main else None)
            span = _new_span(name, parent)
            spans.append(span)
            stack.append(span)
            c0 = cpu_now() if cpu else 0
            span[T0] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[T1] = now()
                if cpu:
                    span[CPU] = cpu_now() - c0
                stack.pop()
            if on_result is not None:
                span[ATTRS] = on_result(span, args, kwargs, result)
            return result

        self._patch(owner, attr, fn, traced)

    def wrap_inline(self, owner, attr, name, units=None):
        """Aggregate owner.attr calls onto the enclosing span; units(args)
        gives the work per call (rng draws), else 0."""
        fn = getattr(owner, attr)
        stack_of, now = self._stack, time.perf_counter_ns

        def traced(*args):
            t0 = now()
            out = fn(*args)
            dt = now() - t0
            stack = stack_of()
            if stack:
                inline = stack[-1][INLINE]
                acc = inline.get(name)
                if acc is None:
                    acc = inline[name] = [0, 0, 0]
                acc[0] += 1
                acc[1] += units(args) if units else 0
                acc[2] += dt
            return out

        self._patch(owner, attr, fn, traced)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(getattr(owner, attr) is original for owner, attr, original in self._patches)
        self._patches.clear()
        return ok

    def dump(self, path, **extra):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [s[NAME], None if s[PARENT] is None else ids[id(s[PARENT])], s[T0], s[T1], s[INLINE], s[CPU], s[ATTRS]]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, **extra}, fh)


def _covered_ns(intervals):
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def empty_totals():
    return {"calls": 0, "units": 0, "total_ns": 0, "self_ns": 0, "cpu_ns": 0, "attrs": {}}


def layer_totals(spans):
    """Per span or aggregated name: calls, units, total and self nanoseconds,
    CPU nanoseconds and summed attrs.

    Self time is the span's duration minus the part of it that child spans
    cover (children in pool threads overlap, so their union is taken) minus
    the time of the calls aggregated onto it.  Spans in different threads
    overlap, so a layer's self time is summed thread time.
    """
    children = [[] for _ in spans]
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    out = {}
    for s, kids in zip(spans, children):
        dur = s[T1] - s[T0]
        covered = _covered_ns((max(k[T0], s[T0]), min(k[T1], s[T1])) for k in kids)
        agg = out.setdefault(s[NAME], empty_totals())
        agg["calls"] += 1
        agg["total_ns"] += dur
        agg["self_ns"] += dur - covered - sum(ns for _, _, ns in s[INLINE].values())
        agg["cpu_ns"] += s[CPU] or 0
        for key, val in (s[ATTRS] or {}).items():
            agg["attrs"][key] = agg["attrs"].get(key, 0) + val
        for name, (calls, units, ns) in s[INLINE].items():
            inl = out.setdefault(name, empty_totals())
            inl["calls"] += calls
            inl["units"] += units
            inl["total_ns"] += ns
            inl["self_ns"] += ns
    return out
