"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces a library function in the namespace where its caller
looks it up (``montecarlo.statistic``, ``asymptotics.gamma_joint_expectation``
...), records one span per call, and restores every patch on ``uninstall``.
Spans are plain tuples kept in a list until the run ends; counts that must be
exact are kept under a lock because the Monte Carlo pool calls in from two
threads.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        # (span id, parent id, name, start, end, thread CPU seconds, size,
        #  error type or None)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, k: int = 1):
        with self._lock:
            self.counts[key] += k

    def call(self, name: str, fn, args=(), kwargs=None, size=None):
        """Run fn(*args, **kwargs) inside a span.

        ``size(args, result)`` gives the work the call did (elements, points,
        observations).  A span opened on a pool thread with nothing open on
        that thread is parented to the innermost span open on the main
        thread, which is the study that is waiting for the pool.
        """
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = 0
        sid = next(self._ids)
        stack.append(sid)
        result, error = None, None
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            return result
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = time.perf_counter()
            cpu = time.thread_time() - c0
            stack.pop()
            n = size(args, result) if size is not None and error is None else None
            self.spans.append((sid, parent, name, t0, t1, cpu, n, error))

    def wrap(self, owner, attr: str, name, size=None, after=None):
        """Patch owner.attr with a span-recording wrapper.

        ``name`` may be a callable of the call's args.  ``after(result)``
        runs on each successful result (used to wrap objects the call
        builds).  A missing attribute is skipped, so a refactored library
        leaves that layer's metrics at zero instead of failing the run.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            result = self.call(label, fn, args, kwargs, size)
            if after is not None:
                result = after(result)
            return result

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        object.__setattr__(owner, attr, value)

    def wrap_field(self, obj, attr: str, name: str, size=None):
        """Wrap a callable field of a (possibly frozen) dataclass instance."""
        fn = getattr(obj, attr, None)
        if fn is None or getattr(fn, "_traced", False):
            return

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, size)

        wrapper._traced = True
        self.patch(obj, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            object.__setattr__(owner, attr, value)

    def reset(self):
        self.spans = []
        self.counts = Counter()

    # -- analysis ----------------------------------------------------------

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans, dict(self.counts))


def write_spans(path, spans):
    """Write spans as gzipped JSON lines."""
    with gzip.open(path, "wt") as fh:
        for sid, parent, name, t0, t1, cpu, n, err in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": t0, "end": t1, "cpu": cpu,
                                 "size": n, "error": err}) + "\n")


class SpanSummary:
    """Per-name totals and self times over one set of spans."""

    def __init__(self, spans, counts):
        self.counts = counts
        self.calls = Counter()
        self.total = defaultdict(float)
        self.cpu = defaultdict(float)
        self.size = defaultdict(int)
        self.errors = Counter()
        children = defaultdict(list)
        for sid, parent, name, t0, t1, cpu, n, err in spans:
            self.calls[name] += 1
            self.total[name] += t1 - t0
            self.cpu[name] += cpu
            if n is not None:
                self.size[name] += n
            if err is not None:
                self.errors[(name, err)] += 1
            children[parent].append((t0, t1))
        self.self_time = defaultdict(float)
        for sid, parent, name, t0, t1, cpu, n, err in spans:
            covered = _union_within(children.get(sid, ()), t0, t1)
            self.self_time[name] += (t1 - t0) - covered

    def ns_per(self, name: str) -> float:
        """Inclusive thread CPU nanoseconds per unit of recorded size (or per
        call).  CPU rather than wall time, because a pool thread's span also
        lasts while it waits for the interpreter lock."""
        units = self.size[name] or self.calls[name]
        return 1e9 * self.cpu[name] / units if units else 0.0


def _union_within(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]; children on two
    pool threads overlap in time, so their durations cannot simply be
    summed."""
    covered, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            covered += b - a
            end = b
    return covered
