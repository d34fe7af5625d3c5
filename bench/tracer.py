"""In-memory span tracer that wraps public entry points from outside.

A span records a name, start, end and the id of the span that caused it.
Spans stay in memory; the harness writes them out when the run ends.  Hot
calls (thousands per second) are not spans: they add to a per-name count and
summed time, and their time is charged to the enclosing span so that self
times stay additive.

Self time is a span's duration minus the durations of its child spans and
minus the hot calls made directly inside it, so that

    sum(self times) + sum(hot call time) == root duration.

The tracer keeps one span stack and so traces a single thread; every
benchmark workload runs its replicas with threads = 1.  A span opened on
another thread raises.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    hot_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start

    @property
    def module(self):
        return self.name.split(".", 1)[0]

    def to_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "hot_s": self.hot_s,
                "attrs": self.attrs}


@dataclass
class HotCounter:
    count: int = 0
    total_s: float = 0.0
    samples: list = field(default_factory=list)


class Tracer:
    """Collects spans and hot-call counters; patches module attributes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.hot = {}
        self._ids = itertools.count(1)
        self._stack = []
        self._thread = threading.get_ident()
        self._patches = []

    @contextmanager
    def span(self, name, **attrs):
        if threading.get_ident() != self._thread:
            raise RuntimeError(f"span {name} opened on a second thread")
        parent = self._stack[-1].id if self._stack else None
        sp = Span(next(self._ids), name, self.clock(), parent=parent,
                  attrs=attrs)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()
            self.spans.append(sp)

    def add_hot(self, name, seconds):
        c = self.hot.get(name)
        if c is None:
            c = self.hot[name] = HotCounter()
        c.count += 1
        c.total_s += seconds
        c.samples.append(seconds)
        if self._stack:
            self._stack[-1].hot_s += seconds

    # -- patching -------------------------------------------------------------

    def wrap(self, owner, attr, name, hot=False, prepare=None, describe=None):
        """Replaces owner.attr by a traced wrapper until uninstall().

        prepare(args, kwargs) -> (args, kwargs, state) runs before the call;
        describe(span, args, kwargs, result, state) fills span attributes
        after it, outside the span's measured interval.
        """
        orig = getattr(owner, attr)
        if hot:
            clock = self.clock

            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.add_hot(name, clock() - t0)
        else:
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                state = None
                if prepare is not None:
                    args, kwargs, state = prepare(args, kwargs)
                with self.span(name) as sp:
                    result = orig(*args, **kwargs)
                if describe is not None:
                    describe(sp, args, kwargs, result, state)
                return result
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def to_dict(self):
        return {"spans": [s.to_dict() for s in self.spans],
                "hot": {k: {"count": c.count, "total_s": c.total_s}
                        for k, c in self.hot.items()}}


# ---------------------------------------------------------------------------
# span-tree analysis


def subtree(spans, root_id):
    """The spans descending from root_id, root included."""
    children = {}
    by_id = {}
    for s in spans:
        by_id[s.id] = s
        children.setdefault(s.parent, []).append(s)
    out = []
    todo = [by_id[root_id]]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children.get(s.id, ()))
    return out


def self_times(spans):
    """Self time per span id: duration minus child durations and hot calls."""
    child_s = {}
    for s in spans:
        child_s[s.parent] = child_s.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_s.get(s.id, 0.0) - s.hot_s for s in spans}


def module_self_times(spans, hot):
    """Self time summed per module (the span name's first component).

    Hot counters add their summed time to their own module.
    """
    st = self_times(spans)
    per = {}
    for s in spans:
        per[s.module] = per.get(s.module, 0.0) + st[s.id]
    for name, c in hot.items():
        mod = name.split(".", 1)[0]
        per[mod] = per.get(mod, 0.0) + c.total_s
    return per


def hot_call_overhead_s(n=20000):
    """Seconds one hot-counter wrapper adds per call, measured on a no-op."""
    class Box:
        @staticmethod
        def f(x):
            return x

    t = Tracer()
    t0 = time.perf_counter()
    for i in range(n):
        Box.f(i)
    bare = time.perf_counter() - t0
    t.wrap(Box, "f", "harness.noop", hot=True)
    try:
        t0 = time.perf_counter()
        for i in range(n):
            Box.f(i)
        wrapped = time.perf_counter() - t0
    finally:
        t.uninstall()
    return max(wrapped - bare, 0.0) / n
