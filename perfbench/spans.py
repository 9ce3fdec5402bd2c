"""In-memory span recorder for the traced benchmark run.

A span is one timed call at a layer boundary: name, start, end, the id
of the span that was open on the same thread when it started (its
parent), and a group id shared by every span of one sweep or job.
Spans stay in memory and are written once, as Chrome trace-event JSON
(the format ``repro trace`` already emits), when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("span_id", "parent", "name", "group", "start", "end",
                 "tid", "args")

    def __init__(self, span_id, parent, name, group, start, tid):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.group = group
        self.start = start
        self.end = start
        self.tid = tid
        self.args = {}

    @property
    def duration(self):
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any number of threads."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, group=None):
        """Time the ``with`` body as a child of this thread's open span.

        ``group`` defaults to the parent's group, so one id set at the
        top of a sweep or job reaches every span beneath it.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if group is None and parent is not None:
            group = parent.group
        span = Span(next(self._ids), parent.span_id if parent else None,
                    name, group, perf_counter(), threading.get_ident())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)

    def record(self, name, start, end, group=None):
        """Add a finished span measured elsewhere (e.g. across threads)."""
        span = Span(next(self._ids), None, name, group, start,
                    threading.get_ident())
        span.end = end
        self.spans.append(span)
        return span


def covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(span, children):
    """The span's duration minus the part its children cover."""
    inside = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - covered(inside)


def children_index(spans):
    """``{parent span id: [child spans]}``."""
    index = {}
    for span in spans:
        if span.parent is not None:
            index.setdefault(span.parent, []).append(span)
    return index


def chrome_trace(spans):
    """The spans as a Chrome trace-event object (Perfetto opens it)."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(s.start for s in spans)
    tids = {}
    events = []
    for s in sorted(spans, key=lambda s: s.start):
        tid = tids.setdefault(s.tid, len(tids))
        events.append({
            "name": s.name,
            "ph": "X",
            "ts": (s.start - t0) * 1e6,
            "dur": s.duration * 1e6,
            "pid": 0,
            "tid": tid,
            "args": {"id": s.span_id, "parent": s.parent,
                     "group": s.group, **s.args},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans, path):
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans), fh)
