"""Tracing from outside the program: timed wrappers patched onto module
attributes, with a stack that splits every call's time into self time and
time spent in traced callees.

Coarse calls also leave a span (name, start, end, parent span, operation
id) in memory. Hot leaf calls (hundreds of thousands per solve) only add
to their name's counters, so tracing them costs two clock reads and a few
list operations per call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    """Per-name counters plus coarse spans, for one run.

    ``stats[name]`` is [calls, total_s, self_s, calls that reached a traced
    callee]; the last one tells, say, gain-cache misses from hits.
    """

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.op = None
        self._stack = []          # open calls: [start, time in traced callees]
        self._open_spans = []     # indices into self.spans
        self._patches = []

    def stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def _timer(self, name, span):
        """(enter, leave) closures that time one call under ``name``."""
        st, stack, spans, open_spans = self.stat(name), self._stack, self.spans, self._open_spans

        def enter():
            frame = [_clock(), 0.0]
            if span:
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(len(spans))
                spans.append([name, frame[0], 0.0, parent, self.op])
            stack.append(frame)
            return frame

        def leave(frame):
            end = _clock()
            stack.pop()
            dur = end - frame[0]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[1]
            if frame[1]:
                st[3] += 1
            if stack:
                stack[-1][1] += dur
            if span:
                spans[open_spans.pop()][2] = end

        return enter, leave

    @contextmanager
    def region(self, name):
        """A span around a block of the benchmark's own code."""
        enter, leave = self._timer(name, True)
        frame = enter()
        try:
            yield
        finally:
            leave(frame)

    def timed(self, name, fn, span=False):
        """``fn`` wrapped so each call is counted and timed under ``name``."""
        enter, leave = self._timer(name, span)

        def wrapper(*args, **kwargs):
            frame = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return wrapper

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr``; ``restore`` puts every original back."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
