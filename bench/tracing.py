"""In-memory spans and call counters around module bindings.

A Tracer replaces module attributes with timing wrappers while it is
installed and puts the originals back afterwards, so the program under
test is never edited.  Calls that happen a few thousand times per run
become spans (name, start, end, parent, run id, attributes).  Calls that
happen hundreds of thousands of times are counted instead: their count
and total time are aggregated per (name, parent span, run id), which
keeps memory flat and the written trace small.  A span's self time is
its duration minus the part of it covered by child spans and counted
child calls.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.counted = {}  # (name, parent, run) -> [calls, seconds]
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._lock = threading.Lock()
        self._patched = []

    # -- parent tracking ------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if main else []
        return stack

    def _parent(self, stack):
        # a worker thread started by a traced call has an empty stack of
        # its own; its calls belong to the main thread's innermost span
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    # -- recording ------------------------------------------------------

    @contextmanager
    def span(self, name, **attrs):
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": self._parent(stack),
            "run": self.run_id,
            "attrs": attrs,
        }
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def spanned(self, name, note=None):
        """Wrapper factory: one span per call.

        name is a string or a function of (args, kwargs); note, if given,
        maps (args, kwargs, result) to attributes stored on the span.
        """

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                label = name(args, kwargs) if callable(name) else name
                with self.span(label) as record:
                    result = fn(*args, **kwargs)
                if note is not None:
                    record["attrs"].update(note(args, kwargs, result))
                return result

            return wrapper

        return make

    def counter(self, name):
        """Wrapper factory: count calls and their total time, no spans."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = self._stack()
                key = (name, self._parent(stack), self.run_id)
                # a counted call inside another one is attributed to it by
                # name, so it is never subtracted twice from a span
                stack.append(name)
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    stack.pop()
                    with self._lock:
                        entry = self.counted.setdefault(key, [0, 0.0])
                        entry[0] += 1
                        entry[1] += elapsed

            return wrapper

        return make

    # -- installing wrappers ---------------------------------------------

    def wrap(self, module, attr, make):
        """Replace module.attr by make(module.attr) until restore()."""
        if any(m is module and a == attr for m, a, _ in self._patched):
            raise ValueError(f"{module.__name__}.{attr} is already wrapped")
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        self._patched.append((module, attr, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self, install):
        """Run install(self) to wrap bindings; restore them on exit."""
        try:
            install(self)
            yield self
        finally:
            self.restore()

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Span id -> duration minus time covered by children."""
        children = {}
        for span in self.spans:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
        counted = {}
        for (_, parent, _), (_, seconds) in self.counted.items():
            counted[parent] = counted.get(parent, 0.0) + seconds
        out = {}
        for span in self.spans:
            covered = union_length(
                (max(s, span["start"]), min(e, span["end"]))
                for s, e in children.get(span["id"], ())
            )
            duration = span["end"] - span["start"]
            out[span["id"]] = max(0.0, duration - covered - counted.get(span["id"], 0.0))
        return out

    def dump(self):
        """The trace as JSON-ready data, each span with its self time."""
        self_time = self.self_times()
        return {
            "spans": [dict(s, self_s=self_time[s["id"]]) for s in self.spans],
            "counted": [
                {"name": n, "parent": p, "run": r, "calls": c, "seconds": s}
                for (n, p, r), (c, s) in self.counted.items()
            ],
        }


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
