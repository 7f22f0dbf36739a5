"""In-memory spans for the traced benchmark run.

A span records its name, start, end, parent span and operation id.  Spans
are opened only by the benchmark, around its own calls into the package's
public functions; nothing inside the package is instrumented.  Counts are
attached to the span that measured them.  Everything stays in memory until
:meth:`Tracer.dump` writes it out at the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "counts")

    def __init__(self, sid, name, start, parent, op):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.counts = {}

    def as_dict(self):
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "counts": self.counts,
        }


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    _null = nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, value):
        pass

    def begin_op(self, op_id):
        pass


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def begin_op(self, op_id):
        self.op = op_id

    @contextmanager
    def span(self, name):
        parent = self._stack[-1].sid if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), parent, self.op)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        """Add a count to the innermost open span."""
        counts = self._stack[-1].counts
        counts[name] = counts.get(name, 0) + value

    def self_times(self):
        """Span id -> duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        return [s.end - s.start - child_time[s.sid] for s in self.spans]

    def dump(self, path, summary):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"summary": summary, "spans": [s.as_dict() for s in self.spans]},
                fh,
                indent=1,
                sort_keys=True,
            )
