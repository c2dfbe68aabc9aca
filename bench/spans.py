"""In-memory spans and counters for the benchmark's traced run.

A span records name, start, end, parent span and request id.  Spans are kept
in memory, written out once at the end, and reduced to per-layer self time:
a span's duration minus the time its child spans cover.  The untraced run
passes a ``NullTracer`` through the same code, so both runs execute the same
calls.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracer stand-in for the untraced run: records nothing."""

    rid = None

    def span(self, name: str):
        return _NULL_SPAN

    def count(self, name: str, n: float = 1) -> None:
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, rid]
        self.counts: dict[str, float] = defaultdict(float)
        self.rid = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, 0, 0, parent, self.rid]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def self_times_ns(self) -> dict[str, list[int]]:
        """Span name -> self times in ns, one entry per span."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, list[int]] = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name].append(end - start - covered[i])
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "rid": rid}) + "\n")


def median_self(self_times: dict[str, list[int]], span: str, scale_ns: float) -> float:
    """Median self time of a span in units of scale_ns; 0.0 if it never ran."""
    xs = self_times.get(span)
    return statistics.median(xs) / scale_ns if xs else 0.0
