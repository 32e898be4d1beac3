"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent]``: ``parent`` is the index of
the span that was open when this one started, or -1 at the top.  The
recorder wraps functions from the outside, keeps every span in a list
and leaves writing them out to its owner, so tracing costs one list
append and two clock reads per call.  It assumes one thread, which is
what the benchmark runs (``--workers 1``).
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable


class Recorder:
    """Spans plus named counters for one traced workload process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Return ``fn`` recording one span per call.

        ``after(result, args, kwargs)`` runs once the span has closed,
        so the work it does to update counters is not charged to ``fn``.
        """
        spans, open_, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly on the recorder's one thread, so children never
    overlap.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, inclusive seconds and self seconds."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "inclusive": 0.0, "self": 0.0})
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = totals[name]
        entry["calls"] += 1
        entry["inclusive"] += end - start
        entry["self"] += own
    return dict(totals)
