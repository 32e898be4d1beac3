"""Deterministic chunked evaluation.

Work is split into fixed consecutive slices, each slice is computed by
the same pure function in the calling thread, and results are returned
in slice order.  There is no thread pool: the two routes that use this
gained only 1.1-1.2x from two workers.  The module keeps its name and
signature because the benchmark's tracing hook (``bench/child.py``)
counts calls and chunks through ``_parallel.run_ordered``.
"""

from __future__ import annotations

from typing import Callable, TypeVar

T = TypeVar("T")


def run_ordered(fn: Callable[[slice], T], n_items: int, chunk_size: int) -> list[T]:
    """Evaluate ``fn`` over consecutive slices of range(n_items), in order."""
    if n_items < 0 or chunk_size < 1:
        raise ValueError("need n_items >= 0 and chunk_size >= 1")
    return [fn(slice(lo, min(lo + chunk_size, n_items))) for lo in range(0, n_items, chunk_size)]
