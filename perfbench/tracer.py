"""In-memory span tracer for the benchmark's traced runs.

A span wraps one call from the benchmark into a library function. It
records the span's name, start, end, parent span and the item it belongs
to, plus the RuntimeWarnings raised inside it. Spans stay in memory until
the run ends and `write` dumps them as JSON.

Untraced runs use `NULL`, whose `span` returns a shared no-op context, so
the pipeline code is the same in both modes.
"""

from __future__ import annotations

import contextlib
import json
import time
import warnings
from collections import defaultdict


class Span:
    __slots__ = ("name", "item", "parent", "start", "end", "warnings")

    def __init__(self, name, item, parent, start):
        self.name = name
        self.item = item
        self.parent = parent
        self.start = start
        self.end = None
        self.warnings = 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "item": self.item,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "warnings": self.warnings,
        }


class Tracer:
    """Collects spans; `spans[i].parent` is the index of the enclosing span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, item=None):
        parent = self._open[-1] if self._open else None
        rec = Span(name, item, parent, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                yield rec
            rec.warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def write(self, path, **header) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": [s.as_dict() for s in self.spans]}, fh)
            fh.write("\n")


class _NullTracer:
    _ctx = contextlib.nullcontext()

    def span(self, name: str, item=None):
        return self._ctx


NULL = _NullTracer()


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed self time and warnings caught."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        rec = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "warnings": 0})
        rec["calls"] += 1
        rec["self_s"] += own
        rec["warnings"] += s.warnings
    return out
