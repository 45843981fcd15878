"""Spans kept in memory, registry deltas, and the statistics over them.

A span is (name, start, end, parent, op, items): ``parent`` is the index
of the enclosing span or -1, ``op`` the batch or update id it belongs to,
``items`` an optional count (keys re-answered, overlay prefixes...).
Spans are opened and closed by the benchmark around its own calls into
a layer; nothing inside the program is instrumented.  Self time is a
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Dict, List

from repro.obs import get_registry

_NAME, _START, _END, _PARENT, _OP, _ITEMS = range(6)


class Tracer:
    """Spans in memory; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self.origin = time.perf_counter()

    def open(self, name: str, op: int = 0) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, op, 0])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._open.pop()

    def add(self, name: str, start: float, end: float, parent: int,
            op: int = 0, items: int = 0) -> None:
        """Record a finished span (a replay measured after its parent)."""
        self.spans.append([name, start, end, parent, op, items])

    # -- reduction -----------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        return [s[_END] - s[_START] for s in self.spans if s[_NAME] == name]

    def items(self, name: str) -> List[int]:
        return [s[_ITEMS] for s in self.spans if s[_NAME] == name]

    def self_times(self, name: str) -> List[float]:
        """Duration minus direct children, for every span called ``name``."""
        children: Dict[int, float] = {}
        for span in self.spans:
            if span[_PARENT] >= 0:
                children[span[_PARENT]] = (children.get(span[_PARENT], 0.0)
                                           + span[_END] - span[_START])
        return [s[_END] - s[_START] - children.get(i, 0.0)
                for i, s in enumerate(self.spans) if s[_NAME] == name]

    def child_total(self, parent_name: str, name: str) -> float:
        """Summed duration of ``name`` spans whose parent is ``parent_name``."""
        return sum(s[_END] - s[_START] for s in self.spans
                   if s[_NAME] == name and s[_PARENT] >= 0
                   and self.spans[s[_PARENT]][_NAME] == parent_name)

    def write(self, path: str) -> None:
        """One JSON object per span, times in µs from the tracer's origin."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span[_NAME],
                    "start_us": round((span[_START] - self.origin) * 1e6, 3),
                    "end_us": round((span[_END] - self.origin) * 1e6, 3),
                    "parent": span[_PARENT], "op": span[_OP],
                    "items": span[_ITEMS],
                }) + "\n")


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class RegistryWindow:
    """Deltas of ``repro.obs`` registry metrics across the timed window."""

    def __init__(self) -> None:
        self.registry = get_registry()
        self._start = self._read()

    def _read(self) -> Dict[str, object]:
        state: Dict[str, object] = {}
        for name in self.registry.names():
            metric = self.registry.get(name)
            if metric.kind == "histogram":
                state[name] = (list(metric.counts), metric.sum, metric.count,
                               metric.bounds)
            else:
                state[name] = metric.value
        return state

    def close(self) -> None:
        self._end = self._read()

    def counter(self, name: str) -> float:
        return self._end.get(name, 0) - self._start.get(name, 0)

    def _hist(self, name: str):
        end = self._end.get(name)
        if end is None:
            return None
        start = self._start.get(name) or ([0] * len(end[0]), 0.0, 0, end[3])
        counts = [b - a for a, b in zip(start[0], end[0])]
        return counts, end[1] - start[1], end[2] - start[2], end[3]

    def hist_mean(self, name: str) -> float:
        delta = self._hist(name)
        if delta is None or not delta[2]:
            return 0.0
        return delta[1] / delta[2]

    def hist_quantile(self, name: str, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile of the window."""
        delta = self._hist(name)
        if delta is None or not delta[2]:
            return 0.0
        counts, _sum, count, bounds = delta
        target, cumulative = q * count, 0
        for bound, bucket in zip(bounds, counts):
            cumulative += bucket
            if cumulative >= target:
                return bound
        return bounds[-1]
