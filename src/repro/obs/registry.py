"""The process-wide metrics registry and its exporters.

One ``MetricsRegistry`` per process is the expected deployment (the
module-level default returned by :func:`get_registry`); engines, FIBs
and snapshot routers bind their metric handles from it at construction
time.  Binding is the enable/disable point: a registry with
``enabled=False`` hands out the shared no-op singletons, so objects
built while observability is off stay permanently unobserved (and cost
only empty method calls), while objects built while it is on report for
the rest of their lives.  The ``CHISEL_OBS`` environment variable
(``0``/``off``/``false`` to disable) sets the default registry's initial
mode.

Exporters:

* :meth:`MetricsRegistry.to_dict` — one JSON-ready snapshot (counters,
  gauges, histograms with estimated quantiles, trace-ring events);
* :meth:`MetricsRegistry.render_prometheus` — Prometheus text
  exposition format (``# HELP``/``# TYPE`` + cumulative ``le`` buckets).

Collectors — callables run at snapshot time — let components with live
state (a ``SnapshotRouter``'s route count, snapshot age) publish gauges
lazily instead of on every mutation; a collector that returns ``False``
is dropped, which is how weakref-holding collectors retire themselves.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable, Dict, List, Optional, Sequence, Union

from .metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    NullCounter,
    NullGauge,
    NullHistogram,
    TraceRing,
)

CounterLike = Union[Counter, NullCounter]
GaugeLike = Union[Gauge, NullGauge]
HistogramLike = Union[Histogram, NullHistogram]

#: Collector signature: fn(registry) -> False to unregister, anything else
#: (including None) to stay registered.
Collector = Callable[["MetricsRegistry"], Optional[bool]]


class MetricsRegistry:
    """Named metric instances plus the trace ring and collectors."""

    def __init__(self, enabled: bool = True, trace_capacity: int = 256):
        self.enabled = enabled
        self._metrics: Dict[str, object] = {}  # guarded-by: _lock
        self._collectors: List[Collector] = []  # guarded-by: _lock
        self._lock = threading.Lock()
        self.traces = TraceRing(trace_capacity)

    # -- handle creation -----------------------------------------------------

    def _get_or_create(self, name: str, kind: str, factory) -> object:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {kind}"
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> CounterLike:
        """A named counter (created on first use; shared afterwards)."""
        if not self.enabled:
            return NULL_COUNTER
        return self._get_or_create(name, "counter", lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> GaugeLike:
        if not self.enabled:
            return NULL_GAUGE
        return self._get_or_create(name, "gauge", lambda: Gauge(name, help))

    def histogram(self, name: str, bounds: Sequence[float],
                  help: str = "") -> HistogramLike:
        """A fixed-bucket histogram.  Re-requests must agree on bounds."""
        if not self.enabled:
            return NULL_HISTOGRAM
        metric = self._get_or_create(
            name, "histogram", lambda: Histogram(name, bounds, help)
        )
        if metric.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{metric.bounds}"
            )
        return metric

    def trace(self, event: str, **fields) -> None:
        """Append a structured event to the ring (no-op when disabled)."""
        if self.enabled:
            self.traces.append(event, fields)

    # -- collectors ---------------------------------------------------------------

    def register_collector(self, collector: Collector) -> None:
        with self._lock:
            self._collectors.append(collector)

    def collect(self) -> None:
        """Run every collector; drop the ones that return ``False``."""
        with self._lock:
            collectors = list(self._collectors)
        dead = [fn for fn in collectors if fn(self) is False]
        if dead:
            with self._lock:
                self._collectors = [
                    fn for fn in self._collectors if fn not in dead
                ]

    # -- introspection ----------------------------------------------------------------

    def get(self, name: str) -> Optional[object]:
        """The live metric instance for ``name`` (None if never created)."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def value(self, name: str, default: float = 0) -> float:
        """Counter/gauge value by name (0 for unknown or histograms)."""
        metric = self.get(name)
        if metric is None or metric.kind == "histogram":
            return default
        return metric.value

    def reset(self) -> None:
        """Zero every metric and clear the trace ring (handles stay bound)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()
        self.traces.clear()

    # -- exporters --------------------------------------------------------------------

    def to_dict(self, include_traces: bool = True) -> Dict[str, object]:
        """One JSON-ready snapshot of everything the registry holds."""
        self.collect()
        with self._lock:
            metrics = dict(self._metrics)
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, object] = {}
        for name in sorted(metrics):
            metric = metrics[name]
            if metric.kind == "counter":
                counters[name] = metric.value
            elif metric.kind == "gauge":
                gauges[name] = metric.value
            else:
                histograms[name] = {
                    "count": metric.count,
                    "sum": round(metric.sum, 9),
                    "mean": round(metric.mean, 9),
                    "p50": _finite(metric.quantile(0.50)),
                    "p90": _finite(metric.quantile(0.90)),
                    "p99": _finite(metric.quantile(0.99)),
                    "buckets": {
                        _le_label(bound): count
                        for bound, count in metric.buckets()
                    },
                }
        payload: Dict[str, object] = {
            "enabled": self.enabled,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
        if include_traces:
            payload["traces"] = self.traces.events()
        return payload

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (one scrape body)."""
        self.collect()
        with self._lock:
            metrics = dict(self._metrics)
        lines: List[str] = []
        for name in sorted(metrics):
            metric = metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if metric.kind in ("counter", "gauge"):
                lines.append(f"{name} {_format_value(metric.value)}")
            else:
                for bound, cumulative in metric.buckets():
                    lines.append(
                        f'{name}_bucket{{le="{_le_label(bound)}"}} {cumulative}'
                    )
                lines.append(f"{name}_sum {_format_value(metric.sum)}")
                lines.append(f"{name}_count {metric.count}")
        return "\n".join(lines) + "\n"


def _le_label(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


def _finite(value: float) -> float:
    """JSON-safe quantile: +Inf (overflow bucket) becomes -1."""
    return -1.0 if math.isinf(value) else value


def _format_value(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if value == int(value):
        return str(int(value))
    return repr(value)


def _env_enabled() -> bool:
    return os.environ.get("CHISEL_OBS", "1").strip().lower() not in (
        "0", "off", "false", "no",
    )


_default_registry = MetricsRegistry(enabled=_env_enabled())


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process default (tests, embedders); returns the old one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def enable() -> None:
    """Hand out live handles from now on (existing objects unaffected)."""
    _default_registry.enabled = True


def disable() -> None:
    """Hand out no-op handles from now on (existing objects unaffected)."""
    _default_registry.enabled = False
