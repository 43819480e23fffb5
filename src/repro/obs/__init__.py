"""Unified observability: central metrics registry, request tracing, exporters.

The nine subsystems under the service tier each grew an ad-hoc counter
surface (``cache_stats()``, ``latency_stats()``, ``stats()["reliability"]``,
``RUN_TIMINGS``); answering "where did this slow ``preview_cost`` spend its
time, and which cache tier served it?" meant stitching five APIs by hand.
This package is the one place they meet:

* :mod:`repro.obs.registry` -- counter/gauge/histogram primitives whose
  multi-field snapshots are never torn, plus a :class:`MetricsRegistry`
  that existing ``stats()`` facades re-register into as *collectors*
  (pulled at snapshot time, zero hot-path cost, old dict shapes untouched);
* :mod:`repro.obs.tracing` -- per-request :class:`Span` trees with
  head-based sampling, thread-local context, and batcher follower->leader
  joins.
  The disabled path is one module-global branch;
* :mod:`repro.obs.export` -- Prometheus text exposition, JSON snapshots,
  and Chrome trace-event (``chrome://tracing`` / Perfetto) dumps;
* ``python -m repro.obs`` -- run a small replay and export what it saw.

See ``docs/observability.md`` for the metric catalog, the span taxonomy and
the sampling knobs; ``benchmarks/e2e`` reads the same spans for its
per-layer metrics.
"""

from __future__ import annotations

from repro.obs.export import (
    chrome_trace_events,
    prometheus_text,
    registry_json,
    write_chrome_trace,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricNameError,
    MetricsRegistry,
    default_metrics,
    flatten_stats,
    metric_name_is_valid,
)
from repro.obs.tracing import (
    Span,
    Tracer,
    annotate,
    current_span,
    get_tracer,
    install_tracer,
    root_span,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricNameError",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "annotate",
    "chrome_trace_events",
    "current_span",
    "default_metrics",
    "flatten_stats",
    "get_tracer",
    "install_tracer",
    "metric_name_is_valid",
    "prometheus_text",
    "registry_json",
    "root_span",
    "span",
    "write_chrome_trace",
]
