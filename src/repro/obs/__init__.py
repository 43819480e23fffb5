"""Unified observability: metric naming, request tracing, exporters.

The component ``stats()`` dicts (``cache_stats()``, ``latency_stats()``,
``stats()["reliability"]``, ...) are the only counter store.  This package
is where they meet the operator:

* :mod:`repro.obs.registry` -- counter/histogram primitives whose
  multi-field snapshots are never torn, the ``repro_<subsystem>_<name>``
  naming scheme, and :func:`flatten_stats`, which maps a ``stats()`` dict
  onto it (``ExplorationService.as_metrics()`` is the one flat view);
* :mod:`repro.obs.tracing` -- per-request :class:`Span` trees with
  head-based sampling, thread-local context, and batcher follower->leader
  joins.
  The disabled path is one module-global branch;
* :mod:`repro.obs.export` -- Prometheus text exposition and Chrome
  trace-event (``chrome://tracing`` / Perfetto) dumps;
* ``python -m repro.obs`` -- run a small replay and export what it saw.

See ``docs/observability.md`` for the metric catalog, the span taxonomy and
the sampling knobs; ``benchmarks/e2e`` reads the same spans for its
per-layer metrics.
"""

from __future__ import annotations

from repro.obs.export import (
    chrome_trace_events,
    prometheus_text,
    write_chrome_trace,
)
from repro.obs.registry import (
    Counter,
    Histogram,
    MetricNameError,
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
    "Histogram",
    "MetricNameError",
    "Span",
    "Tracer",
    "annotate",
    "chrome_trace_events",
    "current_span",
    "flatten_stats",
    "get_tracer",
    "install_tracer",
    "metric_name_is_valid",
    "prometheus_text",
    "root_span",
    "span",
    "write_chrome_trace",
]
