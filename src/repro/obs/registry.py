"""Metric primitives and the metric naming scheme.

The component ``stats()`` dicts (LRU, ledger, pool, translator, store,
reliability) are the only counter store; this module holds what they are
built from and how they are named:

* :class:`Counter` and :class:`Histogram` -- thread-safe primitives.
  Every read and write takes the primitive's lock, so a histogram snapshot
  can never observe a torn ``(count, sum)`` pair (e.g. a mean above the
  observed max);
* the naming scheme ``repro_<subsystem>_<name>`` in snake case, with
  optional Prometheus-style labels -- ``repro_lru_hits{cache="translation"}``
  (:func:`metric_name_is_valid`; the Prometheus exporter rejects off-scheme
  names);
* :func:`flatten_stats`, which maps a nested ``stats()`` dict onto the
  scheme for the ``as_metrics()`` view.

This module is dependency-free (stdlib only) so every layer -- core, bench,
service -- can import it without dragging numpy or the engine along.
"""

from __future__ import annotations

import re
import threading
from typing import Mapping

__all__ = [
    "Counter",
    "Histogram",
    "MetricNameError",
    "flatten_stats",
    "metric_name_is_valid",
    "quantile",
]

#: ``repro_<subsystem>_<name>`` with optional ``{key="value",...}`` labels.
_NAME_RE = re.compile(
    r"^repro_[a-z][a-z0-9]*(?:_[a-z0-9]+)+"
    r"(?:\{[a-z_][a-z0-9_]*=\"[^\"\\{}]*\"(?:,[a-z_][a-z0-9_]*=\"[^\"\\{}]*\")*\})?$"
)


class MetricNameError(ValueError):
    """A metric name violates the ``repro_<subsystem>_<name>`` scheme."""


def metric_name_is_valid(name: str) -> bool:
    """Whether ``name`` matches ``repro_<subsystem>_<name>{labels}``."""
    return bool(_NAME_RE.match(name))


def flatten_stats(subsystem: str, stats: Mapping[str, object]) -> dict[str, float]:
    """Flatten a nested ``stats()`` dict into scheme-conformant metric names.

    ``{"lru": {"hits": 3}}`` under subsystem ``"cache"`` becomes
    ``{"repro_cache_lru_hits": 3.0}``.  Non-numeric leaves are dropped
    (facade dicts may carry strings -- policy names, paths); booleans export
    as 0/1.  This is the shared building block of the ``as_metrics()``
    facade views.
    """
    out: dict[str, float] = {}

    def _walk(prefix: str, mapping: Mapping[str, object]) -> None:
        for key, value in mapping.items():
            name = f"{prefix}_{key}"
            if isinstance(value, Mapping):
                _walk(name, value)
            elif isinstance(value, bool):
                out[name] = 1.0 if value else 0.0
            elif isinstance(value, (int, float)):
                out[name] = float(value)

    _walk(f"repro_{subsystem}", stats)
    return out


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an already sorted, non-empty list.

    A whole-number position returns that element exactly.
    """
    position = q * (len(sorted_values) - 1)
    lower = int(position)
    weight = position - lower
    if weight == 0.0:
        return sorted_values[lower]
    upper = lower + 1
    return sorted_values[lower] * (1.0 - weight) + sorted_values[upper] * weight


class Counter:
    """A monotonically increasing float counter (thread-safe)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Streaming distribution: count/sum/min/max plus a sampling reservoir.

    ``observe`` is a short critical section; ``snapshot`` copies every
    field under the same lock, so the aggregates it returns always describe
    one consistent point in time.

    Quantiles (p50/p95) come from a bounded ring-buffer reservoir of the
    most recent ``reservoir`` observations: exact for short-lived bench
    runs, a recency-weighted estimate for long-lived services.
    """

    __slots__ = (
        "_lock",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_samples",
        "_next",
        "_reservoir",
    )

    def __init__(self, *, reservoir: int = 512) -> None:
        if reservoir < 1:
            raise ValueError("the reservoir needs at least one slot")
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._samples: list[float] = []
        self._next = 0
        self._reservoir = int(reservoir)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if len(self._samples) < self._reservoir:
                self._samples.append(value)
            else:
                self._samples[self._next] = value
                self._next = (self._next + 1) % self._reservoir

    def snapshot(self) -> dict[str, float]:
        """Consistent aggregates: count/sum/mean/min/max/p50/p95."""
        with self._lock:
            count, total, low, high = self._count, self._sum, self._min, self._max
            samples = tuple(self._samples)
        if count == 0:
            return {
                "count": 0.0,
                "sum": 0.0,
                "mean": 0.0,
                "min": 0.0,
                "max": 0.0,
                "p50": 0.0,
                "p95": 0.0,
            }
        ordered = sorted(samples)
        return {
            "count": float(count),
            "sum": total,
            "mean": total / count,
            "min": low,
            "max": high,
            "p50": quantile(ordered, 0.5),
            "p95": quantile(ordered, 0.95),
        }

    def reset(self) -> None:
        with self._lock:
            self._count = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = float("-inf")
            self._samples = []
            self._next = 0
