"""The central metrics registry: seqlock-consistent primitives + collectors.

Two registration shapes cover the whole codebase:

* **primitives** (:class:`Counter`, :class:`Gauge`, :class:`Histogram`) for
  code that has no counter surface of its own yet (the bench harness's
  ``RUN_TIMINGS`` histograms, ad-hoc service gauges).  Every primitive is
  thread-safe, and every multi-field snapshot follows a seqlock
  discipline: writers bump an even/odd sequence counter around the
  mutation, readers speculate a bounded number of times and fall back to
  the lock -- so a snapshot can never observe a torn ``(count, sum)`` pair
  (e.g. a mean above the observed max);
* **collectors** for the existing ``stats()`` facades (LRU, ledger, pool,
  batcher, store, reliability).  A collector is a zero-arg
  callable returning ``{metric_name: float}`` that the registry pulls at
  snapshot time.  The facades keep their dict shapes bit-compatible; the
  registry only *re-exports* them under the documented naming scheme --
  nothing is double-counted and the hot paths never see the registry.

Naming scheme (checked at registration and at snapshot):
``repro_<subsystem>_<name>`` in snake case, with optional Prometheus-style
labels -- ``repro_lru_hits{cache="translation"}``.  Metric names
must be unique across primitives and collectors; a collision raises
:class:`MetricNameError` rather than silently shadowing a series.

This module is dependency-free (stdlib only) so every layer -- core, bench,
service -- can import it without dragging numpy or the engine along.
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Mapping

__all__ = [
    "OPTIMISTIC_RETRIES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricNameError",
    "MetricsRegistry",
    "default_metrics",
    "flatten_stats",
    "metric_name_is_valid",
    "quantile",
]

#: Optimistic snapshot attempts before falling back to the primitive's lock
#: (mirrors :data:`repro.core.lru.OPTIMISTIC_RETRIES`).
OPTIMISTIC_RETRIES = 3

#: ``repro_<subsystem>_<name>`` with optional ``{key="value",...}`` labels.
_NAME_RE = re.compile(
    r"^repro_[a-z][a-z0-9]*(?:_[a-z0-9]+)+"
    r"(?:\{[a-z_][a-z0-9_]*=\"[^\"\\{}]*\"(?:,[a-z_][a-z0-9_]*=\"[^\"\\{}]*\")*\})?$"
)


class MetricNameError(ValueError):
    """A metric name violates the scheme or collides with a registered one."""


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
    """Linear-interpolation quantile of an already sorted, non-empty list."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    lower = int(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    weight = position - lower
    return sorted_values[lower] * (1.0 - weight) + sorted_values[upper] * weight


class Counter:
    """A monotonically increasing float counter (thread-safe)."""

    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str = "", help: str = "") -> None:  # noqa: A002
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with self._lock:
            self._value += amount

    def value(self) -> float:
        # A single float read is atomic under the GIL; no seqlock needed.
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """A settable point-in-time value (thread-safe)."""

    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str = "", help: str = "") -> None:  # noqa: A002
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    def value(self) -> float:
        return self._value


class Histogram:
    """Streaming distribution: count/sum/min/max plus a sampling reservoir.

    ``observe`` is a short critical section; ``snapshot`` reads every field
    between two reads of the sequence counter (speculate, validate, retry
    ``OPTIMISTIC_RETRIES`` times, then take the lock) so the aggregates it
    returns always describe one consistent point in time.

    Quantiles (p50/p95) come from a bounded ring-buffer reservoir of the
    most recent ``reservoir`` observations: exact for short-lived bench
    runs, a recency-weighted estimate for long-lived services.
    """

    __slots__ = (
        "name",
        "help",
        "_lock",
        "_seq",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_samples",
        "_next",
        "_reservoir",
    )

    def __init__(
        self, name: str = "", help: str = "", *, reservoir: int = 512  # noqa: A002
    ) -> None:
        if reservoir < 1:
            raise ValueError("the reservoir needs at least one slot")
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._seq = 0
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
            self._seq += 1
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
            self._seq += 1

    def _read(self) -> tuple[int, float, float, float, tuple[float, ...]]:
        return (self._count, self._sum, self._min, self._max, tuple(self._samples))

    def snapshot(self) -> dict[str, float]:
        """Consistent aggregates: count/sum/mean/min/max/p50/p95."""
        for _ in range(OPTIMISTIC_RETRIES):
            s1 = self._seq
            if not (s1 & 1):
                view = self._read()
                if s1 == self._seq:
                    return self._aggregate(view)
        with self._lock:
            return self._aggregate(self._read())

    @staticmethod
    def _aggregate(
        view: tuple[int, float, float, float, tuple[float, ...]]
    ) -> dict[str, float]:
        count, total, low, high, samples = view
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
            self._seq += 1
            self._count = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = float("-inf")
            self._samples = []
            self._next = 0
            self._seq += 1


#: The suffixes one histogram expands to in a flat registry snapshot.
_HISTOGRAM_SUFFIXES = ("count", "sum", "mean", "min", "max", "p50", "p95")


class MetricsRegistry:
    """Name-unique home of every primitive and every re-registered facade.

    Primitives are created *through* the registry
    (:meth:`counter`/:meth:`gauge`/:meth:`histogram`) so their names are
    validated and reserved once.  Collectors (:meth:`register_collector`)
    are pulled lazily by :meth:`snapshot`; their metric names are validated
    on every pull, and a name collision -- between two collectors, or
    between a collector and a primitive -- fails loudly.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: dict[str, Callable[[], Mapping[str, float]]] = {}

    # -- primitive registration ----------------------------------------------------

    def _reserve(self, name: str) -> None:
        if not metric_name_is_valid(name):
            raise MetricNameError(
                f"metric name {name!r} does not match the scheme "
                "repro_<subsystem>_<name>{labels}"
            )
        if name in self._counters or name in self._gauges or name in self._histograms:
            raise MetricNameError(f"metric {name!r} is already registered")

    def counter(self, name: str, help: str = "") -> Counter:  # noqa: A002
        with self._lock:
            self._reserve(name)
            metric = Counter(name, help)
            self._counters[name] = metric
            return metric

    def gauge(self, name: str, help: str = "") -> Gauge:  # noqa: A002
        with self._lock:
            self._reserve(name)
            metric = Gauge(name, help)
            self._gauges[name] = metric
            return metric

    def histogram(
        self, name: str, help: str = "", *, reservoir: int = 512  # noqa: A002
    ) -> Histogram:
        with self._lock:
            self._reserve(name)
            metric = Histogram(name, help, reservoir=reservoir)
            self._histograms[name] = metric
            return metric

    # -- collector registration ----------------------------------------------------

    def register_collector(
        self, subsystem: str, collect: Callable[[], Mapping[str, float]]
    ) -> None:
        """Pull-register an existing ``stats()`` facade.

        :param subsystem: unique key identifying the facade (used to
            unregister, and in error messages).
        :param collect: zero-arg callable returning ``{name: value}``; called
            on every :meth:`snapshot`, never on the facade's own hot path.
        """
        with self._lock:
            if subsystem in self._collectors:
                raise MetricNameError(
                    f"collector {subsystem!r} is already registered"
                )
            self._collectors[subsystem] = collect

    def unregister_collector(self, subsystem: str) -> None:
        with self._lock:
            self._collectors.pop(subsystem, None)

    # -- snapshots -------------------------------------------------------------------

    def names(self) -> list[str]:
        """Registered primitive names (collectors contribute at snapshot time)."""
        with self._lock:
            return sorted(
                [*self._counters, *self._gauges, *self._histograms]
            )

    def snapshot(self) -> dict[str, float]:
        """One flat, validated ``{metric_name: value}`` view of everything.

        Histograms expand to ``<name>_count`` / ``_sum`` / ``_mean`` /
        ``_min`` / ``_max`` / ``_p50`` / ``_p95`` series (labels, if any,
        stay attached to each expanded series).  Collector output is
        validated against the naming scheme and cross-checked for
        collisions on every call.
        """
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
            collectors = list(self._collectors.items())
        out: dict[str, float] = {}
        for counter in counters:
            out[counter.name] = counter.value()
        for gauge in gauges:
            out[gauge.name] = gauge.value()
        for histogram in histograms:
            aggregates = histogram.snapshot()
            for suffix in _HISTOGRAM_SUFFIXES:
                out[_suffixed(histogram.name, suffix)] = aggregates[suffix]
        for subsystem, collect in collectors:
            for name, value in collect().items():
                if not metric_name_is_valid(name):
                    raise MetricNameError(
                        f"collector {subsystem!r} produced invalid metric "
                        f"name {name!r}"
                    )
                if name in out:
                    raise MetricNameError(
                        f"collector {subsystem!r} redefines metric {name!r}"
                    )
                out[name] = float(value)
        return out


def _suffixed(name: str, suffix: str) -> str:
    """Append a histogram suffix to the base name, before any label block."""
    brace = name.find("{")
    if brace < 0:
        return f"{name}_{suffix}"
    return f"{name[:brace]}_{suffix}{name[brace:]}"


_default = MetricsRegistry()


def default_metrics() -> MetricsRegistry:
    """The process-wide default registry (what ``python -m repro.obs`` exports)."""
    return _default
