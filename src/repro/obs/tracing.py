"""Structured request tracing: span trees, head sampling, context propagation.

One trace covers one service request (``explore`` / ``preview_cost``): a
tree of :class:`Span` nodes from admission through snapshot pin, the
cache-tier outcome (memo hit ``exact`` / ``disk`` / ``built``), matrix build /
Monte-Carlo search, the mechanism run, and reserve/commit.  The
instrumentation sites live in the service, engine, translator and workload
modules; they all funnel through the three module-level entry points here:

* :func:`root_span` -- opens a trace at a service entry point, applying
  **head-based sampling** (the keep/drop decision is made once, up front;
  an unsampled request pays nothing downstream).  Inside an already-open
  trace it degrades to a child span, so nested entry points (service over
  engine) produce one tree, not two;
* :func:`span` -- a child of the current thread-local span; a shared no-op
  when no tracer is installed or the request was not sampled;
* :func:`annotate` -- attach a key/value to the current span (how the
  translator reports which cache tier answered).

**Disabled-path cost.**  No tracer installed (the default) means every
entry point is one module-global load + ``is None`` branch returning a
shared singleton; untraced ``benchmarks/e2e`` runs take this path, so its
cost is part of every ``requests_per_cpu_s`` they report.

The current span lives in a ``threading.local``, so a request's spans are
those of the thread that serves it.  A request that waited on another
request's translation flight spends that wait inside its own
``engine.translate`` span.

Spans are buffered per trace (append-only lists owned by the running
request -- no cross-request locking on the hot path) and published to the
tracer's bounded ring of finished traces when the root exits.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import deque
from typing import Any, Iterator, Mapping

__all__ = [
    "Span",
    "Tracer",
    "annotate",
    "current_span",
    "get_tracer",
    "install_tracer",
    "root_span",
    "span",
]


class Span:
    """One timed operation inside a trace (a node of the span tree)."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "thread_id",
        "attributes",
        "_trace",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: int | None,
        name: str,
        trace: "_Trace",
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = time.perf_counter()
        self.end: float | None = None
        self.thread_id = threading.get_ident()
        self.attributes: dict[str, Any] = {}
        self._trace = trace

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    def annotate(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "thread_id": self.thread_id,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, trace={self.trace_id}, id={self.span_id})"


class _Trace:
    """The buffer one sampled request accumulates spans into."""

    __slots__ = ("trace_id", "spans")

    def __init__(self, trace_id: int) -> None:
        self.trace_id = trace_id
        #: Finished spans in completion order; only the thread serving the
        #: request appends to it, so it needs no lock.
        self.spans: list[Span] = []


class _Context(threading.local):
    span: Span | None = None


_context = _Context()


class Tracer:
    """Collects sampled traces into a bounded ring buffer.

    :param sample_rate: head-sampling probability in ``[0, 1]``.  ``1.0``
        keeps every trace (tests, debugging), ``0.0`` keeps none (the
        counters still tick), anything between keeps that fraction --
        decided once per root, so a kept trace is always complete.
    :param keep_traces: how many finished traces the ring retains.
    :param seed: optional seed for the sampling decisions (reproducible
        sampled benchmarks).
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        *,
        keep_traces: int = 256,
        seed: int | None = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        self.sample_rate = float(sample_rate)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._rng = random.Random(seed)
        self._finished: deque[_Trace] = deque(maxlen=keep_traces)
        self._roots_started = 0
        self._roots_sampled = 0

    # -- sampling / publication (used by the module-level entry points) --------------

    def _sample(self) -> bool:
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        with self._lock:
            return self._rng.random() < self.sample_rate

    def _next_id(self) -> int:
        # itertools.count.__next__ is atomic under the GIL.
        return next(self._ids)

    def _publish(self, trace: _Trace) -> None:
        with self._lock:
            self._finished.append(trace)

    # -- consumption ------------------------------------------------------------------

    def traces(self) -> list[list[dict[str, Any]]]:
        """Finished traces (oldest first), each a list of span dicts."""
        with self._lock:
            finished = list(self._finished)
        return [[s.to_dict() for s in trace.spans] for trace in finished]

    def drain(self) -> list[list[dict[str, Any]]]:
        """Like :meth:`traces` but empties the ring."""
        with self._lock:
            finished = list(self._finished)
            self._finished.clear()
        return [[s.to_dict() for s in trace.spans] for trace in finished]

    def stats(self) -> dict[str, float]:
        with self._lock:
            return {
                "sample_rate": self.sample_rate,
                "roots_started": float(self._roots_started),
                "roots_sampled": float(self._roots_sampled),
                "finished_traces": float(len(self._finished)),
            }


class _NoopSpan:
    """The shared do-nothing context manager of the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def annotate(self, key: str, value: Any) -> None:
        return None


_NOOP = _NoopSpan()


class _SpanHandle:
    """Context manager running one span: set current on enter, pop on exit."""

    __slots__ = ("_span", "_parent", "_is_root", "_tracer")

    def __init__(self, span_obj: Span, is_root: bool, tracer: Tracer) -> None:
        self._span = span_obj
        self._parent = _context.span
        self._is_root = is_root
        self._tracer = tracer

    def __enter__(self) -> Span:
        _context.span = self._span
        return self._span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        span_obj = self._span
        span_obj.end = time.perf_counter()
        if exc_type is not None:
            span_obj.attributes.setdefault(
                "error", getattr(exc_type, "__name__", str(exc_type))
            )
        span_obj._trace.spans.append(span_obj)
        _context.span = self._parent
        if self._is_root:
            self._tracer._publish(span_obj._trace)
        return False


_tracer: Tracer | None = None


def install_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install (or, with ``None``, remove) the process-wide tracer.

    Returns the previously installed tracer so callers can restore it.
    """
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


def get_tracer() -> Tracer | None:
    return _tracer


def current_span() -> Span | None:
    """The span the calling thread is currently inside, if any."""
    return _context.span


def root_span(name: str, **attributes: Any) -> Any:
    """Open a trace at a service entry point (head sampling happens here).

    Inside an already-open trace this degrades to a child span, so stacked
    entry points (service -> engine) build one tree.
    """
    tracer = _tracer
    if tracer is None:
        return _NOOP
    parent = _context.span
    if parent is not None:
        return _child(tracer, parent, name, attributes)
    tracer._roots_started += 1
    if not tracer._sample():
        return _NOOP
    tracer._roots_sampled += 1
    trace = _Trace(tracer._next_id())
    span_obj = Span(trace.trace_id, tracer._next_id(), None, name, trace)
    if attributes:
        span_obj.attributes.update(attributes)
    return _SpanHandle(span_obj, True, tracer)


def span(name: str, **attributes: Any) -> Any:
    """A child span of the calling thread's current span (no-op outside one)."""
    tracer = _tracer
    if tracer is None:
        return _NOOP
    parent = _context.span
    if parent is None:
        return _NOOP
    return _child(tracer, parent, name, attributes)


def _child(
    tracer: Tracer, parent: Span, name: str, attributes: Mapping[str, Any]
) -> _SpanHandle:
    span_obj = Span(
        parent.trace_id, tracer._next_id(), parent.span_id, name, parent._trace
    )
    if attributes:
        span_obj.attributes.update(attributes)
    return _SpanHandle(span_obj, False, tracer)


def annotate(key: str, value: Any) -> None:
    """Attach ``key=value`` to the current span; free when there is none."""
    span_obj = _context.span
    if span_obj is not None:
        span_obj.attributes[key] = value


def span_tree(trace: list[dict[str, Any]]) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(depth, span)`` over one finished trace in tree order.

    A small consumption helper for tests and report formatting; orphaned
    spans (parent missing, e.g. dropped by a ring overflow) surface at
    depth 0 rather than disappearing.
    """
    by_parent: dict[int | None, list[dict[str, Any]]] = {}
    ids = {s["span_id"] for s in trace}
    for entry in trace:
        parent = entry["parent_id"]
        if parent is not None and parent not in ids:
            parent = None
        by_parent.setdefault(parent, []).append(entry)
    for children in by_parent.values():
        children.sort(key=lambda s: s["start"])

    def _walk(parent: int | None, depth: int) -> Iterator[tuple[int, dict[str, Any]]]:
        for entry in by_parent.get(parent, []):
            yield depth, entry
            yield from _walk(entry["span_id"], depth + 1)

    return _walk(None, 0)
