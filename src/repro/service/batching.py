"""Single-flight request coalescing for the exploration service.

Many analysts exploring the same table tend to issue *structurally identical*
requests -- the ER relaxation loops re-ask the same workloads, dashboards
refresh the same previews.  The expensive part of answering them
(exact domain analysis building the workload matrix, the Monte-Carlo epsilon
search of the strategy mechanisms) is a pure function of the request
structure, so concurrent duplicates should share one computation instead of
racing to rebuild it.

:class:`RequestBatcher` implements the classic *single-flight* discipline:

* the first thread to present a key becomes the **leader**: it computes the
  result immediately and publishes it through the flight's event;
* every thread presenting the same key while the computation is in flight
  becomes a **follower**: it blocks on the leader's event and returns the
  shared result without touching the compute path at all;
* the flight retires the moment its leader finishes.

Followers wake through the flight's event the moment the result is
published, and a lone caller's latency is exactly its compute time.

The batcher never caches results -- lasting reuse is the job of the LRU memo
layers underneath (:mod:`repro.queries.workload`,
:class:`~repro.core.translator.AccuracyTranslator`).  It only collapses
*concurrent* duplicates, which is exactly the case the memos cannot help
with: a cold matrix build takes long enough that every duplicate arriving
meanwhile would also miss the cache and duplicate the work.  A caller that
peeks the memo before submitting can still lose a race: it sees the memo
cold, the leader then publishes and retires, and only then does the caller
submit.  ``submit``'s ``warm`` peek closes that window: when no flight
exists for the key it asks the memo *under the batcher's lock*.  A leader
publishes to the memo before its flight retires under that same lock, so
the straggler finds the memo warm and computes straight from it.

Failures propagate: if the leader's computation raises, every follower of
that flight re-raises a per-follower *copy* of the exception (chained to the
leader's original via ``__cause__``) -- re-raising the shared object from
several threads would make the racing ``raise`` statements fight over one
``__traceback__``.  A later request retries.

Keys must capture the full structural identity of the request -- including
the table's version token (see ``ExplorationService._batch_key``), so
requests straddling an ``append_rows`` never share a flight.
"""

from __future__ import annotations

import copy
import threading
from typing import Callable, Hashable, NoReturn, TypeVar

from repro.obs import tracing

__all__ = ["RequestBatcher"]

T = TypeVar("T")


class _Flight:
    """One in-flight computation: the leader's event plus the shared outcome."""

    __slots__ = ("done", "result", "error", "leader_span")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: object = None
        self.error: BaseException | None = None
        #: ``(trace_id, span_id)`` of the leader's ``batch.leader`` span when
        #: the leader's request is being traced; followers annotate their own
        #: spans with it, forming the coalesce edges of the trace export.
        self.leader_span: tuple[int, int] | None = None


class RequestBatcher:
    """Coalesce concurrent identical requests into one computation.

    Thread-safe.  Statistics (:meth:`stats`) count successful flights
    (``computed``), coalesced followers, and ``failed`` flights; a failed
    flight counts only as ``failed``, and a warm-peek hit counts nowhere.
    """

    def __init__(self) -> None:
        self._flights: dict[Hashable, _Flight] = {}
        self._lock = threading.Lock()
        self._computed = 0
        self._coalesced = 0
        self._failed = 0

    def submit(
        self,
        key: Hashable,
        compute: Callable[[], T],
        warm: Callable[[], bool] | None = None,
    ) -> T:
        """Return ``compute()`` for ``key``, sharing the call with duplicates.

        Exactly one of the threads concurrently presenting ``key`` runs
        ``compute`` as a flight; the rest receive the same result (or a
        per-follower copy of the same raised exception).  ``key`` must
        capture the full structural identity of the request -- two requests
        with equal keys must be answerable by the same value.

        ``warm`` is an optional memo peek.  When no flight exists for ``key``
        it is called under the batcher's lock, and if it returns true the
        caller runs ``compute`` directly -- no flight, no count.  Because a
        leader publishes to the memo before its flight retires, a caller
        arriving just after the retirement finds the memo warm and never
        starts a second flight.  ``warm`` must be a cheap, non-blocking read
        that never re-enters the batcher.
        """
        with self._lock:
            flight = self._flights.get(key)
            is_leader = flight is None
            if is_leader and not (warm is not None and warm()):
                flight = self._flights[key] = _Flight()

        if flight is None:
            return compute()  # warm: the memo answers, no flight needed

        if not is_leader:
            with tracing.span("batch.follower") as follower_span:
                flight.done.wait()
                if follower_span is not None and flight.leader_span is not None:
                    # The coalesce edge: this request was answered by another
                    # request's flight.  The exporters render it as a flow
                    # arrow from the leader's span.
                    follower_span.annotate("batch.leader_trace", flight.leader_span[0])
                    follower_span.annotate("batch.leader_span", flight.leader_span[1])
            with self._lock:
                self._coalesced += 1
            if flight.error is not None:
                self._reraise_copy(flight.error)
            return flight.result  # type: ignore[return-value]

        try:
            with tracing.span("batch.leader") as leader_span:
                if leader_span is not None:
                    flight.leader_span = (leader_span.trace_id, leader_span.span_id)
                flight.result = compute()
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._flights.pop(key, None)
                self._failed += 1
            flight.done.set()
            raise
        with self._lock:
            self._flights.pop(key, None)
            self._computed += 1
        flight.done.set()
        return flight.result  # type: ignore[return-value]

    @staticmethod
    def _reraise_copy(error: BaseException) -> NoReturn:
        """Raise a per-caller copy of the leader's exception.

        Each follower must raise a distinct exception object: concurrent
        ``raise`` statements on one shared instance would all mutate its
        ``__traceback__``.  The copy is chained to the original (``raise ...
        from``) so the leader's traceback stays reachable; if the exception
        type resists copying, the original is raised as a last resort.
        """
        try:
            copied = copy.copy(error)
        except Exception:
            copied = None
        if isinstance(copied, BaseException) and copied is not error:
            raise copied from error
        raise error

    def stats(self) -> dict[str, int]:
        """Counters: successful ``computed`` flights, ``coalesced`` followers
        and ``failed`` flights."""
        with self._lock:
            return {
                "computed": self._computed,
                "coalesced": self._coalesced,
                "failed": self._failed,
            }
