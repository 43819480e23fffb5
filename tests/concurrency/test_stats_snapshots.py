"""Torn-multi-field-read pins for every ``stats()``-style snapshot.

A multi-field snapshot is *torn* when its fields are read at different
instants: a reader can then observe, say, a ``count`` from before an
update and a ``sum`` from after it.  The tests here pin atomic snapshots
in :meth:`LRUCache.stats` and :meth:`ExplorationService.latency_stats`,
and monotone counters in :attr:`AccuracyTranslator.cache_stats`, so that
a future refactor moving any of those reads outside their lock fails
loudly instead of silently re-introducing the race.

Detector design: writers only ever publish values for which a sharp
cross-field identity holds (e.g. every latency sample is exactly ``0.5``
seconds, so ``mean == max == 0.5`` in *every* untorn snapshot; binary
fractions keep the arithmetic exact).  Any snapshot mixing fields from
two instants breaks the identity.
"""

import sys
import threading
import time

import pytest

from repro.core.lru import LRUCache

#: Preempt aggressively inside snapshot windows (default is 5 ms).
FAST_SWITCH = 1e-5


@pytest.fixture(autouse=True)
def aggressive_preemption():
    old = sys.getswitchinterval()
    sys.setswitchinterval(FAST_SWITCH)
    yield
    sys.setswitchinterval(old)


class TestLRUCacheStatsSnapshot:
    def test_snapshot_is_internally_consistent_under_writers(self):
        """``inserts - evictions == size`` must hold in every snapshot taken
        while writers churn the cache: the whole counter block is read
        under the cache lock."""
        cache = LRUCache(32)
        stop = threading.Event()
        errors = []

        def writer(tid):
            i = 0
            while not stop.is_set():
                i += 1
                cache.put((tid, i % 64), i)

        writers = [
            threading.Thread(target=writer, args=(t,)) for t in range(2)
        ]
        for t in writers:
            t.start()
        try:
            for _ in range(2_000):
                snap = cache.stats()
                if snap["inserts"] - snap["evictions"] != snap["size"]:
                    errors.append(snap)
                    break
        finally:
            stop.set()
            for t in writers:
                t.join()
        assert not errors, errors[:1]


class TestTranslatorStatsSnapshot:
    def test_counters_stay_monotone_under_traffic(self):
        """Three threads walk the same cold keys in step, so their requests
        lead flights, coalesce onto them and hit the memo.  Every counter of
        ``cache_stats`` only ever grows, so a snapshot field that regresses
        against an earlier snapshot is a lost or torn update."""
        from repro.core.accuracy import AccuracySpec
        from repro.core.translator import AccuracyTranslator
        from repro.mechanisms.laplace import LaplaceMechanism
        from repro.mechanisms.registry import MechanismRegistry
        from repro.queries.predicates import Comparison
        from repro.queries.query import QueryKind, WorkloadCountingQuery
        from repro.queries.workload import Workload

        class SlowLaplace(LaplaceMechanism):
            def translate(self, *args, **kwargs):
                time.sleep(0.0005)  # long enough for the others to pile on
                return super().translate(*args, **kwargs)

        translator = AccuracyTranslator(
            MechanismRegistry(
                [SlowLaplace(name="WCQ-LM", kinds=frozenset({QueryKind.WCQ}))]
            )
        )
        stop = threading.Event()
        errors = []

        def traffic():
            alpha = 10.0
            while not stop.is_set():
                alpha += 1.0
                query = WorkloadCountingQuery(Workload([Comparison("x", ">", 0.0)]))
                try:
                    translator.translations(query, AccuracySpec(alpha=alpha, beta=0.05))
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(repr(exc))

        workers = [threading.Thread(target=traffic) for _ in range(3)]
        for t in workers:
            t.start()
        prev = None
        try:
            for _ in range(2_000):
                snap = translator.cache_stats
                snap.pop("size")  # the one field that may shrink
                if any(v < 0 for v in snap.values()):
                    errors.append(("negative", snap))
                    break
                if prev is not None and any(snap[k] < prev[k] for k in snap):
                    errors.append(("regressed", prev, snap))
                    break
                prev = snap
        finally:
            stop.set()
            for t in workers:
                t.join()
        assert not errors, errors[:1]
        final = translator.cache_stats
        assert final["built"] >= 1
        assert final["hits"] + final["misses"] >= final["built"]


class TestLatencyStatsSnapshot:
    def test_constant_samples_pin_mean_equals_max(self):
        """All latency samples are exactly ``0.5`` (a binary fraction), so
        every untorn ``latency_stats`` snapshot must report
        ``mean_seconds == max_seconds == 0.5`` bit-for-bit whenever
        ``count > 0``.  A count/sum pair read at different instants breaks
        the equality."""
        from repro.mechanisms.registry import default_registry
        from repro.service import ExplorationService
        from tests.service.util import small_table

        service = ExplorationService(
            small_table(64),
            budget=1.0,
            registry=default_registry(mc_samples=50),
            seed=0,
        )
        stop = threading.Event()
        errors = []

        def recorder():
            while not stop.is_set():
                service._note_latency("explore", 0.5)

        writers = [threading.Thread(target=recorder) for _ in range(2)]
        for t in writers:
            t.start()
        try:
            seen_nonzero = False
            for _ in range(2_000):
                snap = service.latency_stats()["explore"]
                if snap["count"]:
                    seen_nonzero = True
                    if snap["mean_seconds"] != 0.5 or snap["max_seconds"] != 0.5:
                        errors.append(snap)
                        break
        finally:
            stop.set()
            for t in writers:
                t.join()
        assert not errors, errors[:1]
        assert seen_nonzero
