"""Metric primitives battery: naming scheme, torn-snapshot resistance.

The :class:`~repro.obs.Histogram` torn-read checks mirror the stance of
``tests/concurrency/test_stats_snapshots.py``: writers only ever publish
values for which a sharp cross-field identity holds (every observation is
exactly ``0.5``, a binary fraction), so any snapshot whose aggregates mix
two instants breaks the identity bit-for-bit.
"""

import sys
import threading

import pytest

from repro.obs import Counter, Histogram, flatten_stats, metric_name_is_valid
from repro.obs.registry import quantile

#: Preempt aggressively inside snapshot windows (default is 5 ms).
FAST_SWITCH = 1e-5


@pytest.fixture
def aggressive_preemption():
    old = sys.getswitchinterval()
    sys.setswitchinterval(FAST_SWITCH)
    yield
    sys.setswitchinterval(old)


class TestNamingScheme:
    def test_plain_names(self):
        assert metric_name_is_valid("repro_lru_hits")
        assert metric_name_is_valid("repro_engine_budget_remaining")

    def test_labelled_names(self):
        assert metric_name_is_valid('repro_lru_hits{cache="translation"}')
        assert metric_name_is_valid(
            'repro_session_spent{analyst="a-0",table="adult"}'
        )

    def test_rejects_off_scheme_names(self):
        for bad in (
            "lru_hits",  # missing repro_ prefix
            "repro_hits",  # missing subsystem segment
            "repro_Lru_hits",  # upper case
            "repro_lru_hits{}",  # empty label block
            'repro_lru_hits{cache=x}',  # unquoted label value
            'repro_lru_hits{cache="x"',  # unterminated block
        ):
            assert not metric_name_is_valid(bad), bad


class TestPrimitives:
    def test_counter_rejects_negative(self):
        counter = Counter()
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_histogram_aggregates(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 4.0
        assert snap["sum"] == 10.0
        assert snap["mean"] == 2.5
        assert snap["min"] == 1.0
        assert snap["max"] == 4.0
        assert snap["p50"] == 2.5

    def test_histogram_empty_snapshot_is_zeroes(self):
        snap = Histogram().snapshot()
        assert set(snap) == {"count", "sum", "mean", "min", "max", "p50", "p95"}
        assert all(value == 0.0 for value in snap.values())

    def test_histogram_reservoir_is_bounded(self):
        histogram = Histogram(reservoir=8)
        for i in range(100):
            histogram.observe(float(i))
        snap = histogram.snapshot()
        assert snap["count"] == 100.0
        # min/max track the full stream, not just the ring.
        assert snap["min"] == 0.0
        assert snap["max"] == 99.0
        # Quantiles come from the last 8 observations only.
        assert snap["p50"] >= 92.0

    def test_histogram_rejects_an_empty_reservoir(self):
        with pytest.raises(ValueError):
            Histogram(reservoir=0)

    def test_histogram_reset_clears_every_aggregate(self):
        histogram = Histogram(reservoir=4)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            histogram.observe(value)
        histogram.reset()
        assert all(value == 0.0 for value in histogram.snapshot().values())
        # The ring restarts too: quantiles describe only post-reset samples.
        histogram.observe(7.0)
        snap = histogram.snapshot()
        assert snap["count"] == 1.0
        assert snap["min"] == snap["max"] == snap["p50"] == 7.0

    def test_counter_reset_returns_to_zero(self):
        counter = Counter()
        counter.inc(2.5)
        counter.reset()
        assert counter.value() == 0.0
        counter.inc()
        assert counter.value() == 1.0

    def test_quantile_interpolates(self):
        assert quantile([1.0, 3.0], 0.5) == 2.0
        assert quantile([5.0], 0.95) == 5.0


class TestTornSnapshots:
    def test_constant_observations_pin_all_aggregates(self, aggressive_preemption):
        """Writers observe exactly ``0.5`` forever, so every untorn snapshot
        with ``count > 0`` must satisfy ``mean == min == max == p50 == 0.5``
        and ``sum == 0.5 * count`` exactly (binary fractions)."""
        histogram = Histogram()
        stop = threading.Event()
        errors = []

        def writer():
            while not stop.is_set():
                histogram.observe(0.5)

        writers = [threading.Thread(target=writer) for _ in range(2)]
        for t in writers:
            t.start()
        try:
            seen_nonzero = False
            for _ in range(2_000):
                snap = histogram.snapshot()
                if not snap["count"]:
                    continue
                seen_nonzero = True
                if (
                    snap["mean"] != 0.5
                    or snap["min"] != 0.5
                    or snap["max"] != 0.5
                    or snap["p50"] != 0.5
                    or snap["sum"] != 0.5 * snap["count"]
                ):
                    errors.append(snap)
                    break
        finally:
            stop.set()
            for t in writers:
                t.join()
        assert not errors, errors[:1]
        assert seen_nonzero

    def test_concurrent_increments_are_exact(self, aggressive_preemption):
        counter = Counter()
        n_threads, n_incs = 4, 5_000
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            for _ in range(n_incs):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == float(n_threads * n_incs)

    def test_concurrent_observe_never_loses_a_sample(self, aggressive_preemption):
        histogram = Histogram()
        n_threads, n_obs = 4, 3_000
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            for _ in range(n_obs):
                histogram.observe(0.25)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = histogram.snapshot()
        assert snap["count"] == float(n_threads * n_obs)
        assert snap["sum"] == 0.25 * n_threads * n_obs


class TestFlattenStats:
    def test_nested_mappings_flatten_under_scheme(self):
        out = flatten_stats("cache", {"lru": {"hits": 3, "misses": 1}, "size": 7})
        assert out == {
            "repro_cache_lru_hits": 3.0,
            "repro_cache_lru_misses": 1.0,
            "repro_cache_size": 7.0,
        }
        assert all(metric_name_is_valid(name) for name in out)

    def test_non_numeric_leaves_dropped_and_bools_are_01(self):
        out = flatten_stats(
            "svc", {"policy": "first-come", "valid": True, "path": None, "n": 2}
        )
        assert out == {"repro_svc_valid": 1.0, "repro_svc_n": 2.0}


class TestFacadeMetrics:
    def test_service_as_metrics_names_conform(self):
        from repro.mechanisms.registry import default_registry
        from repro.service import ExplorationService
        from tests.service.util import small_table

        service = ExplorationService(
            small_table(256),
            budget=1.0,
            registry=default_registry(mc_samples=50),
            seed=0,
        )
        service.register_analyst("a-0")
        metrics = service.as_metrics()
        assert metrics, "as_metrics() came back empty"
        assert all(metric_name_is_valid(name) for name in metrics)
        assert 'repro_session_share{analyst="a-0"}' in metrics
        for tier in ("hits", "token", "disk_hits", "built"):
            assert f"repro_translations_{tier}" in metrics

    def test_families_never_overwrite_each_other(self):
        """Every ``stats()`` field lands on its own series: the flat view has
        exactly as many names as the component dicts have numeric leaves."""
        service = _explored_service()
        stats = service.stats()
        expected = 0
        for subsystem, key in (
            ("pool", "budget"),
            ("translations", "translations"),
            ("matrix", "workload_matrices"),
            ("reliability", "reliability"),
        ):
            expected += len(flatten_stats(subsystem, stats[key]))
        if stats["store"] is not None:
            expected += len(flatten_stats("store", stats["store"]))
        expected += sum(len(fields) for fields in stats["tables"].values())
        expected += 2 * len(stats["sessions"])
        expected += sum(len(agg) for agg in service.latency_stats().values())
        expected += 1  # repro_service_sessions_active
        assert len(service.as_metrics()) == expected

    def test_latency_series_match_latency_stats(self):
        service = _explored_service()
        metrics = service.as_metrics()
        latency = service.latency_stats()
        assert set(latency) == {"preview_cost", "explore"}
        for kind, aggregate in latency.items():
            for name, value in aggregate.items():
                assert metrics[f'repro_latency_{name}{{kind="{kind}"}}'] == value
        assert metrics['repro_latency_count{kind="explore"}'] == 1.0

    def test_session_series_follow_the_ledger(self):
        service = _explored_service()
        service.register_analyst("b-1")
        metrics = service.as_metrics()
        sessions = service.stats()["sessions"]
        assert metrics["repro_service_sessions_active"] == 2.0
        for analyst, fields in sessions.items():
            assert metrics[f'repro_session_spent{{analyst="{analyst}"}}'] == (
                fields["spent"]
            )
            assert metrics[f'repro_session_share{{analyst="{analyst}"}}'] == (
                fields["share"]
            )
        assert metrics['repro_session_spent{analyst="a-0"}'] > 0.0
        assert metrics['repro_session_spent{analyst="b-1"}'] == 0.0


def _explored_service():
    """A service over a small table after one preview and one explore."""
    from repro.core.accuracy import AccuracySpec
    from repro.mechanisms.registry import default_registry
    from repro.queries.builders import histogram_workload
    from repro.queries.query import WorkloadCountingQuery
    from repro.service import ExplorationService
    from tests.service.util import small_table

    table = small_table(256)
    service = ExplorationService(
        table, budget=5.0, registry=default_registry(mc_samples=50), seed=0
    )
    service.register_analyst("a-0")
    query = WorkloadCountingQuery(
        histogram_workload("amount", start=0, stop=10_000, bins=8), name="hist"
    )
    accuracy = AccuracySpec(alpha=200.0, beta=5e-4)
    service.preview_cost("a-0", query, accuracy)
    service.explore("a-0", query, accuracy)
    return service
