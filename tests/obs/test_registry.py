"""Registry battery: naming scheme, collisions, torn-snapshot resistance.

The :class:`~repro.obs.Histogram` torn-read checks mirror the stance of
``tests/concurrency/test_stats_snapshots.py``: writers only ever publish
values for which a sharp cross-field identity holds (every observation is
exactly ``0.5``, a binary fraction), so any snapshot whose aggregates mix
two instants breaks the identity bit-for-bit.
"""

import sys
import threading

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricNameError,
    MetricsRegistry,
    default_metrics,
    flatten_stats,
    metric_name_is_valid,
)
from repro.obs.registry import _HISTOGRAM_SUFFIXES, quantile

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

    def test_primitive_registration_validates_and_reserves(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total")
        with pytest.raises(MetricNameError):
            registry.counter("repro_test_total")
        with pytest.raises(MetricNameError):
            registry.gauge("repro_test_total")
        with pytest.raises(MetricNameError):
            registry.counter("not_a_metric")

    def test_collector_names_validated_per_snapshot(self):
        registry = MetricsRegistry()
        registry.register_collector("bad", lambda: {"NotValid": 1.0})
        with pytest.raises(MetricNameError):
            registry.snapshot()

    def test_collector_collision_fails_loudly(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total").inc()
        registry.register_collector("dup", lambda: {"repro_test_total": 2.0})
        with pytest.raises(MetricNameError):
            registry.snapshot()
        registry.unregister_collector("dup")
        assert registry.snapshot()["repro_test_total"] == 1.0

    def test_duplicate_collector_subsystem_rejected(self):
        registry = MetricsRegistry()
        registry.register_collector("svc", dict)
        with pytest.raises(MetricNameError):
            registry.register_collector("svc", dict)

    def test_histogram_suffixes_inserted_before_labels(self):
        registry = MetricsRegistry()
        registry.histogram('repro_bench_seconds{phase="run"}').observe(1.0)
        snapshot = registry.snapshot()
        for suffix in _HISTOGRAM_SUFFIXES:
            name = f'repro_bench_seconds_{suffix}{{phase="run"}}'
            assert name in snapshot
            assert metric_name_is_valid(name)

    def test_snapshot_names_unique_and_conformant(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total").inc(3)
        registry.gauge("repro_test_level").set(0.5)
        registry.histogram("repro_test_seconds").observe(0.25)
        registry.register_collector(
            "svc", lambda: {"repro_svc_requests_total": 7.0}
        )
        snapshot = registry.snapshot()
        assert all(metric_name_is_valid(name) for name in snapshot)
        # Dict keys are unique by construction; the collision check above is
        # what guarantees no series was silently overwritten on the way in.
        assert snapshot["repro_svc_requests_total"] == 7.0
        assert snapshot["repro_test_total"] == 3.0


class TestPrimitives:
    def test_counter_rejects_negative(self):
        counter = Counter("repro_test_total")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_set_and_add(self):
        gauge = Gauge("repro_test_level")
        gauge.set(2.0)
        gauge.add(-0.5)
        assert gauge.value() == 1.5

    def test_histogram_aggregates(self):
        histogram = Histogram("repro_test_seconds")
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
        snap = Histogram("repro_test_seconds").snapshot()
        assert all(snap[suffix] == 0.0 for suffix in _HISTOGRAM_SUFFIXES)

    def test_histogram_reservoir_is_bounded(self):
        histogram = Histogram("repro_test_seconds", reservoir=8)
        for i in range(100):
            histogram.observe(float(i))
        snap = histogram.snapshot()
        assert snap["count"] == 100.0
        # min/max track the full stream, not just the ring.
        assert snap["min"] == 0.0
        assert snap["max"] == 99.0
        # Quantiles come from the last 8 observations only.
        assert snap["p50"] >= 92.0

    def test_quantile_interpolates(self):
        assert quantile([1.0, 3.0], 0.5) == 2.0
        assert quantile([5.0], 0.95) == 5.0


class TestTornSnapshots:
    def test_constant_observations_pin_all_aggregates(self, aggressive_preemption):
        """Writers observe exactly ``0.5`` forever, so every untorn snapshot
        with ``count > 0`` must satisfy ``mean == min == max == p50 == 0.5``
        and ``sum == 0.5 * count`` exactly (binary fractions)."""
        histogram = Histogram("repro_test_seconds")
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
        counter = Counter("repro_test_total")
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
        histogram = Histogram("repro_test_seconds")
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
        for tier in ("hits", "revalidated", "disk_hits", "built"):
            assert f"repro_translations_{tier}" in metrics

    def test_service_registers_into_a_registry(self):
        from repro.mechanisms.registry import default_registry
        from repro.service import ExplorationService
        from tests.service.util import small_table

        service = ExplorationService(
            small_table(256),
            budget=1.0,
            registry=default_registry(mc_samples=50),
            seed=0,
        )
        registry = MetricsRegistry()
        service.register_metrics(registry)
        snapshot = registry.snapshot()
        assert "repro_pool_budget" in snapshot or any(
            name.startswith("repro_pool_") for name in snapshot
        )
        assert all(metric_name_is_valid(name) for name in snapshot)
        for tier in ("hits", "revalidated", "disk_hits", "built"):
            assert f"repro_translations_{tier}" in snapshot

    def test_default_metrics_is_a_singleton(self):
        assert default_metrics() is default_metrics()
