"""Tests for the experiment harness (scaled-down configurations)."""

import threading

import numpy as np
import pytest

from repro.bench.harness import (
    RUN_TIMINGS,
    RunTimings,
    ERExperimentConfig,
    ExperimentConfig,
    _mechanism_costs,
    _timed,
    clear_run_timings,
    empirical_error,
    last_run_timings,
    run_figure2,
    run_figure3,
    run_figure4a,
    run_figure4b,
    run_figure4c,
    run_figure5,
    run_figure6,
    run_table2,
)
from repro.bench.queries import build_benchmark
from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import SchemaError
from repro.mechanisms.registry import default_registry
from repro.queries.builders import histogram_workload, point_workload, prefix_workload
from repro.queries.query import (
    IcebergCountingQuery,
    TopKCountingQuery,
    WorkloadCountingQuery,
)


@pytest.fixture(scope="module")
def tiny_config():
    config = ExperimentConfig(
        adult_rows=3_000,
        nytaxi_rows=5_000,
        alpha_fractions=(0.08, 0.32),
        n_runs=2,
        mc_samples=300,
    )
    config.build_benchmark()
    return config


class TestEmpiricalError:
    def test_wcq_error(self, toy_table):
        query = WorkloadCountingQuery(point_workload("state", ["A", "B", "C"]))
        truth = query.true_counts(toy_table)
        noisy = truth + np.array([1.0, -2.0, 0.5])
        assert empirical_error(query, toy_table, noisy) == pytest.approx(2.0 / 12)

    def test_icq_error_zero_when_correct(self, toy_table):
        query = IcebergCountingQuery(point_workload("state", ["A", "B", "C"]), threshold=3.5)
        assert empirical_error(query, toy_table, query.true_answer(toy_table)) == 0.0

    def test_icq_error_for_mislabel(self, toy_table):
        query = IcebergCountingQuery(point_workload("state", ["A", "B", "C"]), threshold=3.5)
        # wrongly include A (count 3, distance 0.5) and wrongly exclude C (count 5)
        assert empirical_error(query, toy_table, ["state = A", "state = B"]) == pytest.approx(1.5 / 12)

    def test_tcq_error(self, toy_table):
        query = TopKCountingQuery(point_workload("state", ["A", "B", "C"]), k=1)
        # true top-1 is C (5); reporting A (3) is off by 2
        assert empirical_error(query, toy_table, ["state = A"]) == pytest.approx(2.0 / 12)
        assert empirical_error(query, toy_table, ["state = C"]) == 0.0


class TestFigure2And3:
    def test_figure2_records(self, tiny_config):
        tiny_config.queries = ["QW1", "QI4", "QT1"]
        records = run_figure2(tiny_config)
        tiny_config.queries = None
        assert len(records) == 3 * 2 * 2  # queries x alphas x runs
        for record in records:
            assert record["epsilon"] > 0
            assert record["empirical_error"] < record["alpha_fraction"]

    def test_figure2_error_decreases_with_alpha(self, tiny_config):
        tiny_config.queries = ["QW1"]
        records = run_figure2(tiny_config)
        tiny_config.queries = None
        tight = [r["epsilon"] for r in records if r["alpha_fraction"] == 0.08]
        loose = [r["epsilon"] for r in records if r["alpha_fraction"] == 0.32]
        assert min(tight) > max(loose)

    def test_figure3_f1_in_range(self, tiny_config):
        records = run_figure3(tiny_config, queries=("QI4", "QT1"))
        assert records
        assert all(0.0 <= r["f1"] <= 1.0 for r in records)


class TestTable2:
    def test_all_mechanisms_reported(self, tiny_config):
        tiny_config.queries = ["QW2", "QI2", "QT2"]
        records = run_table2(tiny_config, alpha_fractions=(0.08,))
        tiny_config.queries = None
        by_query = {}
        for record in records:
            by_query.setdefault(record["query"], set()).add(record["mechanism"])
        assert by_query["QW2"] == {"WCQ-LM", "WCQ-SM"}
        assert by_query["QI2"] == {"ICQ-LM", "ICQ-SM", "ICQ-MPM"}
        assert by_query["QT2"] == {"TCQ-LM", "TCQ-LTM"}

    def test_strategy_wins_on_prefix_workload(self, tiny_config):
        tiny_config.queries = ["QW2"]
        records = run_table2(tiny_config, alpha_fractions=(0.08,))
        tiny_config.queries = None
        costs = {r["mechanism"]: r["epsilon_median"] for r in records}
        assert costs["WCQ-SM"] < costs["WCQ-LM"]

    def test_laplace_wins_on_disjoint_histogram(self, tiny_config):
        tiny_config.queries = ["QW1"]
        records = run_table2(tiny_config, alpha_fractions=(0.08,))
        tiny_config.queries = None
        costs = {r["mechanism"]: r["epsilon_median"] for r in records}
        assert costs["WCQ-LM"] < costs["WCQ-SM"]

    def test_ltm_wins_on_multi_attribute_topk(self, tiny_config):
        tiny_config.queries = ["QT2"]
        records = run_table2(tiny_config, alpha_fractions=(0.08,))
        tiny_config.queries = None
        costs = {r["mechanism"]: r["epsilon_median"] for r in records}
        assert costs["TCQ-LTM"] < costs["TCQ-LM"]


class TestMechanismCosts:
    def test_schema_errors_propagate(self, adult_small):
        """A workload over a missing attribute raises instead of silently
        dropping the mechanism's Table 2 row."""
        query = WorkloadCountingQuery(prefix_workload("no_such_attr", [1.0, 2.0]))
        accuracy = AccuracySpec(alpha=0.08 * len(adult_small), beta=5e-4)
        for mechanism in default_registry(mc_samples=300).for_query(query):
            with pytest.raises(SchemaError):
                _mechanism_costs(
                    mechanism, query, accuracy, adult_small, 1, np.random.default_rng(0)
                )

    def test_untranslatable_accuracy_yields_no_costs(self, adult_small):
        """ICQ-LM has no positive epsilon for a one-bin iceberg at beta = 0.9."""
        query = IcebergCountingQuery(point_workload("age", [30.0]), threshold=10)
        mechanism = default_registry(mc_samples=300).get("ICQ-LM")
        accuracy = AccuracySpec(alpha=50.0, beta=0.9)
        costs = _mechanism_costs(
            mechanism, query, accuracy, adult_small, 1, np.random.default_rng(0)
        )
        assert costs == []


class TestFigure4:
    def test_figure4a_shapes(self, tiny_config):
        records = run_figure4a(tiny_config, workload_sizes=(20, 60))
        lm_qw2 = {r["workload_size"]: r["epsilon"] for r in records
                  if r["mechanism"] == "WCQ-LM" and r["template"] == "QW2"}
        lm_qw1 = {r["workload_size"]: r["epsilon"] for r in records
                  if r["mechanism"] == "WCQ-LM" and r["template"] == "QW1"}
        # LM on the cumulative workload grows roughly linearly with L
        assert lm_qw2[60] > 2 * lm_qw2[20]
        # LM on the disjoint histogram barely changes with L
        assert lm_qw1[60] < 1.5 * lm_qw1[20]

    def test_figure4b_shapes(self, tiny_config):
        records = run_figure4b(tiny_config, ks=(5, 10))
        ltm = {r["k"]: r["epsilon"] for r in records
               if r["mechanism"] == "TCQ-LTM" and r["template"] == "QT3"}
        lm = {r["k"]: r["epsilon"] for r in records
              if r["mechanism"] == "TCQ-LM" and r["template"] == "QT3"}
        # LTM cost is linear in k; LM cost is independent of k
        assert ltm[10] == pytest.approx(2 * ltm[5])
        assert lm[10] == pytest.approx(lm[5])

    def test_figure4c_mpm_varies_with_threshold(self, tiny_config):
        records = run_figure4c(tiny_config, threshold_fractions=(0.05, 0.9))
        mpm = {r["threshold_fraction"]: r["epsilon_median"] for r in records
               if r["mechanism"] == "ICQ-MPM"}
        lm = {r["threshold_fraction"]: r["epsilon_median"] for r in records
              if r["mechanism"] == "ICQ-LM"}
        # the baseline cost is flat; MPM's actual cost is data dependent
        assert lm[0.05] == pytest.approx(lm[0.9])
        assert mpm[0.9] < lm[0.9]


class TestERFigures:
    @pytest.fixture(scope="class")
    def er_config(self):
        return ERExperimentConfig(
            n_pairs=400,
            budgets=(0.5, 2.0),
            alpha_fractions=(0.08, 0.32),
            n_runs=1,
            mc_samples=200,
            strategies=("BS1", "MS2"),
        )

    def test_figure5_records(self, er_config):
        records = run_figure5(er_config)
        assert len(records) == 2 * 2 * 1  # strategies x budgets x runs
        for record in records:
            assert 0.0 <= record["quality"] <= 1.0
            assert record["epsilon_spent"] <= record["budget"] + 1e-9

    def test_figure6_records(self, er_config):
        records = run_figure6(er_config)
        assert len(records) == 2 * 2 * 1
        assert {r["figure"] for r in records} == {"6"}


class TestRunTimings:
    def test_timed_decorator_records_wall_clock(self):
        clear_run_timings()

        @_timed("unit-test")
        def slow():
            return sum(range(1000))

        assert slow() == sum(range(1000))
        timings = last_run_timings()
        assert "unit-test" in timings
        assert timings["unit-test"] >= 0.0
        # last_run_timings returns a copy, not the live registry
        timings["unit-test"] = -1.0
        assert RUN_TIMINGS["unit-test"] >= 0.0
        clear_run_timings()

    def test_timings_empty_after_clear(self):
        clear_run_timings()
        assert last_run_timings() == {}

    def test_mapping_reads_see_the_last_sample(self):
        timings = RunTimings()
        timings["figure2"] = 1.5
        timings["figure2"] = 2.5
        assert timings["figure2"] == 2.5
        assert dict(timings) == {"figure2": 2.5}
        assert len(timings) == 1

    def test_stats_aggregate_every_sample(self):
        timings = RunTimings()
        for value in (1.0, 2.0, 3.0):
            timings["figure2"] = value
        stats = timings.stats()["figure2"]
        assert stats["count"] == 3.0
        assert stats["mean"] == 2.0
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0

    def test_delete_and_clear_drop_the_histograms_too(self):
        timings = RunTimings()
        timings["a"] = 1.0
        timings["b"] = 2.0
        del timings["a"]
        assert "a" not in timings.stats()
        timings.clear()
        assert dict(timings) == {} and timings.stats() == {}

    def test_concurrent_writers_lose_no_samples(self):
        timings = RunTimings()
        n_threads, n_writes = 4, 2_000
        barrier = threading.Barrier(n_threads)

        def writer():
            barrier.wait()
            for _ in range(n_writes):
                timings["service.explore"] = 0.5

        threads = [threading.Thread(target=writer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = timings.stats()["service.explore"]
        assert stats["count"] == float(n_threads * n_writes)
        assert stats["mean"] == 0.5
        assert timings["service.explore"] == 0.5


class TestConfig:
    def test_benchmark_cached(self, tiny_config):
        assert tiny_config.build_benchmark() is tiny_config.build_benchmark()

    def test_selected_subset(self, tiny_config):
        benchmark = tiny_config.build_benchmark()
        tiny_config.queries = ["QW1"]
        assert [e.name for e in tiny_config.selected(benchmark)] == ["QW1"]
        tiny_config.queries = None
        assert len(tiny_config.selected(benchmark)) == 12

    def test_er_config_builds_cache_once(self):
        config = ERExperimentConfig(n_pairs=100)
        table1, cache1 = config.build_table()
        table2, cache2 = config.build_table()
        assert table1 is table2 and cache1 is cache2
