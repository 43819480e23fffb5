"""Data-independent artifacts are keyed by the declared schema, not the data.

The contract (``docs/store.md``): a workload matrix, a translation list and
a WCQ-SM Monte-Carlo search read only the query and the schema's declared
domains, so an append -- whatever values it brings, inside the declared
domains -- serves the same matrix object, the same translation list and the
same search, while a different schema object never shares them.
Data-dependent caches (true counts, histograms) stay strictly
version-scoped.
"""

import numpy as np
import pytest

from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.data.schema import Attribute, CategoricalDomain, NumericDomain, Schema
from repro.data.table import Table
from repro.mechanisms.registry import default_registry
from repro.mechanisms.strategy_mechanism import reset_search_stats, search_stats
from repro.queries.predicates import Between, Comparison
from repro.queries.query import WorkloadCountingQuery
from repro.queries.reference import reference_mask
from repro.queries.workload import (
    Workload,
    clear_matrix_cache,
    matrix_cache_stats,
)

ACCURACY = AccuracySpec(alpha=20.0, beta=1e-3)


def make_schema() -> Schema:
    return Schema(
        [
            Attribute("state", CategoricalDomain(("CA", "NY", "TX")), nullable=True),
            Attribute("score", NumericDomain(0, 100), nullable=True),
        ],
        name="Reval",
    )


def make_table(schema) -> Table:
    rows = [
        {"state": ("CA", "NY")[i % 2], "score": float(i % 97)} for i in range(200)
    ]
    return Table.from_rows(schema, rows)


def make_workload() -> Workload:
    return Workload(
        [
            Comparison("state", "==", "CA"),
            Between("score", 10.0, 60.0),
            Comparison("score", ">", 80.0),
        ]
    )


def preserving_rows(n: int = 30) -> list[dict]:
    return [{"state": "CA", "score": float(3 * i % 100)} for i in range(n)]


@pytest.fixture(autouse=True)
def _fresh_process_wide_caches():
    clear_matrix_cache()
    reset_search_stats()
    yield


class TestMatrixAcrossAppends:
    def test_preserving_append_serves_the_same_matrix_object(self):
        schema = make_schema()
        table = make_table(schema)
        workload = make_workload()
        first = workload.analyze(schema)
        assert matrix_cache_stats()["built"] == 1

        table.append_rows(preserving_rows())
        again = workload.analyze(schema)
        stats = matrix_cache_stats()
        assert again is first  # the memo's own object, not a rebuild
        assert stats["built"] == 1
        assert stats["revalidated"] == 0
        assert stats["hits"] == 1

    def test_declared_but_unobserved_value_serves_the_same_matrix(self):
        schema = make_schema()
        table = make_table(schema)
        workload = make_workload()
        first = workload.analyze(schema)
        table.append_rows([{"state": "TX", "score": 1.0}])  # TX never observed
        again = workload.analyze(schema)
        assert again is first
        assert matrix_cache_stats()["built"] == 1
        # The matrix already had a column for every declared value.
        assert np.array_equal(again.matrix, first.matrix)

    def test_an_equal_but_distinct_schema_builds_its_own_matrix(self):
        """The memo keys the schema by identity: equal schemas never share
        (``NumericDomain(0, 100)`` and ``NumericDomain(0.0, 100.0)`` compare
        equal but digest differently)."""
        workload = make_workload()
        first = workload.analyze(make_schema())
        second = workload.analyze(make_schema())
        assert second is not first
        assert second.cache_token != first.cache_token
        assert matrix_cache_stats()["built"] == 2


class TestEngineAcrossAppends:
    def make_engine(self, table) -> APExEngine:
        return APExEngine(
            table, budget=1e6, registry=default_registry(mc_samples=200), seed=5
        )

    def test_preview_after_preserving_append_runs_zero_searches(self):
        table = make_table(make_schema())
        engine = self.make_engine(table)
        query = WorkloadCountingQuery(make_workload(), name="q")
        first = engine.preview_cost(query, ACCURACY)
        searches_before = search_stats()["searches"]
        assert searches_before >= 1

        table.append_rows(preserving_rows())
        post = engine.preview_cost(WorkloadCountingQuery(make_workload(), name="q"), ACCURACY)
        stats = engine.cache_stats()
        assert post == first
        assert search_stats()["searches"] == searches_before
        assert stats["workload_matrices"]["built"] == 1
        # A fresh but equal query after an append is a memo hit.
        assert stats["translations"]["hits"] == 1
        assert stats["translations"]["misses"] == 1
        assert stats["translations"]["built"] == 1

    def test_explore_after_preserving_append_reuses_search_but_recounts(self):
        table = make_table(make_schema())
        engine = self.make_engine(table)
        query = WorkloadCountingQuery(make_workload(), name="q")
        tight = AccuracySpec(alpha=0.5, beta=1e-3)  # sub-row noise scale
        first = engine.explore(query, tight)
        searches_before = search_stats()["searches"]

        table.append_rows(preserving_rows())
        second = engine.explore(query, tight)
        # Derivations were reused, not rebuilt...
        assert search_stats()["searches"] == searches_before
        assert engine.cache_stats()["workload_matrices"]["built"] == 1
        # ...but the data-dependent answer tracks the grown table.
        truth = np.array(
            [reference_mask(p, table).sum() for p in query.workload.predicates],
            dtype=float,
        )
        assert first and second
        assert np.allclose(second.noisy_counts, truth, atol=1.0)
        assert not np.allclose(first.noisy_counts, second.noisy_counts)

    def test_cache_stats_shape(self, tmp_path):
        from repro.store import ArtifactStore

        table = make_table(make_schema())
        engine = APExEngine(
            table,
            budget=10.0,
            registry=default_registry(mc_samples=200),
            seed=5,
            store=ArtifactStore(tmp_path / "store"),
        )
        engine.preview_cost(WorkloadCountingQuery(make_workload(), name="q"), ACCURACY)
        stats = engine.cache_stats()
        for section, tier in (("translations", "coalesced"), ("workload_matrices", "revalidated")):
            for key in ("hits", "misses", "built", tier):
                assert key in stats[section], (section, key)
        assert "token" not in stats["translations"]
        assert stats["workload_matrices"]["revalidated"] == 0
        assert "disk_hits" in stats["translations"]
        assert set(stats["wcqsm_search"]) == {"searches", "disk_hits", "disk_writes"}
        assert stats["store"]["writes"] >= 1
