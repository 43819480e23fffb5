"""The staleness regression class: no data cache survives a table mutation.

Every memo this stack grew (per-table mask LRU, workload-matrix memo,
translator memo, WCQ-SM's Monte-Carlo search, the histogram/true-count
caches) was built under a "tables never change" assumption.  These tests pin
the fix.  Each *data* cache keys on the table's version token, so after
``append_rows`` a structurally identical request recounts against the grown
data.  The *data-independent* memos (matrix, translation, search) read only
the query and the declared schema, so they key on those alone and serve the
grown table unchanged: there is nothing in them an append could make stale
(``tests/store/test_schema_keys.py`` and
``tests/queries/test_no_stale_reuse.py`` pin that contract).
"""

import numpy as np

from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.core.translator import AccuracyTranslator
from repro.data.schema import (
    Attribute,
    CategoricalDomain,
    NumericDomain,
    Schema,
)
from repro.data.table import Table
from repro.mechanisms.registry import default_registry
from repro.mechanisms.strategy_mechanism import StrategyMechanism
from repro.queries.predicates import Between, Comparison
from repro.queries.query import WorkloadCountingQuery
from repro.queries.reference import reference_mask
from repro.queries.workload import Workload, clear_matrix_cache, matrix_cache_stats


def make_schema() -> Schema:
    return Schema(
        [
            Attribute("state", CategoricalDomain(("CA", "NY", "TX")), nullable=True),
            Attribute("score", NumericDomain(0, 100), nullable=True),
        ],
        name="Staleness",
    )


def make_table(schema: Schema) -> Table:
    rows = [
        {"state": ("CA", "NY", "TX", None)[i % 4], "score": float(i % 97)}
        for i in range(200)
    ]
    return Table.from_rows(schema, rows)


def extra_rows() -> list[dict]:
    return [{"state": "CA", "score": float(3 * i % 100)} for i in range(40)]


def make_workload() -> Workload:
    return Workload(
        [
            Comparison("state", "==", "CA"),
            Between("score", 10.0, 60.0),
            Comparison("score", ">", 80.0),
        ]
    )


ACCURACY = AccuracySpec(alpha=20.0, beta=1e-3)


class TestMatrixMemoAcrossAppends:
    def test_matrix_memo_hits_after_append(self):
        clear_matrix_cache()
        schema = make_schema()
        table = make_table(schema)
        workload = make_workload()

        first = workload.analyze(schema)
        misses_after_first = matrix_cache_stats()["misses"]
        again = workload.analyze(schema)
        assert again is first  # memo hit
        assert matrix_cache_stats()["misses"] == misses_after_first

        table.append_rows(extra_rows())
        # Domain analysis is data independent: the same object serves the
        # grown table, and nothing is rebuilt.
        assert workload.analyze(schema) is first
        assert matrix_cache_stats()["misses"] == misses_after_first
        assert matrix_cache_stats()["built"] == 1

    def test_query_level_matrix_slot_survives_append(self):
        clear_matrix_cache()
        schema = make_schema()
        table = make_table(schema)
        query = WorkloadCountingQuery(make_workload(), name="q")
        m1 = query.workload_matrix(schema)
        assert query.workload_matrix(schema) is m1
        table.append_rows(extra_rows())
        lookups = matrix_cache_stats()["hits"] + matrix_cache_stats()["misses"]
        assert query.workload_matrix(schema) is m1
        # The slot answers without probing the module-level memo.
        assert matrix_cache_stats()["hits"] + matrix_cache_stats()["misses"] == lookups


class TestStrategyMechanismAcrossAppends:
    def test_wcq_sm_search_is_shared_after_append(self):
        clear_matrix_cache()
        schema = make_schema()
        table = make_table(schema)
        query = WorkloadCountingQuery(make_workload(), name="q")
        mechanism = StrategyMechanism(mc_samples=200)

        mechanism.translate(query, ACCURACY, schema)
        stats = mechanism._cache.stats()
        assert stats["size"] == 1

        # A repeat shares the Monte-Carlo search: no new entry.
        mechanism.translate(query, ACCURACY, schema)
        stats = mechanism._cache.stats()
        assert stats["size"] == 1
        assert stats["hits"] >= 1

        hits = stats["hits"]
        table.append_rows(extra_rows())
        mechanism.translate(query, ACCURACY, schema)
        stats = mechanism._cache.stats()
        assert stats["size"] == 1  # the search reads no row: same key
        assert stats["hits"] == hits + 1


class TestTranslatorMemoAcrossAppends:
    def test_translator_memo_hits_after_append(self):
        clear_matrix_cache()
        schema = make_schema()
        table = make_table(schema)
        translator = AccuracyTranslator(default_registry(mc_samples=200))
        query = WorkloadCountingQuery(make_workload(), name="q")

        def exact_lookup():
            """(hits, misses) added by one translation."""
            before = translator.cache_stats
            translator.translations(query, ACCURACY, schema)
            after = translator.cache_stats
            return after["hits"] - before["hits"], after["misses"] - before["misses"]

        assert exact_lookup() == (0, 1)
        assert exact_lookup() == (1, 0)
        table.append_rows(extra_rows())
        # Translation never reads the rows, so the grown table is served
        # the same list.
        assert exact_lookup() == (1, 0)
        assert translator.cache_stats["built"] == 1


class TestDataCachesStaleness:
    def test_true_counts_recount_after_append(self):
        schema = make_schema()
        table = make_table(schema)
        query = WorkloadCountingQuery(make_workload(), name="q")
        before = query.true_counts(table).copy()
        table.append_rows(extra_rows())
        after = query.true_counts(table)
        expected = np.array(
            [reference_mask(p, table).sum() for p in query.workload.predicates],
            dtype=float,
        )
        assert np.array_equal(after, expected)
        assert not np.array_equal(after, before)

    def test_partition_histogram_recomputes_after_append(self):
        clear_matrix_cache()
        schema = make_schema()
        table = make_table(schema)
        workload = make_workload()
        matrix = workload.analyze(schema)
        before = matrix.partition_histogram(table).copy()
        table.append_rows(extra_rows())
        after = matrix.partition_histogram(table)
        assert after.sum() > before.sum()
        assert np.allclose(matrix.matrix @ after, workload.true_answers(table))

    def test_matrix_true_answers_recount_after_append(self):
        clear_matrix_cache()
        schema = make_schema()
        table = make_table(schema)
        workload = make_workload()
        matrix = workload.analyze(schema)
        assert matrix.exact
        pinned = table.snapshot()
        before = matrix.true_answers(pinned).copy()
        table.append_rows(extra_rows())
        after = matrix.true_answers(table)
        expected = np.array(
            [reference_mask(p, table).sum() for p in workload.predicates], dtype=float
        )
        assert np.array_equal(after, expected)
        assert not np.array_equal(after, before)
        # The pinned snapshot still answers for its own version.
        assert np.array_equal(matrix.true_answers(pinned), before)

    def test_engine_explore_answers_track_the_grown_table(self):
        clear_matrix_cache()
        schema = make_schema()
        table = make_table(schema)
        engine = APExEngine(
            table, budget=1e6, registry=default_registry(mc_samples=200), seed=5
        )
        query = WorkloadCountingQuery(make_workload(), name="q")
        tight = AccuracySpec(alpha=0.5, beta=1e-3)  # sub-row noise scale
        first = engine.explore(query, tight)
        table.append_rows(extra_rows())
        second = engine.explore(query, tight)
        truth = np.array(
            [reference_mask(p, table).sum() for p in query.workload.predicates],
            dtype=float,
        )
        # The post-append answer is centred on the *grown* counts; the tight
        # alpha keeps the noise well below one row.
        assert first and second
        assert np.allclose(second.noisy_counts, truth, atol=1.0)
