"""Schema-keyed artifacts are never a stale reuse.

A workload matrix, a translation list, a WCQ-SM search and a disk key read
only the query and the schema's *declared* domains, so they are keyed by
``(query structure, schema)`` and an append never touches them.  That is
safe only if nothing the data can do -- a declared value seen for the first
time, the first NULL, a refresh, a run of one-row shards -- changes what
they would compute, while every data-dependent answer still tracks the
rows.  Pinned here:

* after each kind of mutation the same matrix object and the same
  translation list serve the grown table (memo hit, zero matrix builds,
  zero searches), and its histogram and true counts equal the
  row-at-a-time reference at the new snapshot;
* an engine stream whose appends introduce a declared but unobserved
  category and then the first NULL releases answers within alpha of the
  reference counts (WCQ) or equal to the reference bin set (ICQ) at every
  new snapshot, and an explore pinned at the pre-append snapshot still
  counts the old rows;
* schemas whose declared domains differ never share a matrix, a disk
  digest or a stored list.
"""

import numpy as np
import pytest

from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.core.translator import AccuracyTranslator
from repro.data.schema import (
    Attribute,
    CategoricalDomain,
    NumericDomain,
    Schema,
    TextDomain,
)
from repro.data.table import Table, TableSnapshot
from repro.mechanisms.registry import default_registry
from repro.mechanisms.strategy_mechanism import reset_search_stats, search_stats
from repro.queries.predicates import Between, Comparison, In, IsNull
from repro.queries.query import IcebergCountingQuery, WorkloadCountingQuery
from repro.queries.reference import reference_mask, reference_partition_histogram
from repro.queries.workload import Workload, clear_matrix_cache, matrix_cache_stats
from repro.store import ArtifactStore

MC_SAMPLES = 200
#: Sub-row noise: a released count within alpha of the truth rounds to it.
TIGHT = AccuracySpec(alpha=0.5, beta=1e-3)


def make_schema(states=("CA", "NY", "TX")) -> Schema:
    return Schema(
        [
            Attribute("state", CategoricalDomain(states), nullable=True),
            Attribute("score", NumericDomain(0, 100), nullable=True),
            Attribute("note", TextDomain()),
        ],
        name="NoStale",
    )


def make_table(schema: Schema, n: int = 120) -> Table:
    """Only CA and NY observed, no NULL anywhere."""
    rows = [
        {"state": ("CA", "NY")[i % 2], "score": float(i % 97), "note": f"n{i}"}
        for i in range(n)
    ]
    return Table.from_rows(schema, rows)


def make_workload() -> Workload:
    return Workload(
        [
            Comparison("state", "==", "CA"),
            In("state", ["NY", "TX"]),
            IsNull("state"),
            Between("score", 10.0, 60.0),
            IsNull("note"),
        ]
    )


def rows_with(state, n: int = 15) -> list[dict]:
    return [{"state": state, "score": float(7 * i % 100), "note": "x"} for i in range(n)]


def reference_counts(query, table) -> np.ndarray:
    return np.array(
        [reference_mask(p, table).sum() for p in query.workload.predicates], dtype=float
    )


@pytest.fixture(autouse=True)
def _fresh_process_wide_caches():
    clear_matrix_cache()
    reset_search_stats()
    yield
    clear_matrix_cache()


def _mutate(kind: str, table: Table) -> None:
    if kind == "observed_values":
        table.append_rows(rows_with("CA") + rows_with("NY"))
    elif kind == "unobserved_category":
        table.append_rows(rows_with("TX"))
    elif kind == "first_null":
        table.append_rows(rows_with(None))
    elif kind == "new_text_value":
        table.append_rows([{"state": "CA", "score": 1.0, "note": "never-seen"}])
    elif kind == "refresh":
        table.refresh(rows_with("TX", 40) + rows_with(None, 5))
    elif kind == "one_row_appends":
        for _ in range(6):
            table.append_rows(rows_with("TX", 1))
    else:  # pragma: no cover - a typo in the parametrisation
        raise AssertionError(kind)


MUTATIONS = (
    "observed_values",
    "unobserved_category",
    "first_null",
    "new_text_value",
    "refresh",
    "one_row_appends",
)


class TestEveryMutationKeepsTheSchemaKeyedArtifacts:
    @pytest.mark.parametrize("kind", MUTATIONS)
    def test_same_matrix_and_list_serve_the_mutated_table(self, kind):
        schema = make_schema()
        table = make_table(schema)
        translator = AccuracyTranslator(default_registry(mc_samples=MC_SAMPLES))
        query = WorkloadCountingQuery(make_workload(), name="q")
        first = translator.translations(query, TIGHT, schema)
        matrix = query.workload_matrix(schema)
        before = table.snapshot()
        old_counts = reference_counts(query, before)
        built, searches = matrix_cache_stats()["built"], search_stats()["searches"]
        assert searches >= 1  # WCQ-SM translated the cold query

        _mutate(kind, table)

        fresh = WorkloadCountingQuery(make_workload(), name="q")
        assert translator.translations(fresh, TIGHT, schema) == first
        assert translator.cache_stats["hits"] == 1
        assert translator.cache_stats["built"] == 1
        assert fresh.workload_matrix(schema) is matrix
        assert matrix_cache_stats()["built"] == built
        assert search_stats()["searches"] == searches
        # The data-dependent side tracks the rows, at both snapshots.
        now = table.snapshot()
        np.testing.assert_array_equal(
            matrix.partition_histogram(now),
            reference_partition_histogram(matrix, query.workload, now),
        )
        np.testing.assert_array_equal(matrix.true_answers(now), reference_counts(query, now))
        np.testing.assert_array_equal(matrix.true_answers(before), old_counts)


class TestDriftStreamThroughTheEngine:
    def test_new_category_then_first_null_never_reuse_a_stale_answer(self, tmp_path):
        schema = make_schema()
        table = make_table(schema)
        store = ArtifactStore(str(tmp_path))
        engine = APExEngine(
            table,
            budget=1e6,
            registry=default_registry(mc_samples=MC_SAMPLES),
            seed=11,
            store=store,
        )

        def query():
            return WorkloadCountingQuery(make_workload(), name="q")

        engine.preview_cost(query(), TIGHT)
        warm = engine.explore(query(), TIGHT)
        assert warm and warm.mechanism is not None
        pinned = TableSnapshot(table)
        old_truth = reference_counts(query(), pinned)
        matrices, searches = matrix_cache_stats()["built"], search_stats()["searches"]
        assert searches >= 1
        hits = engine.cache_stats()["translations"]["hits"]

        # "TX" is declared but unobserved; then the first NULL arrives.
        for rows in (rows_with("TX"), rows_with(None)):
            table.append_rows(rows)
            engine.preview_cost(query(), TIGHT)
            result = engine.explore(query(), TIGHT)
            hits += 2
            stats = engine.cache_stats()
            assert stats["translations"]["hits"] == hits  # the memo
            assert stats["translations"]["built"] == 1
            assert stats["workload_matrices"]["built"] == matrices == 1
            assert search_stats()["searches"] == searches
            truth = reference_counts(query(), table.snapshot())
            assert result and result.noisy_counts is not None
            assert np.abs(result.noisy_counts - truth).max() < TIGHT.alpha
            assert not np.array_equal(truth, old_truth)
        assert store.stats()["writes"] == 1

        # An explore admitted on the pre-append snapshot counts the old rows.
        old = engine.explore(query(), TIGHT, snapshot=pinned)
        assert np.abs(old.noisy_counts - old_truth).max() < TIGHT.alpha

    def test_iceberg_answers_follow_the_new_category_and_the_first_null(self):
        """ICQ bins cross the threshold as the new rows arrive; every answer
        is the reference set at its snapshot, with nothing rebuilt."""
        schema = make_schema()
        table = make_table(schema)
        engine = APExEngine(
            table, budget=1e6, registry=default_registry(mc_samples=MC_SAMPLES), seed=5
        )
        # Integer counts against 10.5 +- 0.4: no count is within alpha of c.
        accuracy, threshold = AccuracySpec(alpha=0.4, beta=1e-3), 10.5

        def query():
            return IcebergCountingQuery(make_workload(), threshold, name="iceberg")

        def expected(snapshot):
            counts = reference_counts(query(), snapshot)
            return [name for name, count in zip(query().bin_names(), counts) if count > threshold]

        first = engine.explore(query(), accuracy)
        assert first.answer == expected(table.snapshot())
        answers = [first.answer]
        for rows in (rows_with("TX", 12), rows_with(None, 12)):
            table.append_rows(rows)
            result = engine.explore(query(), accuracy)
            assert result.answer == expected(table.snapshot())
            answers.append(result.answer)
        # The NULL bin crossed the threshold only at the last snapshot.
        assert [len(answer) for answer in answers] == [3, 3, 4]
        assert engine.cache_stats()["translations"]["built"] == 1
        assert matrix_cache_stats()["built"] == 1


class TestSchemasNeverShare:
    def test_other_declared_domains_get_their_own_matrix_and_digest(self):
        narrow, wide = make_schema(("CA", "NY")), make_schema(("CA", "NY", "TX"))
        translator = AccuracyTranslator(default_registry(mc_samples=MC_SAMPLES))
        query = WorkloadCountingQuery(make_workload(), name="q")
        applicable = translator.registry.for_query(query)

        first, second = query.workload_matrix(narrow), query.workload_matrix(wide)
        assert first is not second
        assert first.cache_token != second.cache_token
        assert first._shard_histograms is not second._shard_histograms
        assert matrix_cache_stats()["built"] == 2
        digests = [
            translator._store_digest(query, TIGHT, schema, applicable)
            for schema in (narrow, wide)
        ]
        assert None not in digests and digests[0] != digests[1]

    def test_a_store_never_serves_one_schema_another_schemas_list(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        for states in (("CA", "NY"), ("CA", "NY", "TX")):
            engine = APExEngine(
                make_table(make_schema(states)),
                budget=1.0,
                registry=default_registry(mc_samples=MC_SAMPLES),
                store=store,
            )
            engine.preview_cost(WorkloadCountingQuery(make_workload(), name="q"), TIGHT)
            stats = engine.cache_stats()["translations"]
            assert (stats["disk_hits"], stats["built"], stats["disk_writes"]) == (0, 1, 1)
        assert store.stats()["writes"] == 2

    def test_equal_schema_objects_share_a_digest_but_not_a_matrix(self):
        """In memory the schema is keyed by identity; on disk by content."""
        one, other = make_schema(), make_schema()
        assert one == other and one is not other
        translator = AccuracyTranslator(default_registry(mc_samples=MC_SAMPLES))
        query = WorkloadCountingQuery(make_workload(), name="q")
        applicable = translator.registry.for_query(query)
        assert query.workload_matrix(one) is not query.workload_matrix(other)
        assert translator._store_digest(
            query, TIGHT, one, applicable
        ) == translator._store_digest(query, TIGHT, other, applicable)
