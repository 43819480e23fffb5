"""Streaming ingest: ``append_rows`` between requests invalidates correctly.

The acceptance scenario for the versioned backend: a structurally identical
``preview_cost`` issued before and after the owner appends rows.  The
matrix and the translation read only the query and the declared schema, so
the second call is a memo hit whatever the append brought -- values
already observed or a declared value seen for the first time -- and nothing
is rebuilt (``docs/store.md``).  Every data-dependent answer served
afterwards must match the reference semantics on the grown data -- under
concurrency as well as single-threaded.
"""

import threading

import numpy as np
import pytest

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import ApexError
from repro.mechanisms.registry import default_registry
from repro.queries.builders import histogram_workload
from repro.queries.query import WorkloadCountingQuery
from repro.queries.reference import reference_mask
from repro.queries.workload import Workload, clear_matrix_cache
from repro.service import ExplorationService
from repro.service.replay import AnalystScript, ScriptRequest, replay

from tests.service.util import small_table


def make_service(table, **kwargs) -> ExplorationService:
    kwargs.setdefault("budget", 1e6)
    kwargs.setdefault("registry", default_registry(mc_samples=200))
    kwargs.setdefault("seed", 3)
    return ExplorationService(table, **kwargs)


def make_query(bins: int = 6) -> WorkloadCountingQuery:
    # Re-built per call: structurally equal but distinct objects, as
    # independent requests would be.
    return WorkloadCountingQuery(
        histogram_workload("amount", start=0, stop=10_000, bins=bins),
        name="stream-hist",
    )


def append_batch(n: int = 300, seed: int = 77) -> list[dict]:
    rng = np.random.default_rng(seed)
    regions = [f"region-{i:02d}" for i in range(12)]
    return [
        {
            "region": regions[int(rng.integers(12))],
            "channel": "web",
            "amount": float(rng.uniform(0, 10_000)),
            "age": float(rng.integers(0, 101)),
        }
        for _ in range(n)
    ]


ACCURACY = AccuracySpec(alpha=100.0, beta=5e-4)


class TestAppendBetweenPreviews:
    def test_append_leaves_the_translation_an_exact_hit(self):
        """The translation reads no row, so the post-append preview is a
        memo hit on the same list: zero rebuilds, nothing translated."""
        clear_matrix_cache()
        table = small_table()
        service = make_service(table)
        service.register_analyst("alice")

        def counters() -> tuple[int, int, int]:
            stats = service.stats()
            return (
                stats["translations"]["hits"],
                stats["translations"]["built"],
                stats["workload_matrices"]["built"],
            )

        first = service.preview_cost("alice", make_query(), ACCURACY)
        hits_0, translated_0, built_0 = counters()
        assert built_0 == 1

        # Warm repeat on the same version: memo hit, nothing rebuilt.
        warm = service.preview_cost("alice", make_query(), ACCURACY)
        hits_1, translated_1, built_1 = counters()
        assert warm == first
        assert hits_1 > hits_0
        assert (translated_1, built_1) == (translated_0, built_0)

        version = service.append_rows("default", append_batch())
        assert version.ordinal == 1
        assert service.stats()["tables"]["default"]["shards"] == 2

        # Structurally identical preview after the append: the memo key
        # hits, and answers with the same data-independent translation.
        post = service.preview_cost("alice", make_query(), ACCURACY)
        hits_2, translated_2, built_2 = counters()
        assert post == first
        assert hits_2 == hits_1 + 1
        assert (translated_2, built_2) == (translated_1, built_1)

    def test_append_of_an_unobserved_declared_value_rebuilds_nothing(self):
        """An append that introduces a previously unobserved (but declared)
        categorical value changes nothing the translation reads: the matrix
        already has the value's column."""
        from repro.queries.predicates import Comparison
        from repro.queries.workload import Workload

        clear_matrix_cache()
        base = small_table()
        # Restrict the observed regions to the first six of the twelve the
        # schema declares, so an append can introduce a *legal* new value.
        rows = []
        for i in range(400):
            row = base.row(i)
            row["region"] = f"region-{i % 6:02d}"
            rows.append(row)
        from repro.data.table import Table

        table = Table.from_rows(base.schema, rows)
        service = make_service(table)
        service.register_analyst("alice")

        def make_region_query() -> WorkloadCountingQuery:
            return WorkloadCountingQuery(
                Workload(
                    [Comparison("region", "==", f"region-{i:02d}") for i in range(6)]
                ),
                name="region-hist",
            )

        def counters() -> tuple[int, int, int]:
            stats = service.stats()
            return (
                stats["translations"]["hits"],
                stats["translations"]["built"],
                stats["workload_matrices"]["built"],
            )

        service.preview_cost("alice", make_region_query(), ACCURACY)
        hits_0, built_0, matrices_0 = counters()

        # An append of already-observed regions only.
        service.append_rows(
            "default", [dict(rows[0], region="region-03") for _ in range(5)]
        )
        service.preview_cost("alice", make_region_query(), ACCURACY)
        assert counters() == (hits_0 + 1, built_0, matrices_0)

        # region-06 is declared but was never observed.
        service.append_rows(
            "default", [dict(rows[0], region="region-06") for _ in range(5)]
        )
        service.preview_cost("alice", make_region_query(), ACCURACY)
        assert counters() == (hits_0 + 2, built_0, matrices_0)

    def test_post_append_answers_match_reference_semantics(self):
        clear_matrix_cache()
        table = small_table()
        service = make_service(table)
        service.register_analyst("alice")
        tight = AccuracySpec(alpha=0.5, beta=1e-3)  # sub-row noise

        query = make_query()
        service.preview_cost("alice", query, ACCURACY)
        service.append_rows("default", append_batch())

        result = service.explore("alice", make_query(), tight)
        assert result
        truth = np.array(
            [reference_mask(p, table).sum() for p in query.workload.predicates],
            dtype=float,
        )
        assert len(table) == 2_300  # the service mutated the shared table
        assert np.allclose(result.noisy_counts, truth, atol=1.0)

    def test_unknown_table_rejected(self):
        service = make_service(small_table())
        with pytest.raises(ApexError, match="unknown table"):
            service.append_rows("nope", append_batch(1))

    def test_refresh_table_resets_rows(self):
        table = small_table()
        service = make_service(table)
        service.refresh_table("default", append_batch(50))
        assert len(table) == 50
        assert service.stats()["tables"]["default"]["version"] == 1


class TestStreamingUnderConcurrency:
    def test_appends_between_request_rounds_stay_consistent(self):
        """Analysts hammer previews while the owner appends between rounds;
        every answer must be internally consistent and the final state must
        match the reference semantics on the fully grown table."""
        clear_matrix_cache()
        table = small_table(1_000)
        service = make_service(table)
        n_analysts, n_rounds = 4, 3
        for i in range(n_analysts):
            service.register_analyst(f"a{i}")
        errors: list[str] = []
        round_barrier = threading.Barrier(n_analysts + 1)  # analysts + owner

        def analyst(i: int) -> None:
            try:
                for _ in range(n_rounds):
                    round_barrier.wait()
                    service.preview_cost(f"a{i}", make_query(), ACCURACY)
                    round_barrier.wait()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(f"a{i}: {type(exc).__name__}: {exc}")

        def owner() -> None:
            try:
                for round_index in range(n_rounds):
                    round_barrier.wait()
                    round_barrier.wait()  # requests of this round are done
                    if round_index < n_rounds - 1:
                        service.append_rows("default", append_batch(100, seed=round_index))
            except Exception as exc:  # noqa: BLE001
                errors.append(f"owner: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=analyst, args=(i,)) for i in range(n_analysts)
        ] + [threading.Thread(target=owner)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        assert len(table) == 1_000 + (n_rounds - 1) * 100
        assert table.version_token.ordinal == n_rounds - 1
        query = make_query()
        truth = np.array(
            [reference_mask(p, table).sum() for p in query.workload.predicates],
            dtype=float,
        )
        assert np.array_equal(query.true_counts(table), truth)
        assert service.validate()


class TestReplayStreamingScript:
    def test_append_rows_op_replays_between_requests(self):
        clear_matrix_cache()
        table = small_table()
        service = make_service(table)
        preview_text = (
            "BIN D ON COUNT(*) WHERE W = {amount BETWEEN 0 AND 5000, "
            "amount BETWEEN 5000 AND 10000} ERROR 100 CONFIDENCE 0.9995;"
        )
        script = AnalystScript(
            analyst="alice",
            table="default",
            requests=(
                ScriptRequest("preview", preview_text),
                ScriptRequest("append_rows", rows=tuple(append_batch(40))),
                ScriptRequest("preview", preview_text),
            ),
        )
        report = replay(service, [script])
        assert [o.error for o in report.outcomes] == [None, None, None]
        ops = [o.op for o in report.outcomes]
        assert ops.count("append_rows") == 1
        append_outcome = next(
            o for o in report.outcomes if o.op == "append_rows"
        )
        assert "40 rows" in append_outcome.query_name
        assert len(table) == 2_040
        assert report.transcript_valid

    def test_failed_append_rows_outcome_names_the_op(self):
        table = small_table()
        service = make_service(table)
        bad_rows = tuple(dict(row, amount="n/a") for row in append_batch(3))
        script = AnalystScript(
            analyst="alice",
            table="default",
            requests=(ScriptRequest("append_rows", rows=bad_rows),),
        )
        (outcome,) = replay(service, [script]).outcomes
        assert outcome.error is not None and not outcome.denied
        assert outcome.query_name == "append_rows[3 rows]"
        assert len(table) == 2_000

    def test_append_rows_request_validation(self):
        with pytest.raises(ApexError, match="non-empty 'rows'"):
            ScriptRequest("append_rows")
        with pytest.raises(ApexError, match="query 'text'"):
            ScriptRequest("preview")
        with pytest.raises(ApexError, match="unknown script op"):
            ScriptRequest("mutate", text="x")
