"""Snapshot-isolated reads: wait-free against concurrent appends, bit-for-bit.

The tentpole contract of the snapshot read path:

* ``Table.snapshot()`` pins the shard list and the version token; nothing a
  concurrent ``append_rows``/``refresh`` does can reach a pinned reader --
  no shape-check errors, no mixed versions, no blocking on writers.
* Every evaluation consumer (predicate masks, ``Workload.evaluate``,
  mechanism runs, ``APExEngine.explore``, the service entry points) answers
  for exactly the version it was admitted at, byte for byte.
* Snapshot-scoped evaluations are always cacheable under the pinned token
  (the mask-LRU admission bugfix).
"""

import threading

import numpy as np
import pytest

from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.core.exceptions import SnapshotError
from repro.data.schema import (
    Attribute,
    CategoricalDomain,
    NumericDomain,
    Schema,
)
from repro.data.table import Table, TableSnapshot
from repro.mechanisms.registry import default_registry
from repro.queries.predicates import Between, Comparison
from repro.queries.query import WorkloadCountingQuery
from repro.queries.reference import reference_mask
from repro.queries.workload import Workload


def make_schema() -> Schema:
    return Schema(
        [
            Attribute("state", CategoricalDomain(("CA", "NY", "TX")), nullable=True),
            Attribute("score", NumericDomain(0, 100), nullable=True),
        ],
        name="SnapshotIsolation",
    )


def make_rows(n: int, offset: int = 0) -> list[dict]:
    return [
        {
            "state": ("CA", "NY", "TX", None)[(offset + i) % 4],
            "score": float((offset + 7 * i) % 97),
        }
        for i in range(n)
    ]


def make_workload() -> Workload:
    return Workload(
        [
            Comparison("state", "==", "CA"),
            Between("score", 10.0, 60.0),
            Comparison("score", ">", 80.0),
        ]
    )


ACCURACY = AccuracySpec(alpha=0.5, beta=1e-3)


class TestSnapshotBasics:
    def test_snapshot_pins_version_rows_and_shards(self):
        table = Table.from_rows(make_schema(), make_rows(40))
        snap = table.snapshot()
        assert isinstance(snap, TableSnapshot)
        assert snap.is_snapshot and not table.is_snapshot
        assert snap.version_token == table.version_token
        table.append_rows(make_rows(10, offset=40))
        assert len(snap) == 40
        assert len(table) == 50
        assert snap.version_token != table.version_token
        # The pinned columns are byte-identical to the pre-append state.
        assert len(snap.column("score")) == 40

    def test_snapshot_is_memoised_per_version(self):
        table = Table.from_rows(make_schema(), make_rows(12))
        first = table.snapshot()
        assert table.snapshot() is first
        assert first.snapshot() is first  # snapshot of a snapshot is itself
        table.append_rows(make_rows(4, offset=12))
        second = table.snapshot()
        assert second is not first
        assert table.snapshot() is second

    def test_snapshot_mutators_raise(self):
        table = Table.from_rows(make_schema(), make_rows(8))
        snap = table.snapshot()
        with pytest.raises(SnapshotError):
            snap.append_rows(make_rows(1))
        with pytest.raises(SnapshotError):
            snap.append_columns({})
        with pytest.raises(SnapshotError):
            snap.refresh(make_rows(1))

    def test_snapshot_derivations_are_mutable_tables(self):
        table = Table.from_rows(make_schema(), make_rows(8))
        snap = table.snapshot()
        derived = snap.filter(np.ones(8, dtype=bool))
        assert not derived.is_snapshot
        derived.append_rows(make_rows(2))  # fresh table, mutation allowed
        assert len(derived) == 10

    def test_snapshot_shares_mask_cache_with_same_version_reads(self):
        table = Table.from_rows(make_schema(), make_rows(30))
        snap = table.snapshot()
        predicate = Comparison("state", "==", "CA")
        mask = predicate.evaluate(snap)
        # Live-table reads at the same version are served the same entry.
        assert table.cached_mask(predicate) is mask
        assert predicate.evaluate(table) is mask

    def test_snapshot_survives_refresh(self):
        table = Table.from_rows(make_schema(), make_rows(20))
        snap = table.snapshot()
        expected = snap.column("score").copy()
        table.refresh(make_rows(5, offset=500))
        assert len(table) == 5
        assert np.array_equal(
            np.nan_to_num(snap.column("score")), np.nan_to_num(expected)
        )

    def test_snapshot_scoped_evaluation_is_always_cached(self):
        """The mask-LRU admission bugfix: an evaluation that runs while a
        mutation lands is snapshot-scoped, so it is cached in the pinned
        snapshot's mask LRU instead of being discarded."""
        table = Table.from_rows(make_schema(), make_rows(25))
        snap = table.snapshot()
        table.append_rows(make_rows(5, offset=25))  # mutation "in flight"
        predicate = Between("score", 10.0, 60.0)
        mask = predicate.evaluate(snap)  # evaluated after the append landed
        assert len(mask) == 25
        assert snap.cached_mask(predicate) is mask  # never discarded
        assert predicate.evaluate(snap) is mask


class TestWaitFreeRace:
    """Background appends racing reads: no errors, answers pin the version."""

    N_APPENDS = 30
    ROWS_PER_APPEND = 20

    def _run_race(self, read_once, table):
        """Drive ``read_once`` in the foreground while appends land."""
        errors: list[BaseException] = []
        stop = threading.Event()

        def appender():
            try:
                for i in range(self.N_APPENDS):
                    table.append_rows(
                        make_rows(self.ROWS_PER_APPEND, offset=1000 + i)
                    )
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        thread = threading.Thread(target=appender)
        thread.start()
        try:
            while not stop.is_set():
                read_once()
            read_once()  # once more after the final append
        finally:
            thread.join()
        assert not errors, errors

    def test_workload_evaluation_never_fails_and_pins_its_version(self):
        table = Table.from_rows(make_schema(), make_rows(200))
        workload = make_workload()

        def read_once():
            snap = table.snapshot()
            expected_rows = len(snap)
            counts = workload.true_answers(snap)
            # The counts describe the pinned version: re-counting the same
            # snapshot after any number of appends is bit-for-bit identical.
            assert len(snap) == expected_rows
            assert np.array_equal(counts, workload.true_answers(snap))

        self._run_race(read_once, table)
        # After the race the live table has every appended row.
        assert len(table) == 200 + self.N_APPENDS * self.ROWS_PER_APPEND

    def test_explore_never_fails_under_concurrent_appends(self):
        table = Table.from_rows(make_schema(), make_rows(200))
        engine = APExEngine(
            table, budget=1e9, registry=default_registry(mc_samples=100), seed=3
        )
        query = WorkloadCountingQuery(make_workload(), name="race-wcq")
        results = []

        def read_once():
            result = engine.explore(query, ACCURACY)
            assert result
            assert len(result.noisy_counts) == query.workload_size
            results.append(result)

        self._run_race(read_once, table)
        assert results

    def test_pinned_explore_matches_static_twin_bit_for_bit(self):
        """An explore admitted on a pinned snapshot answers exactly as an
        identical engine over a frozen copy of that version -- even though
        appends land while the mechanism runs."""
        schema = make_schema()
        rows_v0 = make_rows(300)
        live = Table.from_rows(schema, rows_v0)
        frozen = Table.from_rows(schema, rows_v0)
        pinned = live.snapshot()

        live_engine = APExEngine(
            live, budget=1e9, registry=default_registry(mc_samples=100), seed=11
        )
        twin_engine = APExEngine(
            frozen, budget=1e9, registry=default_registry(mc_samples=100), seed=11
        )
        live_query = WorkloadCountingQuery(make_workload(), name="pinned")
        twin_query = WorkloadCountingQuery(make_workload(), name="pinned")

        def read_once():
            live_result = live_engine.explore(
                live_query, ACCURACY, snapshot=pinned
            )
            twin_result = twin_engine.explore(twin_query, ACCURACY)
            assert np.array_equal(
                live_result.noisy_counts, twin_result.noisy_counts
            )
            assert live_result.epsilon_spent == twin_result.epsilon_spent

        self._run_race(read_once, live)
        assert len(live) > len(pinned)

    def test_true_counts_at_pinned_version_match_reference(self):
        table = Table.from_rows(make_schema(), make_rows(150))
        workload = make_workload()
        snap = table.snapshot()
        expected = np.array(
            [reference_mask(p, snap).sum() for p in workload.predicates],
            dtype=float,
        )

        def read_once():
            assert np.array_equal(workload.true_answers(snap), expected)

        self._run_race(read_once, table)


class TestServiceSnapshotAdmission:
    def test_service_explores_race_appends_without_errors(self):
        from repro.service import ExplorationService

        table = Table.from_rows(make_schema(), make_rows(200))
        service = ExplorationService(
            {"t": table},
            budget=1e9,
            registry=default_registry(mc_samples=100),
            seed=7,
        )
        service.register_analyst("alice", table="t")
        query = WorkloadCountingQuery(make_workload(), name="svc-race")
        errors: list[BaseException] = []
        stop = threading.Event()

        def appender():
            try:
                for i in range(20):
                    service.append_rows("t", make_rows(25, offset=2000 + i))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        thread = threading.Thread(target=appender)
        thread.start()
        answered = 0
        try:
            # At least three requests, and keep going while appends land.
            while not stop.is_set() or answered < 3:
                service.preview_cost("alice", query, ACCURACY)
                result = service.explore("alice", query, ACCURACY)
                assert result
                answered += 1
        finally:
            thread.join()
        assert not errors, errors
        assert answered >= 1
        assert service.validate()
        assert len(table) == 200 + 20 * 25
