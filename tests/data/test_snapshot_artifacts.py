"""The snapshot owns every per-version artifact; the live table keeps none.

Concatenated columns, null masks, float views, category code columns and
the predicate-mask LRU live on the :class:`~repro.data.table.TableSnapshot`
of their version.  The live :class:`~repro.data.table.Table` reads them
through ``table.snapshot()``, so a live read and a snapshot read at one
version return the same object; an append leaves the old snapshot's
artifacts untouched and the next version starts empty.
``TableSnapshot(table)`` mints an unmemoised snapshot of the current version.
"""

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.core.exceptions import SnapshotError
from repro.data.schema import Attribute, CategoricalDomain, NumericDomain, Schema
from repro.data.table import Table, TableSnapshot
from repro.queries.predicates import Between, Comparison

SCHEMA = Schema(
    [
        Attribute("state", CategoricalDomain(("CA", "NY", "TX"))),
        Attribute("score", NumericDomain(0, 100)),
    ],
    name="Artifacts",
)
STATES = ("CA", "NY", "TX", None)


def rows(n: int, offset: int = 0) -> list[dict[str, object]]:
    return [
        {
            "state": STATES[(offset + i) % len(STATES)],
            "score": None if (offset + i) % 5 == 0 else float((offset + i) % 100),
        }
        for i in range(n)
    ]


def make_table(n: int = 12) -> Table:
    return Table.from_rows(SCHEMA, rows(n))


class TestLiveReadsAreSnapshotReads:
    @pytest.mark.parametrize("read", ["null_mask", "numeric_values", "category_codes"])
    def test_columnar_artifact_is_the_snapshots(self, read):
        table = make_table()
        table.append_rows(rows(4, offset=12))  # two shards: a real concatenation
        name = "state" if read == "category_codes" else "score"
        live = getattr(table, read)(name)
        assert getattr(table.snapshot(), read)(name) is live
        assert getattr(table, read)(name) is live

    def test_concatenated_column_is_the_snapshots(self):
        table = make_table()
        table.append_rows(rows(4, offset=12))
        column = table.snapshot()._column_data("score")
        assert table._column_data("score") is column
        assert np.shares_memory(table.column("score"), column)

    def test_cached_mask_is_the_snapshots_both_ways(self):
        table = make_table()
        through_snapshot = Comparison("state", "==", "CA")
        mask = through_snapshot.evaluate(table.snapshot())
        assert table.cached_mask(through_snapshot) is mask
        through_table = Between("score", 10.0, 60.0)
        mask = through_table.evaluate(table)
        assert table.snapshot().cached_mask(through_table) is mask
        assert table.mask_cache is table.snapshot().mask_cache

    def test_cache_mask_on_the_table_lands_in_the_snapshot(self):
        table = make_table()
        predicate = Comparison("state", "==", "NY")
        mask = table.cache_mask(
            predicate, np.array([r["state"] == "NY" for r in rows(12)])
        )
        assert not mask.flags.writeable
        assert table.snapshot().cached_mask(predicate) is mask
        assert predicate.evaluate(table) is mask


class TestAppendKeepsOldArtifacts:
    def test_old_snapshot_keeps_its_artifacts(self):
        table = make_table()
        old = table.snapshot()
        nulls = old.null_mask("score")
        codes = old.category_codes("state")
        predicate = Comparison("state", "==", "CA")
        mask = predicate.evaluate(old)
        table.append_rows(rows(6, offset=12))
        assert old.null_mask("score") is nulls
        assert old.category_codes("state") is codes
        assert old.cached_mask(predicate) is mask
        assert len(nulls) == len(codes[0]) == len(mask) == 12

    def test_new_version_rebuilds_its_artifacts(self):
        table = make_table()
        predicate = Comparison("state", "==", "CA")
        before = (table.null_mask("score"), table.category_codes("state"))
        mask = predicate.evaluate(table)
        table.append_rows(rows(6, offset=12))
        assert table.cached_mask(predicate) is None
        nulls, (codes, _) = table.null_mask("score"), table.category_codes("state")
        assert nulls is not before[0] and codes is not before[1][0]
        assert len(nulls) == len(codes) == 18
        np.testing.assert_array_equal(nulls[:12], before[0])
        np.testing.assert_array_equal(codes[:12], before[1][0])
        grown = predicate.evaluate(table)
        np.testing.assert_array_equal(grown[:12], mask)
        assert int(grown.sum()) == sum(r["state"] == "CA" for r in rows(18))

    def test_a_new_snapshot_starts_empty(self):
        table = make_table()
        Comparison("state", "==", "CA").evaluate(table)
        table.null_mask("score")
        table.category_codes("state")
        table.append_rows(rows(3, offset=12))
        fresh = table.snapshot()
        assert fresh._materialized == {}
        assert fresh._null_masks == {} and fresh._float_values == {}
        assert fresh._category_codes == {}
        assert len(fresh.mask_cache) == 0

    def test_refresh_leaves_the_old_snapshot_whole(self):
        table = make_table()
        old = table.snapshot()
        nulls = old.null_mask("score")
        table.refresh(rows(3, offset=40))
        assert old.null_mask("score") is nulls
        assert len(old) == 12 and len(table.null_mask("score")) == 3


class TestLiveReadsRacingAppends:
    """Each live read answers for one version, whatever append lands mid-read."""

    BASE, STEP, APPENDS, READERS = 40, 7, 40, 3

    def reference(self, n: int) -> dict[str, list[object]]:
        data = rows(n)
        return {
            "score": [np.nan if r["score"] is None else r["score"] for r in data],
            "state": [r["state"] for r in data],
        }

    def test_live_reads_equal_one_versions_column(self):
        table = Table.from_rows(SCHEMA, rows(self.BASE))
        lengths = {self.BASE + k * self.STEP for k in range(self.APPENDS + 1)}
        predicate = Comparison("state", "==", "TX")
        start = threading.Barrier(self.READERS + 1)
        done = threading.Event()
        reads: list[tuple[str, object]] = []
        errors: list[BaseException] = []

        def appender():
            try:
                start.wait(timeout=30)
                for k in range(self.APPENDS):
                    table.append_rows(rows(self.STEP, offset=self.BASE + k * self.STEP))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                done.set()

        def reader():
            try:
                start.wait(timeout=30)
                while not done.is_set():
                    codes, index = table.category_codes("state")
                    decoded = {code: value for value, code in index.items()}
                    reads.extend(
                        [
                            ("score", np.array(table.column("score"))),
                            ("nulls", np.array(table.null_mask("score"))),
                            ("state", [decoded.get(c) for c in codes]),
                            ("mask", np.array(predicate.evaluate(table))),
                            ("rows", table.to_rows()),
                        ]
                    )
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=appender)]
        threads += [threading.Thread(target=reader) for _ in range(self.READERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert reads
        for kind, value in reads:
            n = len(value)
            assert n in lengths, (kind, n)
            want = self.reference(n)
            if kind == "score":
                np.testing.assert_array_equal(value, want["score"])
            elif kind == "nulls":
                np.testing.assert_array_equal(value, np.isnan(want["score"]))
            elif kind == "state":
                assert value == want["state"]
            elif kind == "mask":
                assert value.tolist() == [s == "TX" for s in want["state"]]
            else:
                assert value == [
                    {"state": s, "score": None if np.isnan(x) else x}
                    for s, x in zip(want["state"], want["score"])
                ]


class TestUnmemoisedSnapshot:
    def test_constructor_is_unmemoised_and_current(self):
        table = make_table()
        table.append_rows(rows(5, offset=12))
        memoised = table.snapshot()
        created = table.snapshot_cache_stats()["created"]
        private = TableSnapshot(table)
        assert private is not memoised
        assert TableSnapshot(table) is not private
        assert table.snapshot() is memoised
        assert table.snapshot_cache_stats()["created"] == created
        assert private.version_token == table.version_token
        assert len(private) == len(table) == 17
        assert private.shards == table.shards

    def test_constructor_builds_its_own_artifacts(self):
        table = make_table()
        predicate = Comparison("state", "==", "CA")
        shared = predicate.evaluate(table)
        private = TableSnapshot(table)
        assert private.cached_mask(predicate) is None
        assert private.null_mask("score") is not table.null_mask("score")
        np.testing.assert_array_equal(predicate.evaluate(private), shared)

    def test_constructor_works_under_the_mutation_lock(self):
        table = make_table()
        with table._mutation_lock:  # an RLock: Table.snapshot() mints under it
            private = TableSnapshot(table)
        assert private.version_token == table.version_token

    def test_dropping_a_private_snapshot_frees_replaced_shards(self):
        table = make_table()
        private = TableSnapshot(table)
        old_shard = weakref.ref(private.shards[0])
        table.refresh(rows(4, offset=50))
        assert old_shard() is not None  # pinned by the private snapshot
        del private
        gc.collect()
        assert old_shard() is None


class TestClearCaches:
    def test_drops_the_memoised_snapshot_only(self):
        table = make_table()
        held = table.snapshot()
        nulls = held.null_mask("score")
        version = table.version_token
        table.clear_caches()
        assert table.version_token == version
        fresh = table.snapshot()
        assert fresh is not held
        assert fresh.null_mask("score") is not nulls
        assert held.null_mask("score") is nulls  # the holder keeps its snapshot

    def test_a_snapshot_refuses_it(self):
        with pytest.raises(SnapshotError):
            make_table().snapshot().clear_caches()
