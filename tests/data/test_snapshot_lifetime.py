"""Snapshot lifetime: the bounded memo, explicit close(), and the stats.

The request-scoped vs long-lived contract (``docs/consistency.md``): the
table memoises a bounded number of recent versions' snapshots (so
identity-keyed caches stay warm without unbounded pinning), evicted
snapshots keep serving the readers that hold them, and a long-lived holder
releases its pinned shard list explicitly via ``close()``.
"""

import numpy as np
import pytest

from repro.core.exceptions import SnapshotError
from repro.data.table import SNAPSHOT_MEMO_MAX_ENTRIES, Table
from repro.data.schema import Attribute, CategoricalDomain, NumericDomain, Schema
from repro.queries.predicates import Comparison


def make_table() -> Table:
    schema = Schema(
        [
            Attribute("state", CategoricalDomain(("CA", "NY"))),
            Attribute("score", NumericDomain(0, 100)),
        ],
        name="Lifetime",
    )
    rows = [{"state": ("CA", "NY")[i % 2], "score": float(i)} for i in range(20)]
    return Table.from_rows(schema, rows)


def grow(table: Table, n: int = 1) -> None:
    for _ in range(n):
        table.append_rows([{"state": "CA", "score": 1.0}])


class TestBoundedSnapshotMemo:
    def test_memo_is_bounded(self):
        table = make_table()
        held = []
        for _ in range(3 * SNAPSHOT_MEMO_MAX_ENTRIES):
            held.append(table.snapshot())
            grow(table)
        stats = table.snapshot_cache_stats()
        assert stats["live"] <= SNAPSHOT_MEMO_MAX_ENTRIES
        assert stats["evicted"] > 0
        assert stats["max_entries"] == SNAPSHOT_MEMO_MAX_ENTRIES

    def test_evicted_snapshot_keeps_working(self):
        table = make_table()
        old = table.snapshot()
        pinned = int(Comparison("state", "==", "CA").evaluate(old).sum())
        # Newer versions' snapshots push `old` out of the bounded memo.
        for _ in range(2 * SNAPSHOT_MEMO_MAX_ENTRIES):
            grow(table)
            table.snapshot()
        assert table.snapshot_cache_stats()["evicted"] > 0
        assert int(Comparison("state", "==", "CA").evaluate(old).sum()) == pinned
        assert len(old) == 20

    def test_created_and_reused_counters(self):
        table = make_table()
        first = table.snapshot()
        assert table.snapshot() is first
        assert table.snapshot() is first
        stats = table.snapshot_cache_stats()
        assert stats["created"] == 1
        assert set(stats) == {"live", "max_entries", "created", "evicted", "closed"}


class TestClose:
    def test_close_of_owned_snapshot_releases_and_poisons_reads(self):
        table = make_table()
        snap = table.open_snapshot()
        snap.close()
        assert snap.closed
        assert table.snapshot_cache_stats()["closed"] == 1
        with pytest.raises(SnapshotError, match="closed"):
            snap.column("state")
        with pytest.raises(SnapshotError, match="closed"):
            Comparison("state", "==", "CA").evaluate(snap)
        with pytest.raises(SnapshotError, match="closed"):
            snap.category_codes("state")
        assert snap.n_shards == 0  # the pinned shard list is released

    def test_owned_snapshot_is_private(self):
        table = make_table()
        owned = table.open_snapshot()
        assert table.snapshot() is not owned
        assert owned.version_token == table.version_token
        assert int(Comparison("state", "==", "CA").evaluate(owned).sum()) == 10

    def test_close_of_shared_snapshot_only_detaches(self):
        """The memoised snapshot is shared by every reader admitted at its
        version: close() must evict it from the memo (the table stops
        pinning/handing it out) without gutting it under other readers."""
        table = make_table()
        shared = table.snapshot()
        other_reader = table.snapshot()
        assert other_reader is shared
        shared.close()
        assert not shared.closed  # never poisoned: another reader may hold it
        # ...but the table no longer hands it out.
        assert table.snapshot() is not shared
        # The concurrent holder's reads are untouched.
        assert int(Comparison("state", "==", "CA").evaluate(other_reader).sum()) == 10

    def test_close_is_idempotent(self):
        table = make_table()
        for snap in (table.snapshot(), table.open_snapshot()):
            closed_before = table.snapshot_cache_stats()["closed"]
            snap.close()
            snap.close()
            assert table.snapshot_cache_stats()["closed"] == closed_before + 1

    def test_context_manager_closes_on_exit(self):
        table = make_table()
        with table.open_snapshot() as snap:
            counts = np.asarray(snap.column("score"))
            assert len(counts) == 20
        assert snap.closed

    def test_closing_an_old_handle_does_not_disturb_the_live_table(self):
        table = make_table()
        old = table.open_snapshot()
        grow(table)
        current = table.snapshot()
        old.close()
        assert not current.closed
        assert table.snapshot() is current
        assert int(Comparison("state", "==", "CA").evaluate(table).sum()) == 11
