"""Snapshot lifetime: the bounded memo and its stats.

The contract (``docs/consistency.md``): the table memoises a bounded
number of recent versions' snapshots (so identity-keyed caches stay warm
without unbounded pinning), and evicted snapshots keep serving the readers
that hold them.
"""

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
        assert set(stats) == {"live", "max_entries", "created", "evicted"}
