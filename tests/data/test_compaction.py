"""Shard compaction: layout-only rewrites under an unchanged version token.

The policy (``COMPACT_MAX_SHARDS`` / ``COMPACT_MIN_FRACTION``) bounds shard
fragmentation under streaming appends; the contract is that compaction may
change *only* the physical layout -- row order, contents, the version token,
and therefore every version-keyed cache, are untouched, and shards large
enough to stand alone keep their shard objects and interned codes by identity.
"""

from typing import Iterable

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.data.table as table_module
from repro.core.exceptions import SchemaError
from repro.data.schema import (
    Attribute,
    CategoricalDomain,
    NumericDomain,
    Schema,
)
from repro.data.table import (
    COMPACT_MAX_SHARDS,
    Table,
)
from repro.queries.predicates import Between, Comparison
from repro.queries.workload import Workload


def append_uncompacted(table: Table, chunks: Iterable[list[dict]]) -> Table:
    """Append each chunk as its own shard with the compaction policy held off.

    The policy is restored on return, so the next append or ``compact()``
    call merges the fragments as usual.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(table_module, "COMPACT_MIN_FRACTION", 0.0)
        for rows in chunks:
            table.append_rows(rows)
    return table


def make_schema() -> Schema:
    return Schema(
        [
            Attribute("state", CategoricalDomain(("CA", "NY", "TX")), nullable=True),
            Attribute("score", NumericDomain(0, 100), nullable=True),
        ],
        name="Compaction",
    )


def make_rows(n: int, offset: int = 0) -> list[dict]:
    return [
        {
            "state": ("CA", "NY", "TX", None)[(offset + i) % 4],
            "score": float((offset + 3 * i) % 97),
        }
        for i in range(n)
    ]


def make_columns(n: int) -> dict[str, np.ndarray]:
    return {
        "state": np.array([("CA", "NY", "TX", None)[i % 4] for i in range(n)], dtype=object),
        "score": np.arange(n, dtype=float) % 97,
    }


def columns_equal(a: Table, b: Table) -> bool:
    for name in a.schema.attribute_names:
        left, right = a.column(name), b.column(name)
        if len(left) != len(right):
            return False
        if left.dtype == float:
            if not np.array_equal(
                np.nan_to_num(left), np.nan_to_num(right)
            ) or not np.array_equal(np.isnan(left), np.isnan(right)):
                return False
        elif not all(x == y for x, y in zip(left, right)):
            return False
    return True


class TestCompactionPolicy:
    def test_small_tail_shards_merge(self):
        table = Table.from_rows(make_schema(), make_rows(10_000))
        for i in range(5):
            table.append_rows(make_rows(20, offset=i * 20))
        # 20-row appends are far below 1% of ~10k rows: the tail runs merge.
        assert table.n_shards == 2
        assert table.shard_sizes == (10_000, 100)

    def test_balanced_appends_do_not_compact(self):
        table = Table.from_rows(make_schema(), make_rows(100))
        table.append_rows(make_rows(80, offset=100))
        table.append_rows(make_rows(90, offset=180))
        assert table.n_shards == 3  # every shard is >= 1% of the rows

    def test_shard_count_is_bounded(self):
        table = Table.from_rows(make_schema(), make_rows(50))
        for i in range(3 * COMPACT_MAX_SHARDS):
            table.append_rows(make_rows(50, offset=50 * i))
        assert table.n_shards <= COMPACT_MAX_SHARDS

    def test_unfired_policy_leaves_shards_until_compact(self):
        table = Table(
            make_schema(),
            {
                "state": np.array(["CA"] * 1000, dtype=object),
                "score": np.arange(1000, dtype=float),
            },
        )
        append_uncompacted(table, (make_rows(2, offset=i) for i in range(8)))
        assert table.n_shards == 9
        assert table.compact()
        # Small shards merge into ~threshold-sized groups (here: the 1000-row
        # base stands alone, the 8x2-row tail folds into two groups).
        assert table.shard_sizes == (1000, 12, 4)

    def test_small_shard_between_large_ones_merges(self):
        table = Table.from_rows(make_schema(), make_rows(10_000))
        table.append_rows(make_rows(50))
        table.append_rows(make_rows(10_000))
        assert table.shard_sizes == (10_050, 10_000)
        assert not table._needs_compaction_locked()

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.integers(1, 60) | st.integers(1_000, 12_000) | st.just(200),
            min_size=2,
            max_size=10,
        )
    )
    @example([10_000, 50, 10_000])
    @example([10_000, 50, 30, 10_000])
    def test_policy_is_quiet_after_every_append(self, sizes):
        table = Table(make_schema(), make_columns(sizes[0]))
        for n in sizes[1:]:
            table.append_columns(make_columns(n))
            assert not table._needs_compaction_locked()
        assert table.shard_sizes and sum(table.shard_sizes) == sum(sizes)

    def test_singleton_small_run_is_a_noop(self):
        table = Table.from_rows(make_schema(), make_rows(10_000))
        table.append_rows(make_rows(20, offset=0))
        assert table.n_shards == 2  # nothing adjacent to merge with
        assert table.compact() is False
        assert table.n_shards == 2


class TestZeroRowAppend:
    def test_empty_append_is_a_no_op(self):
        table = Table.from_rows(make_schema(), make_rows(100))
        snap = table.snapshot()
        token = table.version_token
        assert table.append_rows([]) == token
        assert table.version_token == token
        assert table.shard_sizes == (100,)
        # The per-version caches survive: the memoised snapshot is reused.
        assert table.snapshot() is snap

    def test_malformed_empty_chunk_still_raises(self):
        table = Table.from_rows(make_schema(), make_rows(10))
        with pytest.raises(SchemaError):
            table.append_columns({"state": np.empty(0, dtype=object)})
        with pytest.raises(SchemaError):
            table.append_columns(
                {
                    "state": np.empty(0, dtype=object),
                    "score": np.empty(0),
                    "extra": np.empty(0),
                }
            )

    def test_empty_append_never_arms_the_policy(self, monkeypatch):
        table = Table.from_rows(make_schema(), make_rows(1000))
        table.append_rows(make_rows(100))
        table.append_rows([])
        passes = []
        compact_locked = Table._compact_locked
        monkeypatch.setattr(
            Table,
            "_compact_locked",
            lambda self: passes.append(1) or compact_locked(self),
        )
        for i in range(3):
            table.append_rows(make_rows(100, offset=i))
        assert table.shard_sizes == (1000, 100, 100, 100, 100)
        assert passes == []


class TestCompactionContract:
    TAIL = [make_rows(3, offset=100 * i) for i in range(12)]

    def base_table(self) -> Table:
        return Table(
            make_schema(),
            {
                "state": np.array(
                    [("CA", "NY", "TX", None)[i % 4] for i in range(400)],
                    dtype=object,
                ),
                "score": np.arange(400, dtype=float),
            },
        )

    def build_fragmented(self) -> Table:
        return append_uncompacted(self.base_table(), self.TAIL)

    def test_parity_with_uncompacted_layout(self):
        compacted = self.base_table()
        for rows in self.TAIL:
            compacted.append_rows(rows)
        fragmented = self.build_fragmented()
        assert compacted.n_shards < fragmented.n_shards
        assert len(compacted) == len(fragmented)
        assert columns_equal(compacted, fragmented)
        workload = Workload(
            [
                Comparison("state", "==", "CA"),
                Between("score", 10.0, 200.0),
                Comparison("score", ">", 300.0),
            ]
        )
        assert np.array_equal(
            workload.evaluate(compacted), workload.evaluate(fragmented)
        )

    def test_compact_preserves_version_token_and_caches(self):
        table = self.build_fragmented()
        predicate = Comparison("state", "==", "CA")
        mask = predicate.evaluate(table)
        version = table.version_token
        snap = table.snapshot()
        assert table.compact()
        # Layout changed, nothing else did.
        assert table.version_token == version
        assert columns_equal(table, snap)
        # The cached mask is still row-aligned and still served by identity.
        assert predicate.evaluate(table) is mask
        # Earlier snapshots keep their own pinned (uncompacted) shard list.
        assert snap.n_shards > table.n_shards
        assert np.array_equal(predicate.evaluate(snap), mask)

    def test_compact_refreshes_the_memoised_snapshot(self):
        """New admissions after an explicit compact() must see the merged
        layout (the memoised snapshot is re-pinned), while masks stay warm
        across the re-pin -- same version token, same shared LRU."""
        table = self.build_fragmented()
        predicate = Comparison("state", "==", "CA")
        before = table.snapshot()
        mask = predicate.evaluate(before)
        assert table.compact()
        after = table.snapshot()
        assert after is not before
        assert after.n_shards == table.n_shards < before.n_shards
        assert after.version_token == before.version_token
        assert predicate.evaluate(after) is mask  # shared LRU stayed warm

    def test_untouched_large_shards_keep_their_shard_and_codes(self):
        table = self.build_fragmented()
        table.category_codes("state")  # intern every shard
        shards_before = list(table._shards)
        base = shards_before[0]  # the 400-row base shard stands alone
        base_codes = base.codes["state"]
        assert table.compact()
        assert table._shards[0] is base
        assert table._shards[0].codes["state"] is base_codes
        assert len(table._shards) < len(shards_before)

    def test_merged_shards_inherit_interned_codes(self):
        table = self.build_fragmented()
        codes_before, index = table.category_codes("state")
        assert table.compact()
        codes_after, index_after = table.category_codes("state")
        assert index_after is index  # shared dictionary, never rebound
        assert np.array_equal(codes_before, codes_after)

    def test_compaction_with_appends_racing_reads(self):
        """Auto-compaction under a pinned reader: the snapshot's masks and
        counts are unaffected by merges happening on the live table."""
        table = Table.from_rows(make_schema(), make_rows(5_000))
        snap = table.snapshot()
        workload = Workload(
            [Comparison("state", "==", "NY"), Between("score", 0.0, 50.0)]
        )
        expected = workload.true_answers(snap)
        for i in range(10):
            table.append_rows(make_rows(5, offset=i))  # triggers compaction
        assert table.n_shards < 11
        assert np.array_equal(workload.true_answers(snap), expected)
