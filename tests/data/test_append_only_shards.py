"""A table's shard list only grows at its end.

``append_rows`` adds one shard after the last, ``refresh`` replaces the
whole list with one new shard, and nothing else rewrites it; derived tables
(``filter``, ``take``, ``concat``) freeze shards of their own.  So two
snapshots of one table that hold the same shard at position ``n - 1`` hold
the same first ``n`` shards.

An exact workload matrix leans on that: its next histogram starts from the
last one it summed and adds only the shards appended since.  The parity
tests here replay random histories -- appends, a refresh followed by
appends, two tables sharing one schema (and so one matrix) read
alternately, reads at old snapshots after newer ones -- and require every
histogram to equal the row-at-a-time reference of
:func:`repro.queries.reference.reference_partition_histogram`.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import SchemaError
from repro.data.schema import (
    Attribute,
    CategoricalDomain,
    NumericDomain,
    Schema,
)
from repro.data.table import Table, TableSnapshot
from repro.queries.predicates import Between, Comparison, IsNull
from repro.queries.reference import reference_partition_histogram
from repro.queries.workload import (
    Workload,
    WorkloadMatrix,
    clear_matrix_cache,
    matrix_cache_stats,
)


SCHEMA = Schema(
    [
        Attribute("state", CategoricalDomain(("CA", "NY", "TX")), nullable=True),
        Attribute("score", NumericDomain(0, 100), nullable=True),
    ],
    name="AppendOnly",
)


def make_rows(n: int, offset: int = 0) -> list[dict]:
    return [
        {
            "state": ("CA", "NY", "TX", None)[(offset + i) % 4],
            "score": float((offset + 3 * i) % 97),
        }
        for i in range(n)
    ]


def random_rows(seed: int, n: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [
        {
            "state": None if rng.random() < 0.1 else ("CA", "NY", "TX")[rng.integers(3)],
            "score": None if rng.random() < 0.1 else float(rng.integers(0, 101)),
        }
        for _ in range(n)
    ]


def workload() -> Workload:
    return Workload(
        [
            Comparison("state", "==", "CA"),
            Comparison("state", "!=", "TX"),
            IsNull("score"),
            Between("score", 10.0, 60.0),
            Comparison("score", ">", 40.0),
        ]
    )


class TestZeroRowAppend:
    def test_empty_append_is_a_no_op(self):
        table = Table.from_rows(SCHEMA, make_rows(100))
        snap = table.snapshot()
        token = table.version_token
        assert table.append_rows([]) == token
        assert table.version_token == token
        assert table.shard_sizes == (100,)
        # The per-version caches survive: the memoised snapshot is reused.
        assert table.snapshot() is snap

    def test_malformed_empty_chunk_still_raises(self):
        table = Table.from_rows(SCHEMA, make_rows(10))
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

    def test_empty_append_leaves_no_zero_row_shard(self):
        table = Table.from_rows(SCHEMA, make_rows(1000))
        table.append_rows(make_rows(100))
        table.append_rows([])
        for i in range(3):
            table.append_rows(make_rows(100, offset=i))
        assert table.shard_sizes == (1000, 100, 100, 100, 100)


class TestLayout:
    def test_appends_only_extend_the_shard_list(self):
        table = Table.from_rows(SCHEMA, make_rows(50))
        before = table.shards
        for i, n in enumerate((1, 7, 1, 300, 2)):
            table.append_rows(make_rows(n, offset=i))
            after = table.shards
            assert len(after) == len(before) + 1
            assert all(a is b for a, b in zip(after, before))
            assert after[-1].n_rows == n
            before = after

    def test_small_appends_are_never_merged(self):
        table = Table.from_rows(SCHEMA, make_rows(10_000))
        for i in range(150):
            table.append_rows(make_rows(1, offset=i))
        assert table.shard_sizes == (10_000,) + (1,) * 150
        flat = Table.from_rows(
            SCHEMA, make_rows(10_000) + [make_rows(1, offset=i)[0] for i in range(150)]
        )
        matrix = workload().analyze(SCHEMA)
        np.testing.assert_array_equal(
            matrix.partition_histogram(table), matrix.partition_histogram(flat)
        )

    @settings(max_examples=50, deadline=None)
    @given(sizes=st.lists(st.integers(0, 40), max_size=30))
    def test_shard_sizes_are_the_non_empty_append_sizes(self, sizes):
        table = Table.from_rows(SCHEMA, make_rows(25))
        for i, n in enumerate(sizes):
            table.append_rows(make_rows(n, offset=i))
        assert table.shard_sizes == (25,) + tuple(n for n in sizes if n)
        assert len(table) == 25 + sum(sizes)

    def test_an_append_leaves_older_snapshots_as_they_were(self):
        table = Table.from_rows(SCHEMA, make_rows(30))
        old = table.snapshot()
        token = table.version_token
        assert table.append_rows(make_rows(4)) == token.advanced()
        new = table.snapshot()
        assert new is not old and new.version_token == token.advanced()
        assert old.version_token == token
        assert old.shard_sizes == (30,) and len(old) == 30
        assert new.shard_sizes == (30, 4) and new.shards[0] is old.shards[0]

    def test_appends_keep_earlier_shards_codes_and_sorted_copies(self):
        table = Table.from_rows(SCHEMA, [{"state": "CA", "score": 1.0}] * 20)
        first = table.shards[0]
        table.category_codes("state")
        codes = first.codes["state"]
        ordered = table.shard_sorted_values(first, "score")
        table.append_rows([{"state": "TX", "score": 2.0}, {"state": None, "score": 3.0}])
        table.append_rows([{"state": "NY", "score": 4.0}])
        all_codes, index = table.category_codes("state")
        assert table.shards[0] is first
        assert first.codes["state"] is codes
        assert table.shard_sorted_values(first, "score") is ordered
        # The new shards extend the shared dictionary in arrival order.
        assert index == {"CA": 0, "TX": 1, "NY": 2}
        assert all_codes.tolist() == [0] * 20 + [1, -1, 2]

    def test_appends_racing_reads_see_growing_prefixes(self):
        clear_matrix_cache()
        table = Table.from_rows(SCHEMA, random_rows(0, 100))
        matrix = workload().analyze(SCHEMA)
        done = threading.Event()
        errors: list[BaseException] = []
        seen: dict = {}
        seen_lock = threading.Lock()

        def appender():
            try:
                for i in range(80):
                    table.append_rows(random_rows(i + 1, 1 + i % 3))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                done.set()

        def reader():
            try:
                before: tuple = ()
                while not done.is_set() or not before:
                    snapshot = table.snapshot()
                    shards = snapshot.shards
                    assert len(shards) >= len(before)
                    assert all(a is b for a, b in zip(shards, before))
                    histogram = matrix.partition_histogram(snapshot)
                    with seen_lock:
                        seen.setdefault(snapshot.version_token, (snapshot, histogram))
                    before = shards
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=appender)]
        threads += [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert table.n_shards == 81
        for snapshot, histogram in seen.values():
            np.testing.assert_array_equal(
                histogram, reference_partition_histogram(matrix, workload(), snapshot)
            )
        assert_reference(matrix, table.snapshot())
        clear_matrix_cache()

    def test_refresh_replaces_the_whole_list(self):
        table = Table.from_rows(SCHEMA, make_rows(20))
        table.append_rows(make_rows(5))
        old = set(map(id, table.shards))
        table.refresh(make_rows(8))
        assert table.shard_sizes == (8,)
        assert id(table.shards[0]) not in old

    def test_derived_tables_share_no_shard(self):
        table = Table.from_rows(SCHEMA, make_rows(20))
        table.append_rows(make_rows(5))
        source = {id(shard) for shard in table.shards}
        for derived in (
            table.filter(np.ones(len(table), dtype=bool)),
            table.take(range(len(table))),
            table.concat(table),
            table.snapshot().filter(np.ones(len(table), dtype=bool)),
        ):
            assert not source & {id(shard) for shard in derived.shards}


# ---------------------------------------------------------------------------
# The running sum: parity against the reference over random histories
# ---------------------------------------------------------------------------


def assert_reference(matrix, snapshot) -> None:
    np.testing.assert_array_equal(
        matrix.partition_histogram(snapshot),
        reference_partition_histogram(matrix, workload(), snapshot),
    )


#: One step of a history over two tables sharing ``SCHEMA``: ``(kind, which
#: table, rows, seed)``; the seed also picks the snapshot an ``"old"`` read
#: re-reads.
steps = st.tuples(
    st.sampled_from(["append", "append", "read", "old", "refresh"]),
    st.integers(0, 1),
    st.integers(0, 25),
    st.integers(0, 2**16),
)


class TestRunningSumParity:
    @settings(max_examples=120, deadline=None)
    @given(history=st.lists(steps, min_size=1, max_size=24))
    def test_every_read_equals_the_reference(self, history):
        clear_matrix_cache()
        matrix = workload().analyze(SCHEMA)
        renamed = Workload(workload().predicates, [f"w{i}" for i in range(5)])
        # Equal predicates over one schema object: one matrix object.
        assert renamed.analyze(SCHEMA) is matrix
        tables = [Table.from_rows(SCHEMA, random_rows(i, 30)) for i in range(2)]
        pinned: list[list] = [[t.snapshot()] for t in tables]
        for kind, which, n, seed in history:
            table = tables[which]
            if kind == "append":
                table.append_rows(random_rows(seed, n))
            elif kind == "refresh":
                table.refresh(random_rows(seed, n))
            if kind == "old":
                snapshot = pinned[which][seed % len(pinned[which])]
            else:
                snapshot = table.snapshot()
                pinned[which].append(snapshot)
            assert_reference(matrix, snapshot)
            # A private snapshot misses the per-snapshot entry, so it sums.
            assert_reference(matrix, TableSnapshot(table))
        clear_matrix_cache()


class TestRunningSumCost:
    @pytest.fixture(autouse=True)
    def cold_memo(self):
        clear_matrix_cache()
        yield
        clear_matrix_cache()

    @staticmethod
    def summed(monkeypatch) -> list:
        """Record the shard of every per-shard histogram a sum reads."""
        shards: list = []
        shard_histogram = WorkloadMatrix._shard_histogram

        def recording(self, table, shard):
            shards.append(shard)
            return shard_histogram(self, table, shard)

        monkeypatch.setattr(WorkloadMatrix, "_shard_histogram", recording)
        return shards

    def test_an_append_sums_only_the_new_shard(self, monkeypatch):
        table = Table.from_rows(SCHEMA, random_rows(0, 400))
        for i in range(40):
            table.append_rows(random_rows(i + 1, 3))
        matrix = workload().analyze(SCHEMA)
        summed = self.summed(monkeypatch)
        assert_reference(matrix, table.snapshot())
        assert len(summed) == 41
        for k in (5, 1, 12):
            summed.clear()
            rows = matrix_cache_stats()["histogram_rows"]
            table.append_rows(random_rows(k, k))
            assert_reference(matrix, table.snapshot())
            assert summed == [table.shards[-1]]
            assert matrix_cache_stats()["histogram_rows"] == rows + k

    def test_a_refreshed_table_sums_its_own_shards(self, monkeypatch):
        table = Table.from_rows(SCHEMA, random_rows(0, 100))
        table.append_rows(random_rows(1, 10))
        matrix = workload().analyze(SCHEMA)
        assert_reference(matrix, table.snapshot())
        table.refresh(random_rows(2, 60))
        table.append_rows(random_rows(3, 10))
        summed = self.summed(monkeypatch)
        assert_reference(matrix, table.snapshot())
        assert summed == list(table.shards)

    def test_an_older_snapshot_sums_its_own_shards(self, monkeypatch):
        table = Table.from_rows(SCHEMA, random_rows(0, 100))
        old = table.snapshot()
        table.append_rows(random_rows(1, 10))
        matrix = workload().analyze(SCHEMA)
        assert_reference(matrix, table.snapshot())
        summed = self.summed(monkeypatch)
        assert_reference(matrix, TableSnapshot(table))
        assert summed == []  # the last read's shards: nothing to add
        assert_reference(matrix, old)
        assert summed == list(old.shards)

    def test_several_appends_since_the_last_read_are_summed_together(self, monkeypatch):
        table = Table.from_rows(SCHEMA, random_rows(0, 100))
        matrix = workload().analyze(SCHEMA)
        assert_reference(matrix, table.snapshot())
        for i in range(3):
            table.append_rows(random_rows(i + 1, 4 + i))
        summed = self.summed(monkeypatch)
        assert_reference(matrix, table.snapshot())
        assert summed == list(table.shards[1:])

    def test_an_empty_append_sums_nothing(self, monkeypatch):
        table = Table.from_rows(SCHEMA, random_rows(0, 100))
        table.append_rows(random_rows(1, 10))
        matrix = workload().analyze(SCHEMA)
        assert_reference(matrix, table.snapshot())
        summed = self.summed(monkeypatch)
        table.append_rows([])
        assert_reference(matrix, table.snapshot())
        assert summed == []

    def test_alternating_tables_sum_their_own_shards(self, monkeypatch):
        first = Table.from_rows(SCHEMA, random_rows(0, 50))
        first.append_rows(random_rows(1, 5))
        second = Table.from_rows(SCHEMA, random_rows(2, 40))
        second.append_rows(random_rows(3, 6))
        matrix = workload().analyze(SCHEMA)
        assert_reference(matrix, first.snapshot())
        assert_reference(matrix, second.snapshot())
        summed = self.summed(monkeypatch)
        rows = matrix_cache_stats()["histogram_rows"]
        first.append_rows(random_rows(4, 7))
        assert_reference(matrix, first.snapshot())
        # The last read was the other table's: every shard is summed, but
        # only the appended one is coded.
        assert summed == list(first.shards)
        assert matrix_cache_stats()["histogram_rows"] == rows + 7
