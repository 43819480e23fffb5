"""The shared append-only category dictionary and per-shard code interning.

Categorical columns are dictionary-encoded per *shard* against one
append-only ``value -> code`` index shared by a table and its snapshots.
The contract: codes are stable for the table's lifetime (values are only
ever added), a shard is interned at most once, and the parent's per-version
code column is a concatenation of per-shard arrays -- so after an append
only the new shard is interned.  Racing readers of one fresh shard all get
the one published code array.
"""

import sys
import threading

import numpy as np

from repro.data.schema import (
    Attribute,
    CategoricalDomain,
    NumericDomain,
    Schema,
)
from repro.data.table import Table
from repro.queries.predicates import Comparison, In


def make_schema() -> Schema:
    return Schema(
        [
            Attribute(
                "state",
                CategoricalDomain(("CA", "NY", "TX", "WY")),
                nullable=True,
            ),
            Attribute("score", NumericDomain(0, 100), nullable=True),
        ],
        name="Interning",
    )


def make_rows(n: int, states=("CA", "NY", None)) -> list[dict]:
    return [
        {"state": states[i % len(states)], "score": float(i % 97)}
        for i in range(n)
    ]


def decode(codes: np.ndarray, index: dict) -> list:
    inverse = {code: value for value, code in index.items()}
    return [None if c == -1 else inverse[int(c)] for c in codes]


class TestSharedDictionary:
    def test_codes_round_trip_across_shards(self):
        table = Table.from_rows(make_schema(), make_rows(9))
        table.append_rows(make_rows(6, states=("TX", "WY")))
        codes, index = table.category_codes("state")
        assert codes.dtype == np.int32
        assert decode(codes, index) == list(table.column("state"))

    def test_append_reuses_old_shard_codes_by_identity(self):
        table = Table.from_rows(make_schema(), make_rows(50))
        table.category_codes("state")
        base_codes = table._shards[0].codes["state"]
        table.append_rows(make_rows(10, states=("TX",)))
        codes, _ = table.category_codes("state")
        # The base shard was NOT re-interned: same array object.
        assert table._shards[0].codes["state"] is base_codes
        assert len(codes) == 60

    def test_index_is_append_only_and_never_rebound(self):
        table = Table.from_rows(make_schema(), make_rows(12))
        _, index_before = table.category_codes("state")
        ca_code = index_before["CA"]
        table.append_rows(make_rows(4, states=("WY",)))
        _, index_after = table.category_codes("state")
        assert index_after is index_before  # one dictionary per table lineage
        assert index_after["CA"] == ca_code  # codes never renumber
        assert "WY" in index_after

    def test_refresh_keeps_the_dictionary(self):
        table = Table.from_rows(make_schema(), make_rows(12))
        _, index = table.category_codes("state")
        ny_code = index["NY"]
        table.refresh(make_rows(5, states=("TX",)))
        codes, index_after = table.category_codes("state")
        assert index_after is index
        assert index_after["NY"] == ny_code  # vanished value keeps its code
        assert ny_code not in codes  # ...and matches no current row

    def test_snapshots_share_shard_objects_and_code_arrays(self):
        table = Table.from_rows(make_schema(), make_rows(20))
        table.append_rows(make_rows(10, states=("TX", "WY")))
        snap = table.snapshot()
        assert snap._shards[1] is table._shards[1]
        snap_codes, _ = snap.category_codes("state")
        shard_codes = table._shards[1].codes["state"]  # interned via the snapshot
        parent_codes, _ = table.category_codes("state")
        # The live table reuses the snapshot's per-shard array, not a re-intern.
        assert table._shards[1].codes["state"] is shard_codes
        assert np.array_equal(parent_codes[20:], shard_codes)
        assert np.array_equal(parent_codes, snap_codes)

    def test_snapshots_share_the_dictionary(self):
        table = Table.from_rows(make_schema(), make_rows(15))
        snap = table.snapshot()
        _, snap_index = snap.category_codes("state")
        _, live_index = table.category_codes("state")
        assert snap_index is live_index

    def test_predicates_match_values_interned_by_other_shards(self):
        # A value first seen in shard 2 must be invisible to shard-1-only
        # data and visible on the full table -- regardless of interning order.
        table = Table.from_rows(make_schema(), make_rows(8, states=("CA",)))
        eq_wy = Comparison("state", "==", "WY")
        assert int(eq_wy.evaluate(table).sum()) == 0
        table.append_rows(make_rows(4, states=("WY",)))
        assert int(eq_wy.evaluate(table).sum()) == 4
        assert int(In("state", ["WY", "CA"]).evaluate(table).sum()) == 12

    def test_extra_dictionary_values_do_not_leak_into_matches(self):
        # The shared index may hold values no current row carries; != and IN
        # must still match exactly the rows that carry a *present* value.
        table = Table.from_rows(make_schema(), make_rows(10, states=("CA", "NY")))
        table.category_codes("state")
        table.refresh(make_rows(6, states=("TX", None)))
        ne_tx = Comparison("state", "!=", "TX")
        # NULLs never match; only TX rows exist, so != TX matches nothing.
        assert int(ne_tx.evaluate(table).sum()) == 0
        assert int(In("state", ["CA", "NY"]).evaluate(table).sum()) == 0


class TestConcurrentInterning:
    def test_racing_readers_share_one_code_array(self):
        table = Table.from_rows(make_schema(), make_rows(10))
        states = tuple(f"s{i}" for i in range(3000)) + (None,)
        table.append_rows(make_rows(20_000, states=states))
        fresh = table.shards[-1]
        n_readers = 8
        barrier = threading.Barrier(n_readers + 1, timeout=60)
        results: list = [None] * n_readers
        errors: list = []

        def reader(slot: int) -> None:
            try:
                barrier.wait()
                results[slot] = table.shard_category_codes(fresh, "state")[0]
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        def appender() -> None:
            try:
                barrier.wait()
                for i in range(20):
                    table.append_rows(make_rows(50, states=(f"new{i}", "CA", None)))
                    table.category_codes("state")
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(i,)) for i in range(n_readers)]
            threads.append(threading.Thread(target=appender))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert all(codes is results[0] for codes in results)
        assert results[0] is fresh.codes["state"]
        codes, index = table.category_codes("state")
        assert list(index.values()) == list(range(len(index)))
        assert decode(codes, index) == list(table.column("state"))
