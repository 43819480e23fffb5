"""Sharded storage, the version token, and per-version cache invalidation."""

import numpy as np
import pytest

from repro.core.exceptions import SchemaError
from repro.data.schema import (
    Attribute,
    CategoricalDomain,
    NumericDomain,
    Schema,
)
from repro.data.table import Table, TableVersion


def make_schema() -> Schema:
    return Schema(
        [
            Attribute("state", CategoricalDomain(("CA", "NY", "TX")), nullable=True),
            Attribute("score", NumericDomain(0, 100), nullable=True),
        ],
        name="Versioned",
    )


def base_rows() -> list[dict]:
    return [
        {"state": "CA", "score": 10.0},
        {"state": "NY", "score": None},
        {"state": None, "score": 55.5},
        {"state": "TX", "score": 99.0},
    ]


def extra_rows() -> list[dict]:
    return [
        {"state": "NY", "score": 1.0},
        {"state": "CA", "score": None},
        {"state": "TX", "score": 42.0},
    ]


class TestVersionToken:
    def test_tokens_are_immutable_hashable_and_distinct_across_tables(self):
        a = Table.from_rows(make_schema(), base_rows())
        b = Table.from_rows(make_schema(), base_rows())
        assert a.version_token != b.version_token
        assert hash(a.version_token) != hash(b.version_token) or True  # hashable
        assert a.version_token == TableVersion(
            a.version_token.table_uid, a.version_token.ordinal
        )
        with pytest.raises(AttributeError):
            a.version_token.ordinal = 99  # frozen dataclass

    def test_append_and_refresh_advance_the_token(self):
        table = Table.from_rows(make_schema(), base_rows())
        v0 = table.version_token
        v1 = table.append_rows(extra_rows())
        assert v1 == table.version_token
        assert v1.table_uid == v0.table_uid
        assert v1.ordinal == v0.ordinal + 1
        v2 = table.refresh(base_rows())
        assert v2.ordinal == v1.ordinal + 1
        assert v0 != v1 != v2

    def test_derived_tables_get_fresh_identity(self):
        table = Table.from_rows(make_schema(), base_rows())
        derived = table.filter(np.array([True, False, True, True]))
        assert derived.version_token.table_uid != table.version_token.table_uid

    def test_clear_caches_does_not_advance_the_version(self):
        table = Table.from_rows(make_schema(), base_rows())
        v0 = table.version_token
        table.clear_caches()
        assert table.version_token == v0


class TestAppendRows:
    def test_append_grows_rows_and_shards_behind_the_same_api(self):
        table = Table.from_rows(make_schema(), base_rows())
        assert table.n_shards == 1
        table.append_rows(extra_rows())
        assert table.n_shards == 2
        assert len(table) == 7
        assert table.shard_sizes == (4, 3)
        expected = Table.from_rows(make_schema(), base_rows() + extra_rows())
        for name in table.schema.attribute_names:
            got, want = table.column(name), expected.column(name)
            for g, w in zip(got, want):
                if isinstance(w, float):
                    assert (np.isnan(g) and np.isnan(w)) or g == w
                else:
                    assert g == w
        assert table.row(5) == expected.row(5)

    def test_appended_columns_stay_frozen(self):
        table = Table.from_rows(make_schema(), base_rows())
        table.append_rows(extra_rows())
        with pytest.raises(ValueError):
            table.column("score")[0] = 1.0

    def test_append_validates_against_schema(self):
        table = Table.from_rows(make_schema(), base_rows())
        with pytest.raises(SchemaError):
            table.append_columns({"state": np.array(["CA"], dtype=object)})

    def test_refresh_replaces_contents(self):
        table = Table.from_rows(make_schema(), base_rows())
        table.append_rows(extra_rows())
        table.refresh(extra_rows())
        assert len(table) == 3
        assert table.n_shards == 1
        assert table.row(0)["state"] == "NY"

    def test_shards_are_the_appended_chunks_and_outlive_appends(self):
        table = Table.from_rows(make_schema(), base_rows())
        table.append_rows(extra_rows())
        shards = list(table._shards)
        assert table.shard_sizes == (4, 3)
        # Shards are immutable: an append adds one and keeps the rest.
        table.append_rows(extra_rows())
        assert table._shards[:2] == shards
        assert all(a is b for a, b in zip(table._shards, shards))
        assert table.shard_sizes == (4, 3, 3)

    def test_count_and_filter_track_grown_rows(self):
        table = Table.from_rows(make_schema(), base_rows())
        table.append_rows(extra_rows())
        mask = ~table.is_null("score")
        assert table.count(mask) == 5
        assert len(table.filter(mask)) == 5


class TestPerVersionCaches:
    def test_mask_lru_misses_after_append(self):
        from repro.queries.predicates import Comparison

        table = Table.from_rows(make_schema(), base_rows())
        predicate = Comparison("state", "==", "CA")
        before = predicate.evaluate(table)
        assert table.cached_mask(predicate) is not None
        assert len(before) == 4
        table.append_rows(extra_rows())
        # The new version's snapshot starts with an empty mask LRU...
        assert table.cached_mask(predicate) is None
        # ...and re-evaluation covers the appended rows.
        after = predicate.evaluate(table)
        assert len(after) == 7
        assert int(after.sum()) == int(before.sum()) + 1

    def test_columnar_caches_rebuild_on_new_version(self):
        table = Table.from_rows(make_schema(), base_rows())
        nulls_before = table.null_mask("score")
        codes_before, index_before = table.category_codes("state")
        table.append_rows(extra_rows())
        nulls_after = table.null_mask("score")
        codes_after, _ = table.category_codes("state")
        assert len(nulls_before) == 4 and len(nulls_after) == 7
        assert len(codes_before) == 4 and len(codes_after) == 7
        assert int(nulls_after.sum()) == 2
        assert index_before  # the old snapshot is untouched

    def test_mask_cache_capacity_tracks_grown_row_count(self):
        """The mask LRU's entry cap is a byte budget divided by the row
        count; growing the table must shrink the cap accordingly."""
        from repro.data.table import MASK_CACHE_BYTE_BUDGET

        schema = make_schema()
        n = 40_000
        columns = {
            "state": np.array(["CA"] * n, dtype=object),
            "score": np.ones(n, dtype=float),
        }
        table = Table(schema, dict(columns))
        assert table.mask_cache.max_entries == MASK_CACHE_BYTE_BUDGET // n
        table.append_columns(dict(columns))
        assert table.mask_cache.max_entries == MASK_CACHE_BYTE_BUDGET // (2 * n)

    def test_new_category_values_in_appended_shard_are_interned(self):
        from repro.queries.predicates import Comparison

        table = Table.from_rows(make_schema(), base_rows())
        predicate = Comparison("state", "==", "WY")
        assert int(predicate.evaluate(table).sum()) == 0
        table.append_rows([{"state": "WY", "score": 3.0}])
        assert int(predicate.evaluate(table).sum()) == 1
