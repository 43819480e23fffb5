"""Ingest parity: column coercion and shard interning against the row loops.

``_coerce_column`` converts a column in one numpy pass when every value has
an exact fast-path type, and ``Table._shard_codes`` interns a shard with
``dict.fromkeys`` plus one ``np.fromiter``.  Both must give exactly what the
per-value loops they replaced give: the same float bytes (NaN, -0.0 and
+-inf included), the same stored objects and their exact types, the same
exception type and message, the same codes and the same dictionary
insertion order.  The loops are kept here, test-local, as the oracles.
"""

from __future__ import annotations

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.schema import (
    Attribute,
    AttributeKind,
    CategoricalDomain,
    NumericDomain,
    Schema,
)
from repro.data.table import Shard, Table, _coerce_column


def reference_coerce_column(kind: AttributeKind, values: list) -> np.ndarray:
    """The per-value coercion loop, as every column was once built."""
    if kind is AttributeKind.NUMERIC:
        out = np.empty(len(values), dtype=float)
        for i, value in enumerate(values):
            out[i] = np.nan if value is None else float(value)
        return out
    col = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        col[i] = None if value is None else str(value)
    return col


def reference_shard_codes(col: np.ndarray, index: dict) -> np.ndarray:
    """The per-row interning loop: new values take the next code in row order."""
    out = np.empty(len(col), dtype=np.int32)
    for i, value in enumerate(col):
        if value is None:
            out[i] = -1
            continue
        code = index.get(value)
        if code is None:
            code = len(index)
            index[value] = code
        out[i] = code
    return out


class Label(str):
    """A ``str`` subclass: coercion must store an exact ``str`` copy."""


class Shouty(str):
    """A ``str`` subclass whose ``str()`` differs from its value."""

    def __str__(self) -> str:
        return self.upper()


def outcome(kind: AttributeKind, values: list, coerce) -> tuple:
    """``("ok", array)`` or ``("raise", type, message)`` for one coercion."""
    try:
        return ("ok", coerce(kind, list(values)))
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("raise", type(exc), str(exc))


def assert_same_outcome(kind: AttributeKind, values: list) -> None:
    got = outcome(kind, values, _coerce_column)
    want = outcome(kind, values, reference_coerce_column)
    assert got[0] == want[0], (got, want)
    if got[0] == "raise":
        assert got[1:] == want[1:]
        return
    out, ref = got[1], want[1]
    assert out.dtype == ref.dtype
    assert out.shape == ref.shape
    if kind is AttributeKind.NUMERIC:
        assert out.tobytes() == ref.tobytes()
        return
    for a, b in zip(out, ref):
        assert type(a) is type(b)
        assert a == b


HUGE = 2**1100

numeric_values = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0]),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-HUGE, max_value=HUGE),
    st.booleans(),
    st.floats(allow_nan=True).map(np.float64),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
)
text_values = st.one_of(
    st.text(max_size=4),
    st.text(st.characters(codec=None, categories=["Cs", "Ll", "Nd"]), max_size=3),
    st.sampled_from(["1", "-2.5", "1e400", "nan", "-inf", " 7 ", "0x10", ""]),
    st.text(max_size=3).map(Label),
    st.text(max_size=3).map(Shouty),
    st.text(max_size=3).map(np.str_),
    st.decimals(allow_nan=True, allow_infinity=True, places=None),
)
any_values = st.one_of(numeric_values, text_values)
#: Columns that stay on the fast paths, and columns mixing in anything.
column_cases = st.one_of(
    st.lists(st.one_of(st.none(), st.floats(), st.integers()), max_size=12),
    st.lists(st.one_of(st.none(), st.text(max_size=3)), max_size=12),
    st.lists(any_values, max_size=12),
)


class TestCoerceColumnParity:
    @settings(max_examples=400, deadline=None)
    @given(values=column_cases)
    def test_every_kind_matches_the_loop(self, values):
        for kind in AttributeKind:
            assert_same_outcome(kind, values)

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [None],
            [None, None],
            [math.nan, -0.0, math.inf, -math.inf, None, 0.0],
            [2**63, 2**63 + 1, 2**64 - 1, -(2**63) - 1, 2**53 + 1],
            [1, 2.5, 10**400],
            [10**400, None],
            [-(10**309)],
            [True, False, 1, None],
            [np.float64(1.5), 2, None],
            [np.int64(-7), np.int64(2**62)],
            [Decimal("1.1"), Decimal("NaN"), 3],
            [Decimal("sNaN")],
            ["1.5", "inf", None, 2],
            ["not a number"],
            ["\ud800", "a\udfff", None],
            [Label("x"), "y", None],
            [Shouty("abc"), None],
            [np.str_("z"), "z"],
        ],
    )
    def test_edge_cases_match_the_loop(self, values):
        for kind in AttributeKind:
            assert_same_outcome(kind, values)

    def test_text_values_are_stored_as_exact_str(self):
        values = ["a", Label("b"), Shouty("c"), np.str_("d"), None]
        col = _coerce_column(AttributeKind.TEXT, values)
        assert [type(v) for v in col] == [str, str, str, str, type(None)]
        assert list(col) == ["a", "b", "C", "d", None]


def make_table() -> Table:
    schema = Schema(
        [
            Attribute("state", CategoricalDomain(("a", "b", "c")), nullable=True),
            Attribute("score", NumericDomain(0, 100), nullable=True),
        ],
        name="IngestParity",
    )
    return Table.from_rows(schema, [])


def assert_interns_like_the_loop(table: Table, values: list, index: dict, oracle: dict) -> None:
    """Intern ``values`` as a fresh shard into ``index``, the loop into ``oracle``."""
    col = np.empty(len(values), dtype=object)
    col[:] = values
    shard = Shard(columns={"state": col}, n_rows=len(col))
    codes = table._shard_codes(shard, "state", index)
    assert codes.dtype == np.int32
    assert codes.tobytes() == reference_shard_codes(col, oracle).tobytes()
    assert list(index.items()) == list(oracle.items())
    assert not codes.flags.writeable
    assert shard.codes["state"] is codes


categorical_values = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "d", "e", "f"]))
shard_lists = st.lists(st.lists(categorical_values, max_size=10), min_size=1, max_size=6)


class TestShardInterningParity:
    @settings(max_examples=300, deadline=None)
    @given(
        shards=shard_lists,
        seeded=st.lists(st.sampled_from(["b", "x", "e", "y"]), unique=True, max_size=4),
    )
    def test_codes_and_insertion_order_match_the_loop(self, shards, seeded):
        # A pre-seeded index stands for values a refresh carried away.
        table = make_table()
        index = {value: code for code, value in enumerate(seeded)}
        oracle = dict(index)
        for values in shards:
            assert_interns_like_the_loop(table, values, index, oracle)

    @pytest.mark.parametrize(
        "shards",
        [
            [[]],
            [[None, None, None]],
            [[], ["a", None], [None], [], ["b", "a"]],
            [["c", "c", None, "a"], ["a", "d", "c"], ["e"]],
        ],
    )
    def test_empty_and_all_null_shards(self, shards):
        table = make_table()
        index: dict = {}
        oracle: dict = {}
        for values in shards:
            assert_interns_like_the_loop(table, values, index, oracle)

    @settings(max_examples=100, deadline=None)
    @given(shards=shard_lists, refreshed=st.lists(categorical_values, max_size=10))
    def test_table_codes_match_the_loop_across_appends_and_refresh(
        self, shards, refreshed
    ):
        table = make_table()
        first, *rest = shards
        table.refresh([{"state": v, "score": 1.0} for v in first])
        for chunk in rest:
            table.append_rows([{"state": v} for v in chunk])
        codes, index = table.category_codes("state")
        oracle: dict = {}
        expected = [reference_shard_codes(s.columns["state"], oracle) for s in table.shards]
        assert codes.tobytes() == np.concatenate(expected).astype(np.int32).tobytes()
        assert list(index.items()) == list(oracle.items())
        # Refreshed-away values keep their codes and new values follow them.
        table.refresh([{"state": v} for v in refreshed])
        codes, index = table.category_codes("state")
        expected = reference_shard_codes(table.column("state"), oracle)
        assert codes.tobytes() == expected.tobytes()
        assert list(index.items()) == list(oracle.items())
