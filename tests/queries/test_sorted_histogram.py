"""One-attribute exact histograms counted from per-shard sorted columns.

When an exact matrix's workload references one attribute, each shard's
atom counts are read without a per-row pass: the numeric atom endpoints are
searched in the shard's sorted values (``Table.shard_sorted_values``), and
the categorical codes are counted once and mapped through the code -> atom
lookup.  A shard with rows in no atom falls back to the row pass for that
shard.  The counts must equal the row pass (kept as the oracle) byte for
byte, errors included, and
:func:`repro.queries.reference.reference_partition_histogram` -- at cuts
and their ``nextafter`` neighbours, for NaN with and without a NULL atom,
for +-inf, for values outside the declared domain, and over empty shards
and multi-shard layouts.

The sorted copy lives on the immutable shard: every matrix reading the
shard shares it, and it survives ``clear_caches``.  Multi-attribute,
categorical and text workloads never make one.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import QueryError
from repro.data.schema import (
    Attribute,
    CategoricalDomain,
    NumericDomain,
    Schema,
    TextDomain,
)
from repro.data.table import Table
from repro.queries import workload as workload_module
from repro.queries.builders import histogram_workload, prefix_workload
from repro.queries.predicates import And, Between, Comparison, In, IsNull, Not, Or
from repro.queries.reference import reference_partition_histogram
from repro.queries.workload import (
    Workload,
    WorkloadMatrix,
    clear_matrix_cache,
    matrix_cache_stats,
)

CUTS = (-5.0, 0.0, 2.5, 10.0, 50.0, 100.0)
#: The cuts, the floats either side of each, and values no bounded domain
#: here holds.
EDGE_VALUES = (
    CUTS
    + tuple(float(np.nextafter(c, side)) for c in CUTS for side in (-math.inf, math.inf))
    + (-50.0, 1e6, math.inf, -math.inf)
)
CATEGORIES = ("a", "b", "c")
OPS = ("==", "!=", "<", "<=", ">", ">=")


def numeric_schema(low: float = 0.0, high: float = 100.0, nullable: bool = True) -> Schema:
    return Schema([Attribute("num", NumericDomain(low, high), nullable=nullable)])


def categorical_schema(nullable: bool = True) -> Schema:
    return Schema([Attribute("cat", CategoricalDomain(CATEGORIES), nullable=nullable)])


def outcome(workload: Workload, schema: Schema, table: Table) -> tuple[str, object]:
    """A fresh matrix's histogram bytes, or the error it raised."""
    matrix = WorkloadMatrix.from_domain_analysis(workload, schema)
    try:
        return ("histogram", matrix.partition_histogram(table).tobytes())
    except QueryError as exc:
        return ("QueryError", str(exc))


def row_pass_outcome(workload: Workload, schema: Schema, table: Table) -> tuple[str, object]:
    """:func:`outcome` with every shard coded row by row."""
    atom_coder = workload_module._atom_coder
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            workload_module, "_atom_coder", lambda *args: (atom_coder(*args)[0], None)
        )
        return outcome(workload, schema, table)


def assert_parity(workload: Workload, schema: Schema, table: Table) -> tuple[str, object]:
    """The counts path equals the row pass and the row-at-a-time reference."""
    assert len(workload.attributes()) == 1
    counted = outcome(workload, schema, table)
    assert counted == row_pass_outcome(workload, schema, table)
    matrix = WorkloadMatrix.from_domain_analysis(workload, schema)
    try:
        expected = reference_partition_histogram(matrix, workload, table)
    except QueryError:
        assert counted[0] == "QueryError"
    else:
        assert counted == ("histogram", expected.tobytes())
    return counted


def count_mask_fallbacks(monkeypatch) -> list[int]:
    """The row count of every ``Workload.evaluate`` call: an exact histogram
    calls it only for the rows of a shard that map to no atom."""
    sizes: list[int] = []
    evaluate = Workload.evaluate

    def recording(self, table):
        sizes.append(len(table))
        return evaluate(self, table)

    monkeypatch.setattr(Workload, "evaluate", recording)
    return sizes


def layout(schema: Schema, chunks: list[list[dict]]) -> Table:
    """The first chunk as the base shard, the rest appended as shards of
    their own (an empty one adds no shard)."""
    table = Table.from_rows(schema, chunks[0])
    for rows in chunks[1:]:
        table.append_rows(rows)
    return table


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------


class TestNumericParity:
    WORKLOAD = Workload(
        [Comparison("num", "<", c) for c in CUTS]
        + [
            Comparison("num", "==", 10.0),
            Between("num", 2.5, 50.0, low_inclusive=False),
            Comparison("num", ">=", 100.0),
        ]
    )

    @pytest.mark.parametrize("nullable", [True, False], ids=["null-atom", "no-null-atom"])
    def test_values_at_cuts_and_their_neighbours(self, nullable, monkeypatch):
        schema = numeric_schema(-math.inf, math.inf, nullable=nullable)
        finite = [v for v in EDGE_VALUES if math.isfinite(v)]
        table = layout(schema, [[{"num": v} for v in finite * 2]])
        fallbacks = count_mask_fallbacks(monkeypatch)
        assert_parity(self.WORKLOAD, schema, table)
        assert "num" in table.shards[0].sorted_values
        # Every finite value is an atom of the unbounded domain: no row pass.
        assert fallbacks == []
        infinite_and_null = [math.inf, -math.inf, None, math.nan]
        table.append_rows([{"num": v} for v in infinite_and_null + [10.0]])
        assert_parity(self.WORKLOAD, schema, table)
        # The domain is open at +-inf, so those are no atom; NaN is the NULL
        # atom if there is one.  Only the appended shard takes masks, for
        # those rows alone (once on each path).
        assert fallbacks == ([2, 2] if nullable else [4, 4])

    def test_values_outside_a_bounded_domain_take_their_masks(self, monkeypatch):
        schema = numeric_schema(0.0, 100.0)
        rows = [{"num": v} for v in EDGE_VALUES + (None,)]
        table = layout(schema, [rows[:10], [], rows[10:]])
        fallbacks = count_mask_fallbacks(monkeypatch)
        assert_parity(self.WORKLOAD, schema, table)
        assert fallbacks

    def test_out_of_domain_value_raises_the_row_pass_error(self):
        # Over [0, 100], num > 50 implies num <= 100; 150 breaks that.
        workload = Workload([Comparison("num", ">", 50.0), Comparison("num", "<=", 100.0)])
        schema = numeric_schema(0.0, 100.0)
        table = layout(schema, [[{"num": 60.0}], [{"num": 150.0}]])
        kind, message = assert_parity(workload, schema, table)
        assert kind == "QueryError"
        assert "outside the declared attribute domains" in message

    def test_empty_table(self):
        table = Table.empty(numeric_schema())
        assert assert_parity(self.WORKLOAD, numeric_schema(), table)[0] == "histogram"


class TestCategoricalParity:
    WORKLOAD = Workload(
        [
            Comparison("cat", "==", "a"),
            Comparison("cat", "!=", "b"),
            In("cat", ["b", "zz"]),
        ]
    )

    @pytest.mark.parametrize("nullable", [True, False], ids=["null-atom", "no-null-atom"])
    def test_named_unnamed_and_null_values(self, nullable, monkeypatch):
        schema = categorical_schema(nullable)
        values = ("a", "b", "c", "zz", None, "q")
        rows = [{"cat": v} for v in values]
        table = layout(schema, [rows[:3], [], rows])
        fallbacks = count_mask_fallbacks(monkeypatch)
        assert_parity(self.WORKLOAD, schema, table)
        # "q" is no atom; neither is NULL without a NULL atom.  Only the shard
        # holding them takes masks, and only for those rows.
        assert fallbacks == ([1, 1] if nullable else [2, 2])
        assert all(not shard.sorted_values for shard in table.shards)


#: Shared constants make cuts coincide with the values and the domain bounds.
numbers = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-200, 200))
row_numbers = st.one_of(numbers, st.sampled_from([None, math.nan]))


@st.composite
def numeric_predicate(draw, depth: int = 2):
    kind = draw(st.sampled_from(["comparison", "between", "null", "combine"]))
    if kind == "combine" and depth:
        children = draw(st.lists(numeric_predicate(depth - 1), min_size=1, max_size=3))
        combinator = draw(st.sampled_from([And, Or]))
        return Not(children[0]) if len(children) == 1 else combinator(children)
    if kind == "between":
        low, high = sorted((draw(numbers), draw(numbers)))
        return Between(
            "num", low, high,
            low_inclusive=draw(st.booleans()), high_inclusive=draw(st.booleans()),
        )
    if kind == "null":
        return IsNull("num", negated=draw(st.booleans()))
    return Comparison("num", draw(st.sampled_from(OPS)), draw(numbers))


@st.composite
def category_predicate(draw):
    kind = draw(st.sampled_from(["comparison", "in", "null", "not"]))
    constants = st.sampled_from(CATEGORIES + ("zz",))
    if kind == "comparison":
        return Comparison("cat", draw(st.sampled_from(("==", "!="))), draw(constants))
    if kind == "in":
        return In("cat", draw(st.lists(constants, min_size=1, max_size=3)))
    if kind == "null":
        return IsNull("cat", negated=draw(st.booleans()))
    return Not(Comparison("cat", "==", draw(constants)))


def chunks_of(values):
    return st.lists(st.lists(values, max_size=12), min_size=1, max_size=4)


class TestRandomLayouts:
    @settings(max_examples=150, deadline=None)
    @given(
        low=st.sampled_from([-math.inf, -5.0, 0.0]),
        high=st.sampled_from([10.0, 100.0, math.inf]),
        nullable=st.booleans(),
        predicates=st.lists(numeric_predicate(), min_size=1, max_size=5),
        chunks=chunks_of(row_numbers),
    )
    def test_numeric(self, low, high, nullable, predicates, chunks):
        schema = numeric_schema(low, high, nullable)
        rows = [[{"num": v} for v in chunk] for chunk in chunks]
        assert_parity(Workload(predicates), schema, layout(schema, rows).snapshot())

    @settings(max_examples=100, deadline=None)
    @given(
        nullable=st.booleans(),
        predicates=st.lists(category_predicate(), min_size=1, max_size=5),
        chunks=chunks_of(st.sampled_from(CATEGORIES + ("zz", "q", None))),
    )
    def test_categorical(self, nullable, predicates, chunks):
        schema = categorical_schema(nullable)
        rows = [[{"cat": v} for v in chunk] for chunk in chunks]
        assert_parity(Workload(predicates), schema, layout(schema, rows).snapshot())


# ---------------------------------------------------------------------------
# Sharing and lifetime
# ---------------------------------------------------------------------------


MIXED_SCHEMA = Schema(
    [
        Attribute("num", NumericDomain(0, 1000), nullable=True),
        Attribute("cat", CategoricalDomain(CATEGORIES), nullable=True),
        Attribute("note", TextDomain(), nullable=True),
    ]
)


def mixed_table(n: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_rows(MIXED_SCHEMA, mixed_rows(rng, n))


def mixed_rows(rng: np.random.Generator, n: int) -> list[dict]:
    return [
        {
            "num": None if rng.random() < 0.1 else float(rng.integers(0, 1001)),
            "cat": CATEGORIES[rng.integers(3)],
            "note": None if rng.random() < 0.5 else "text",
        }
        for _ in range(n)
    ]


class TestSortedCopyLifetime:
    def test_matrices_on_one_attribute_share_one_array(self):
        table = mixed_table(300, seed=1)
        shard = table.shards[0]
        prefix = prefix_workload("num", [100.0 * i for i in range(1, 10)])
        prefix.analyze(MIXED_SCHEMA).partition_histogram(table)
        values = shard.sorted_values["num"]
        assert not values.flags.writeable
        np.testing.assert_array_equal(values, np.sort(shard.columns["num"]))
        histogram_workload("num", start=0, stop=1000, bins=7).analyze(
            MIXED_SCHEMA
        ).partition_histogram(table)
        assert shard.sorted_values["num"] is values
        # After an append, clear_caches and a drifted workload, the rebuilt
        # matrix reads the old shard's same copy and sorts only the new one.
        table.append_rows(mixed_rows(np.random.default_rng(7), 20))
        table.clear_caches()
        drifted = prefix_workload("num", [75.0 * i for i in range(1, 12)])
        rebuilt = drifted.analyze(MIXED_SCHEMA)
        np.testing.assert_array_equal(
            rebuilt.partition_histogram(table),
            reference_partition_histogram(rebuilt, drifted, table),
        )
        assert shard.sorted_values["num"] is values
        assert "num" in table.shards[1].sorted_values
        assert table.snapshot().shard_sorted_values(shard, "num") is values

    @pytest.mark.parametrize(
        "predicates",
        [
            [Comparison("num", "<", 500.0) & Comparison("cat", "==", "a"), IsNull("num")],
            [IsNull("note"), IsNull("note", negated=True)],
            [Comparison("cat", "==", "a"), In("cat", ["b", "c"])],
        ],
        ids=["two-attribute", "text-is-null", "categorical"],
    )
    def test_other_workloads_make_no_sorted_copy(self, predicates):
        table = mixed_table(200, seed=2)
        workload = Workload(predicates)
        matrix = workload.analyze(MIXED_SCHEMA)
        assert matrix.exact
        np.testing.assert_array_equal(
            matrix.partition_histogram(table),
            reference_partition_histogram(matrix, workload, table),
        )
        assert all(not shard.sorted_values for shard in table.shards)

    def test_a_refresh_sorts_only_its_new_shard(self):
        table = mixed_table(500, seed=3)
        table.append_rows(mixed_rows(np.random.default_rng(4), 20))
        workload = prefix_workload("num", [250.0, 500.0, 750.0])
        matrix = workload.analyze(MIXED_SCHEMA)
        matrix.partition_histogram(table)
        old = table.shards
        assert all("num" in shard.sorted_values for shard in old)
        table.refresh(mixed_rows(np.random.default_rng(5), 60))
        (fresh,) = table.shards
        assert fresh not in old and not fresh.sorted_values
        np.testing.assert_array_equal(
            matrix.partition_histogram(table),
            reference_partition_histogram(matrix, workload, table),
        )
        assert "num" in fresh.sorted_values

    def test_an_append_of_k_rows_counts_k_rows(self):
        table = mixed_table(400, seed=5)
        workload = prefix_workload("num", [100.0 * i for i in range(1, 10)])
        rng = np.random.default_rng(6)
        clear_matrix_cache()
        matrix = workload.analyze(MIXED_SCHEMA)
        matrix.partition_histogram(table)
        assert matrix_cache_stats()["histogram_rows"] == 400
        for k in (30, 12, 25):
            rows_before = matrix_cache_stats()["histogram_rows"]
            table.append_rows(mixed_rows(rng, k))
            np.testing.assert_array_equal(
                matrix.partition_histogram(table),
                reference_partition_histogram(matrix, workload, table),
            )
            assert matrix_cache_stats()["histogram_rows"] == rows_before + k
        clear_matrix_cache()
