"""``WorkloadMatrix.partition_histogram`` matches the row-at-a-time reference.

The production path packs each row's predicate signature into 64-bit words
and locates it among the partitions' packed codes; structural matrices take
column sums.  Both must reproduce, bit for bit, the seed's semantics kept in
:func:`repro.queries.reference.reference_partition_histogram` -- across the
word boundaries (L = 63/64/65), for rows that satisfy nothing, for NULLs,
for zero-row and multi-shard tables, after appends, and for rows outside the
declared domains.
"""

import numpy as np
import pytest

from repro.core.exceptions import QueryError
from repro.data.schema import Attribute, CategoricalDomain, NumericDomain, Schema
from repro.data.table import Table
from repro.queries.builders import histogram_workload, prefix_workload
from repro.queries.predicates import Comparison, FunctionPredicate, IsNull
from repro.queries.reference import reference_partition_histogram
from repro.queries.workload import Workload

SCHEMA = Schema(
    [
        Attribute("cat", CategoricalDomain(("a", "b", "c", "d")), nullable=True),
        Attribute("num", NumericDomain(0, 1000), nullable=True),
    ],
    name="HistogramParity",
)

SIZES = (1, 8, 63, 64, 65, 100)


def random_rows(rng: np.random.Generator, n: int) -> list[dict]:
    return [
        {
            "cat": None if rng.random() < 0.1 else "abcd"[rng.integers(4)],
            "num": None if rng.random() < 0.15 else float(rng.integers(0, 1001)),
        }
        for _ in range(n)
    ]


def random_table(seed: int, n: int = 400) -> Table:
    return Table.from_rows(SCHEMA, random_rows(np.random.default_rng(seed), n))


def cuts(size: int) -> list[float]:
    return [float(c) for c in np.linspace(10, 900, size)]


def workload_of(kind: str, size: int) -> Workload:
    """Nested (multi-bit codes), disjoint (one-hot) or mixed-attribute."""
    if kind == "prefix":
        return prefix_workload("num", cuts(size))
    if kind == "histogram":
        return histogram_workload("num", start=0, stop=800, bins=size)
    head = [IsNull("num")] + [Comparison("cat", "==", v) for v in "abcd"]
    return Workload(head + [Comparison("num", "<", c) for c in cuts(size - len(head))])


def assert_matches_reference(matrix, table):
    histogram = matrix.partition_histogram(table)
    assert histogram.shape == (matrix.n_partitions,)
    np.testing.assert_array_equal(histogram, reference_partition_histogram(matrix, table))
    np.testing.assert_array_equal(
        matrix.matrix @ histogram, matrix.workload.true_answers(table)
    )
    return histogram


class TestExactParity:
    @pytest.mark.parametrize(
        "kind,size",
        [(kind, size) for kind in ("prefix", "histogram") for size in SIZES]
        # The mixed workload starts with five fixed predicates.
        + [("mixed", size) for size in SIZES if size > 5],
    )
    def test_matches_reference_across_word_boundaries(self, kind, size):
        workload = workload_of(kind, size)
        table = random_table(seed=size)
        matrix = workload.analyze(SCHEMA)
        assert matrix.exact and matrix.shape[0] == size
        membership = workload.evaluate(table)
        # The table exercises rows that satisfy no predicate and NULL rows.
        assert (~membership.any(axis=1)).any()
        assert np.isnan(table.column("num").astype(float)).any()
        histogram = assert_matches_reference(matrix, table)
        assert histogram.sum() == membership.any(axis=1).sum()


class TestStructuralParity:
    def test_overlapping_opaque_predicates(self):
        predicates = [
            FunctionPredicate(f"every-{k}", lambda t, k=k: np.arange(len(t)) % k == 0)
            for k in (2, 3, 4, 6)
        ]
        workload = Workload(predicates)
        table = random_table(seed=11)
        matrix = workload.analyze(None)
        assert not matrix.exact
        assert workload.evaluate(table).sum(axis=1).max() == 4
        assert_matches_reference(matrix, table)

    @pytest.mark.parametrize("size", [8, 100])
    def test_overlapping_structured_predicates_with_declared_sensitivity(self, size):
        workload = prefix_workload("num", cuts(size))
        table = random_table(seed=size + 1)
        matrix = workload.analyze(SCHEMA, sensitivity=float(size))
        assert not matrix.exact
        assert_matches_reference(matrix, table)


class TestTableShapes:
    @pytest.mark.parametrize("structural", [False, True])
    def test_zero_row_table_is_zeros_and_cached(self, structural):
        workload = workload_of("prefix", 65)
        matrix = workload.analyze(SCHEMA, sensitivity=65.0 if structural else None)
        table = Table.from_rows(SCHEMA, [])
        first = matrix.partition_histogram(table)
        np.testing.assert_array_equal(first, np.zeros(matrix.n_partitions))
        assert matrix.partition_histogram(table) is first

    @pytest.mark.parametrize("size", [8, 100])
    def test_multi_shard_table(self, size):
        rng = np.random.default_rng(size)
        chunks = [random_rows(rng, n) for n in (140, 90, 120)]
        table = Table.from_rows(SCHEMA, chunks[0])
        for chunk in chunks[1:]:
            table.append_rows(chunk)
        assert table.n_shards > 1
        flat = Table.from_rows(SCHEMA, [row for chunk in chunks for row in chunk])
        matrix = workload_of("mixed", size).analyze(SCHEMA)
        sharded = assert_matches_reference(matrix, table)
        np.testing.assert_array_equal(sharded, matrix.partition_histogram(flat))

    def test_reread_after_append_rows(self):
        table = random_table(seed=5)
        matrix = workload_of("prefix", 100).analyze(SCHEMA)
        before = assert_matches_reference(matrix, table).copy()
        table.append_rows([{"cat": "a", "num": 0.0}] * 30)
        after = assert_matches_reference(matrix, table)
        assert after.sum() == before.sum() + 30


class TestOutOfDomain:
    @pytest.mark.parametrize("padding", [0, 70])
    def test_unenumerated_signature_raises(self, padding):
        # Over the declared domain {"a", "b"}, cat == "a" and cat != "b" are
        # both true or both false.  A "d" row makes only the second true: a
        # signature the analysis never enumerated.
        schema = Schema(
            [
                Attribute("cat", CategoricalDomain(("a", "b"))),
                Attribute("num", NumericDomain(0, 1000)),
            ]
        )
        predicates = [Comparison("cat", "==", "a"), Comparison("cat", "!=", "b")]
        predicates += [Comparison("num", ">", float(i)) for i in range(padding)]
        workload = Workload(predicates)
        matrix = workload.analyze(schema)
        assert matrix.exact
        table = Table.from_rows(
            schema, [{"cat": "a", "num": 5.0}, {"cat": "d", "num": 5.0}]
        )
        with pytest.raises(QueryError):
            reference_partition_histogram(matrix, table)
        with pytest.raises(QueryError, match="outside the declared attribute domains"):
            matrix.partition_histogram(table)

    def test_matrix_without_partitions_raises_on_a_matching_row(self):
        matrix = Workload([Comparison("num", ">", 2000.0)]).analyze(SCHEMA)
        assert matrix.exact and matrix.n_partitions == 0
        table = Table.from_rows(SCHEMA, [{"cat": "a", "num": 2500.0}])
        with pytest.raises(QueryError):
            matrix.partition_histogram(table)
