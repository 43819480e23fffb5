"""``WorkloadMatrix.partition_histogram`` matches the row-at-a-time reference.

An exact matrix maps each row to its domain atom per attribute and counts
the flat cell index; only the occupied cells get a signature, and rows whose
values are no atom take theirs from the predicate masks.  Structural
matrices are shared by every workload of their size and sensitivity, count
no rows, and raise; a release counts a structural workload's own masks.
Both must reproduce, bit for bit, the seed's semantics kept in
:func:`repro.queries.reference.reference_partition_histogram` -- across the
signature word boundaries (L = 63/64/65), for rows that satisfy nothing, for
NULLs, for zero-row and multi-shard tables, after appends, at cut points and
domain bounds, for 2-attribute marginals, for rows outside the declared
domains, and for one matrix serving appends that bring new values.  Exact-matrix
mechanisms read their counts through the same path, without evaluating a
predicate mask.

An exact histogram is the sum of per-shard histograms kept for each shard
read, so the sums are checked across shard layouts (appends, one-row
fragments), and the ``histogram_rows`` counter pins that an append of k rows
codes k rows.  Exact matrices are memoised by value (predicates + schema
object), so a workload under other names gets the same matrix, and the same
holds for it.
"""

import gc

import numpy as np
import pytest

from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.core.exceptions import QueryError
from repro.data.adult import generate_adult
from repro.data.schema import (
    Attribute,
    CategoricalDomain,
    NumericDomain,
    Schema,
    TextDomain,
)
from repro.data.table import Table, TableSnapshot
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.multi_poking import MultiPokingMechanism
from repro.mechanisms.registry import MechanismRegistry
from repro.mechanisms.strategy_mechanism import StrategyMechanism
from repro.queries.builders import (
    histogram_workload,
    marginal_workload,
    point_workload,
    prefix_workload,
)
from repro.queries.predicates import (
    Between,
    Comparison,
    FunctionPredicate,
    In,
    IsNull,
    Not,
)
from repro.queries.query import (
    IcebergCountingQuery,
    QueryKind,
    WorkloadCountingQuery,
)
from repro.queries.reference import reference_partition_histogram
from repro.queries.workload import Workload, clear_matrix_cache, matrix_cache_stats

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


def assert_matches_reference(matrix, workload, table):
    """``workload``'s histogram over ``matrix`` equals the reference's.

    A structural matrix is shared by every workload of its size and
    sensitivity and counts no rows: the workload's own counts (what a
    release reads) must equal the reference histogram instead.
    """
    expected = reference_partition_histogram(matrix, workload, table)
    if not matrix.exact:
        with pytest.raises(QueryError, match="counts no rows"):
            matrix.partition_histogram(table)
        np.testing.assert_array_equal(workload.true_answers(table), expected)
        return expected
    histogram = matrix.partition_histogram(table)
    assert histogram.shape == (matrix.n_partitions,)
    np.testing.assert_array_equal(histogram, expected)
    np.testing.assert_array_equal(matrix.matrix @ histogram, workload.true_answers(table))
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
        histogram = assert_matches_reference(matrix, workload, table)
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
        assert_matches_reference(matrix, workload, table)

    @pytest.mark.parametrize("size", [8, 100])
    def test_overlapping_structured_predicates_with_declared_sensitivity(self, size):
        workload = prefix_workload("num", cuts(size))
        table = random_table(seed=size + 1)
        matrix = workload.analyze(SCHEMA, sensitivity=float(size))
        assert not matrix.exact
        assert_matches_reference(matrix, workload, table)


class TestTableShapes:
    @pytest.mark.parametrize("structural", [False, True])
    def test_zero_row_table_is_zeros_and_cached(self, structural):
        workload = workload_of("prefix", 65)
        matrix = workload.analyze(SCHEMA, sensitivity=65.0 if structural else None)
        table = Table.from_rows(SCHEMA, [])
        first = assert_matches_reference(matrix, workload, table)
        np.testing.assert_array_equal(first, np.zeros(matrix.n_partitions))
        if matrix.exact:
            assert matrix.partition_histogram(table) is first

    @pytest.mark.parametrize("size", [8, 100])
    @pytest.mark.parametrize("sizes", [(100,), (40, 25, 35), (140, 90, 120)])
    def test_multi_shard_table(self, size, sizes):
        rng = np.random.default_rng(size)
        chunks = [random_rows(rng, n) for n in sizes]
        table = Table.from_rows(SCHEMA, chunks[0])
        for chunk in chunks[1:]:
            table.append_rows(chunk)
        assert table.shard_sizes == sizes
        flat = Table.from_rows(SCHEMA, [row for chunk in chunks for row in chunk])
        workload = workload_of("mixed", size)
        matrix = workload.analyze(SCHEMA)
        sharded = assert_matches_reference(matrix, workload, table)
        np.testing.assert_array_equal(sharded, matrix.partition_histogram(flat))

    def test_reread_after_append_rows(self):
        table = random_table(seed=5)
        workload = workload_of("prefix", 100)
        matrix = workload.analyze(SCHEMA)
        before = assert_matches_reference(matrix, workload, table).copy()
        table.append_rows([{"cat": "a", "num": 0.0}] * 30)
        after = assert_matches_reference(matrix, workload, table)
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
            reference_partition_histogram(matrix, workload, table)
        with pytest.raises(QueryError, match="outside the declared attribute domains"):
            matrix.partition_histogram(table)

    def test_matrix_without_partitions_raises_on_a_matching_row(self):
        matrix = Workload([Comparison("num", ">", 2000.0)]).analyze(SCHEMA)
        assert matrix.exact and matrix.n_partitions == 0
        table = Table.from_rows(SCHEMA, [{"cat": "a", "num": 2500.0}])
        with pytest.raises(QueryError):
            matrix.partition_histogram(table)


def count_mask_fallbacks(monkeypatch) -> list[int]:
    """Record the row count of every ``Workload.evaluate`` call: an exact
    histogram calls it only for the rows that map to no atom."""
    sizes: list[int] = []
    evaluate = Workload.evaluate

    def recording(self, table):
        sizes.append(len(table))
        return evaluate(self, table)

    monkeypatch.setattr(Workload, "evaluate", recording)
    return sizes


class TestAtomBoundaries:
    def test_values_at_cut_points_and_domain_bounds(self, monkeypatch):
        workload = Workload(
            [
                Comparison("num", "<", 10.0),
                Comparison("num", "<=", 250.5),
                Comparison("num", ">=", 500.0),
                Comparison("num", "==", 1000.0),
                Between("num", 10.0, 500.0),
                Comparison("num", ">", 0.0),
            ]
            + [Comparison("num", "<", c) for c in cuts(65)]
        )
        edges = [0.0, 10.0, 250.5, 500.0, 1000.0] + cuts(65)
        nearby = [np.nextafter(c, side) for c in edges for side in (-np.inf, np.inf)]
        values = edges + [v for v in nearby if 0.0 <= v <= 1000.0] + [None]
        table = Table.from_rows(SCHEMA, [{"cat": "a", "num": v} for v in values * 2])
        matrix = workload.analyze(SCHEMA)
        assert matrix.exact
        fallbacks = count_mask_fallbacks(monkeypatch)
        histogram = assert_matches_reference(matrix, workload, table)
        # Every value, NULL included, is an atom; every non-NULL row
        # satisfies a predicate.
        assert fallbacks == []
        assert histogram.sum() == len(table) - 2


class TestRowsWithNoAtom:
    SCHEMA = Schema(
        [
            Attribute("cat", CategoricalDomain(("a", "b"))),
            Attribute("num", NumericDomain(0, 1000)),
        ]
    )

    def test_out_of_domain_rows_with_enumerated_signatures_count_as_the_reference(
        self, monkeypatch
    ):
        # No attribute is nullable and no predicate tests for NULL, so
        # neither has a NULL atom.
        workload = Workload(
            [
                Comparison("num", ">", 500.0),
                Comparison("cat", "!=", "a"),
                Not(Comparison("num", "<", 10.0)),
            ]
        )
        matrix = workload.analyze(self.SCHEMA)
        assert matrix.exact
        in_domain = [{"cat": c, "num": v} for c in "ab" for v in (0.0, 5.0, 10.0, 700.0)]
        no_atom = [
            {"cat": "a", "num": 2000.0},  # above the numeric domain
            {"cat": "z", "num": 5.0},  # a categorical value that is no atom
            {"cat": "b", "num": None},  # NULL without a NULL atom
            {"cat": None, "num": 600.0},
            {"cat": "a", "num": -3.0},  # below the domain, satisfies nothing
        ]
        table = Table.from_rows(self.SCHEMA, in_domain + no_atom)
        fallbacks = count_mask_fallbacks(monkeypatch)
        histogram = assert_matches_reference(matrix, workload, table)
        assert fallbacks[0] == len(no_atom)
        # ("a", 0) and ("a", 5) in the domain, and -3 outside it, satisfy nothing.
        assert histogram.sum() == len(in_domain) - 2 + len(no_atom) - 1

    def test_categorical_constant_absent_from_the_domain(self, monkeypatch):
        workload = Workload(
            [
                Comparison("cat", "==", "zz"),
                In("cat", ["a", "yy"]),
                Comparison("cat", "!=", "b"),
            ]
        )
        matrix = workload.analyze(SCHEMA)
        rows = [{"cat": v, "num": 1.0} for v in ("zz", "yy", "a", "b", "c", None) * 3]
        table = Table.from_rows(SCHEMA, rows)
        fallbacks = count_mask_fallbacks(monkeypatch)
        histogram = assert_matches_reference(matrix, workload, table)
        # "zz" and "yy" are atoms (the workload names them), so no row
        # needs the masks.
        assert fallbacks == []
        assert histogram.sum() == 3 * 4

    def test_text_is_null(self, monkeypatch):
        schema = Schema(
            [
                Attribute("note", TextDomain(), nullable=True),
                Attribute("num", NumericDomain(0, 1000), nullable=True),
            ]
        )
        workload = Workload(
            [
                IsNull("note"),
                IsNull("note", negated=True),
                Comparison("num", "<", 500.0) & IsNull("note"),
            ]
        )
        matrix = workload.analyze(schema)
        assert matrix.exact
        rows = [
            {"note": note, "num": num}
            for note in (None, "", "free text")
            for num in (None, 10.0, 600.0)
        ]
        table = Table.from_rows(schema, rows)
        fallbacks = count_mask_fallbacks(monkeypatch)
        assert_matches_reference(matrix, workload, table)
        assert fallbacks == []
        # Any other condition on text evaluates differently over the rows
        # than over the single text atom, so the rows keep their masks.
        other = Workload([In("note", ["free text"]), IsNull("note", negated=True)])
        matrix = other.analyze(schema)
        with pytest.raises(QueryError):
            reference_partition_histogram(matrix, other, table)
        with pytest.raises(QueryError, match="outside the declared attribute domains"):
            matrix.partition_histogram(table)


class TestMarginal:
    @pytest.mark.parametrize("bins", [8, 20])
    def test_two_attribute_marginal(self, bins):
        workload = marginal_workload(
            point_workload("cat", schema=SCHEMA),
            histogram_workload("num", start=0, stop=1000, bins=bins),
        )
        matrix = workload.analyze(SCHEMA)
        assert matrix.exact and matrix.shape[0] == 4 * bins
        assert_matches_reference(matrix, workload, random_table(seed=bins))


class TestMatrixProvenance:
    def test_first_histogram_reuses_the_analysis_atoms(self, monkeypatch):
        """An exact matrix keeps its analysis's atoms and leaf vectors; its
        first histogram derives neither again."""
        import repro.queries.workload as workload_module

        calls = {"atoms": 0, "leaf_vectors": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            workload_module,
            "_attribute_atoms",
            counted("atoms", workload_module._attribute_atoms),
        )
        monkeypatch.setattr(
            workload_module,
            "_leaf_vectors",
            counted("leaf_vectors", workload_module._leaf_vectors),
        )
        workload = workload_of("mixed", 40)
        table = random_table(seed=8)
        clear_matrix_cache()
        matrix = workload.analyze(SCHEMA)
        assert calls == {"atoms": 1, "leaf_vectors": 1}
        histogram = matrix.partition_histogram(table)
        assert calls == {"atoms": 1, "leaf_vectors": 1}
        np.testing.assert_array_equal(
            histogram, reference_partition_histogram(matrix, workload, table)
        )
        clear_matrix_cache()

    def test_one_matrix_after_appends_that_add_categorical_values(self):
        schema = Schema(
            [
                Attribute("cat", CategoricalDomain(("a", "b", "c", "d")), nullable=True),
                Attribute("num", NumericDomain(0, 1000), nullable=True),
                Attribute("tag", CategoricalDomain(("x", "y"))),
            ]
        )
        rng = np.random.default_rng(4)

        def rows(cats, tag, n=60):
            return [
                {"cat": cats[rng.integers(len(cats))], "num": float(rng.integers(0, 1001)), "tag": tag}
                for _ in range(n)
            ]

        table = Table.from_rows(schema, rows("ab", "x"))
        workload = workload_of("mixed", 12)
        clear_matrix_cache()
        matrix = workload.analyze(schema)
        before = table.snapshot()
        assert_matches_reference(matrix, workload, before)
        # A new value of an unreferenced attribute: the memo serves the
        # same matrix.
        table.append_rows(rows("ab", "y"))
        again = workload.analyze(schema)
        assert again is matrix
        assert_matches_reference(again, workload, table)
        # New values of a referenced attribute get new dictionary codes;
        # the matrix already has an atom for every declared value.
        table.append_rows(rows("cd", "x"))
        assert_matches_reference(matrix, workload, table)
        assert_matches_reference(matrix, workload, before)
        assert workload.analyze(schema) is matrix
        assert matrix_cache_stats()["built"] == 1
        clear_matrix_cache()


def histogram_rows() -> int:
    return matrix_cache_stats()["histogram_rows"]


class TestShardSums:
    """A snapshot's histogram is the sum of its shards' histograms."""

    def test_sixty_one_row_appends(self):
        rng = np.random.default_rng(60)
        table = random_table(seed=60, n=200)
        for _ in range(60):
            table.append_rows(random_rows(rng, 1))
        assert table.shard_sizes == (200,) + (1,) * 60
        flat = Table.from_rows(SCHEMA, table.to_rows())
        workload = workload_of("mixed", 40)
        matrix = workload.analyze(SCHEMA)
        shards = histogram_shards()
        histogram = assert_matches_reference(matrix, workload, table)
        assert histogram_shards() == shards + 61
        np.testing.assert_array_equal(assert_matches_reference(matrix, workload, flat), histogram)

    def test_entries_die_with_the_shards_a_refresh_replaced(self):
        rng = np.random.default_rng(70)
        table = random_table(seed=70, n=1000)
        for _ in range(8):
            table.append_rows(random_rows(rng, 2))
        workload = workload_of("mixed", 40)
        matrix = workload.analyze(SCHEMA)
        # Private snapshots only: the table's snapshot memo pins nothing.
        fragmented = TableSnapshot(table)
        assert_matches_reference(matrix, workload, fragmented)
        assert len(matrix._shard_histograms) == 9
        del fragmented
        table.refresh(random_rows(rng, 30))
        assert_matches_reference(matrix, workload, TableSnapshot(table))
        gc.collect()
        assert len(matrix._shard_histograms) == 1

    def test_no_atom_rows_only_in_the_appended_shard(self, monkeypatch):
        schema = TestRowsWithNoAtom.SCHEMA
        workload = Workload(
            [Comparison("num", ">", 500.0), Comparison("cat", "!=", "a")]
        )
        table = Table.from_rows(
            schema, [{"cat": c, "num": v} for c in "ab" for v in (0.0, 700.0)] * 5
        )
        matrix = workload.analyze(schema)
        fallbacks = count_mask_fallbacks(monkeypatch)
        assert_matches_reference(matrix, workload, table)
        assert fallbacks == []
        no_atom = [{"cat": "z", "num": 5.0}, {"cat": "b", "num": None}]
        table.append_rows(no_atom + [{"cat": "b", "num": 900.0}] * 3)
        assert_matches_reference(matrix, workload, table)
        # Only the appended shard is read, and only its no-atom rows take masks.
        assert fallbacks == [len(no_atom)]

    def test_out_of_domain_value_only_in_the_appended_shard_raises(self):
        schema = Schema(
            [
                Attribute("cat", CategoricalDomain(("a", "b"))),
                Attribute("num", NumericDomain(0, 1000)),
            ]
        )
        workload = Workload([Comparison("cat", "==", "a"), Comparison("cat", "!=", "b")])
        matrix = workload.analyze(schema)
        table = Table.from_rows(schema, [{"cat": c, "num": 5.0} for c in "abab"])
        before = table.snapshot()
        expected = assert_matches_reference(matrix, workload, before).copy()
        table.append_rows([{"cat": "d", "num": 5.0}])
        for _ in range(2):  # a failed shard is never cached
            with pytest.raises(QueryError, match="outside the declared attribute domains"):
                matrix.partition_histogram(table)
        with pytest.raises(QueryError):
            reference_partition_histogram(matrix, workload, table)
        np.testing.assert_array_equal(matrix.partition_histogram(before), expected)


class TestAppendCostsTheAppendedRows:
    """``histogram_rows`` counts the rows the atom pass codes."""

    def test_matrix_reused_across_appends_codes_k_rows(self):
        workload = workload_of("mixed", 40)
        table = random_table(seed=21, n=400)
        rng = np.random.default_rng(22)

        def analyze():
            return workload.analyze(SCHEMA)

        clear_matrix_cache()
        matrix = analyze()
        assert_matches_reference(matrix, workload, table)
        assert histogram_rows() == 400
        for k in (30, 12, 25):
            rows_before = histogram_rows()
            table.append_rows(random_rows(rng, k))
            assert analyze() is matrix
            assert_matches_reference(matrix, workload, table)
            assert histogram_rows() == rows_before + k
        assert matrix_cache_stats()["built"] == 1
        clear_matrix_cache()

    def test_a_refresh_codes_exactly_the_refreshed_rows(self):
        rng = np.random.default_rng(80)
        table = random_table(seed=80, n=1000)
        for _ in range(8):
            table.append_rows(random_rows(rng, 2))
        clear_matrix_cache()
        workload = workload_of("mixed", 40)
        matrix = workload.analyze(SCHEMA)
        assert_matches_reference(matrix, workload, table)
        assert histogram_rows() == 1016
        assert histogram_shards() == 9
        table.refresh(random_rows(rng, 300))
        assert_matches_reference(matrix, workload, table)
        assert histogram_rows() == 1016 + 300
        assert histogram_shards() == 9 + 1
        clear_matrix_cache()


def histogram_shards() -> int:
    return matrix_cache_stats()["histogram_shards"]


class TestSharedAcrossEqualMatrices:
    """Workloads of equal value token share one exact matrix.

    The token is the predicates plus the schema object, without the names:
    a workload under other names, first analysed after an append, gets the
    same matrix, and its read after the append reads the appended shard only.
    """

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        clear_matrix_cache()
        yield
        clear_matrix_cache()

    def test_renamed_matrix_after_an_append_reads_only_the_appended_shard(self):
        workload = workload_of("mixed", 40)
        renamed = Workload(workload.predicates, [f"bin-{i}" for i in range(workload.size)])
        rng = np.random.default_rng(31)
        # No "d" yet: the append brings a declared but unobserved value.
        base = [dict(row, cat="a") if row["cat"] == "d" else row for row in random_rows(rng, 400)]
        table = Table.from_rows(SCHEMA, base)

        before = workload.analyze(SCHEMA)
        assert_matches_reference(before, workload, table)
        built, shards, rows = matrix_cache_stats()["built"], histogram_shards(), histogram_rows()
        k = 9
        table.append_rows([{"cat": "d", "num": 5.0}] + random_rows(rng, k - 1))
        assert workload.analyze(SCHEMA) is before
        after = renamed.analyze(SCHEMA)
        assert after is before
        assert matrix_cache_stats()["built"] == built
        histogram = assert_matches_reference(after, renamed, table)
        assert histogram_shards() == shards + 1
        assert histogram_rows() == rows + k
        clear_matrix_cache()
        fresh = workload.analyze(SCHEMA)
        assert fresh is not before
        np.testing.assert_array_equal(fresh.partition_histogram(table), histogram)
        assert histogram_rows() == 400 + k

    def test_schemas_with_other_declared_domains_never_share(self):
        # Same attribute names; the wider domain adds the partition of
        # cat == "c" (signature 11), which shifts the ids of "a" and "b".
        narrow = Schema([Attribute("cat", CategoricalDomain(("a", "b")))])
        wide = Schema([Attribute("cat", CategoricalDomain(("a", "b", "c")))])
        workload = Workload([Comparison("cat", "!=", "b"), Comparison("cat", "!=", "a")])
        table = Table.from_rows(narrow, [{"cat": c} for c in "aabab"])
        first, second = workload.analyze(narrow), workload.analyze(wide)
        assert first._shard_histograms is not second._shard_histograms
        np.testing.assert_array_equal(assert_matches_reference(first, workload, table), [3, 2])
        np.testing.assert_array_equal(assert_matches_reference(second, workload, table), [0, 3, 2])
        assert histogram_shards() == 2

    def test_unhashable_workload_keeps_a_private_store(self):
        workload = Workload([Comparison("cat", "==", ["a"]), Comparison("num", "<", 30.0)])
        assert workload.structure_key is None
        table = random_table(seed=32)
        first, second = workload.analyze(SCHEMA), workload.analyze(SCHEMA)
        assert first.exact and first is not second
        assert first._shard_histograms is not second._shard_histograms
        for matrix in (first, second):
            # The predicate-mask cache cannot key an unhashable predicate.
            np.testing.assert_array_equal(
                matrix.partition_histogram(table),
                reference_partition_histogram(matrix, workload, table),
            )
        assert histogram_shards() == 2

    def test_equal_predicates_with_differently_typed_constants_share(self):
        ints = Workload([Comparison("num", "<", 30), IsNull("cat")], names=["young", "no cat"])
        floats = Workload([Comparison("num", "<", 30.0), IsNull("cat")])
        table = random_table(seed=33)
        first, second = ints.analyze(SCHEMA), floats.analyze(SCHEMA)
        # Different names, equal predicates: one memo entry, one matrix.
        assert first is second
        assert matrix_cache_stats()["built"] == 1
        expected = assert_matches_reference(first, ints, table)
        np.testing.assert_array_equal(
            assert_matches_reference(second, floats, TableSnapshot(table)), expected
        )
        assert histogram_shards() == 1


class TestCountsReadNoMasks:
    @pytest.mark.parametrize(
        "mechanism",
        [
            LaplaceMechanism(name="WCQ-LM", kinds=frozenset({QueryKind.WCQ})),
            StrategyMechanism(mc_samples=200, name="WCQ-SM"),
            LaplaceMechanism(name="ICQ-LM", kinds=frozenset({QueryKind.ICQ})),
            MultiPokingMechanism(name="ICQ-MPM"),
        ],
        ids=lambda mechanism: mechanism.name,
    )
    def test_exact_matrix_explores_evaluate_no_predicate_mask(self, mechanism):
        table = generate_adult(n_rows=2_000, seed=7)
        workload = prefix_workload("capital_gain", [250.0 * i for i in range(1, 21)])
        assert workload.analyze(table.schema).exact
        if QueryKind.WCQ in mechanism.supported_kinds:
            query = WorkloadCountingQuery(workload)
        else:
            query = IcebergCountingQuery(workload, threshold=0.5 * len(table))
        engine = APExEngine(
            table, budget=1e6, registry=MechanismRegistry([mechanism]), seed=3
        )
        result = engine.explore(query, AccuracySpec(alpha=0.1 * len(table), beta=0.01))
        assert not result.denied and result.mechanism == mechanism.name
        assert table.mask_cache.stats()["misses"] == 0
