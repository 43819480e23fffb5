"""Parity tests: the vectorized engine must match the seed semantics exactly.

Randomized tables (with NULLs in numeric *and* categorical columns) are
evaluated through both the array-native path (interned codes, cached columnar
artifacts, broadcast domain analysis) and the preserved reference
implementations of :mod:`repro.queries.reference`; masks and workload
matrices must be bit-identical, including SQL NULL handling and
inclusive/exclusive interval bounds.
"""

import numpy as np
import pytest

from repro.data.schema import Attribute, CategoricalDomain, NumericDomain, Schema
from repro.data.table import Table
from repro.queries.predicates import (
    And,
    Between,
    Comparison,
    In,
    IsNull,
    Not,
    Or,
    Predicate,
)
from repro.queries.reference import (
    reference_domain_matrix,
    reference_mask,
    reference_null_mask,
)
from repro.queries.workload import (
    Workload,
    WorkloadMatrix,
    clear_matrix_cache,
    matrix_cache_stats,
)

STATES = ("AL", "AK", "AZ", "CA", "NY", "TX")
KINDS = ("gold", "silver", "bronze")
#: Constants deliberately include exact data values (integers) so equality
#: and inclusive/exclusive bound edge cases actually trigger.
NUMERIC_CONSTANTS = (0.0, 1.0, 5.0, 10.0, 25.0, 49.0, 50.0, 99.0, 100.0)


def parity_schema() -> Schema:
    return Schema(
        [
            Attribute("state", CategoricalDomain(STATES), nullable=True),
            Attribute("kind", CategoricalDomain(KINDS)),
            Attribute("score", NumericDomain(0, 100), nullable=True),
            Attribute("count", NumericDomain(0, 1000, integral=True)),
        ],
        name="Parity",
    )


def random_table(rng: np.random.Generator, n_rows: int = 500) -> Table:
    schema = parity_schema()
    state = np.array(
        [STATES[i] for i in rng.integers(0, len(STATES), n_rows)], dtype=object
    )
    state[rng.random(n_rows) < 0.15] = None
    kind = np.array(
        [KINDS[i] for i in rng.integers(0, len(KINDS), n_rows)], dtype=object
    )
    score = rng.integers(0, 101, n_rows).astype(float)
    score[rng.random(n_rows) < 0.2] = np.nan
    count = rng.integers(0, 1001, n_rows).astype(float)
    return Table(
        schema, {"state": state, "kind": kind, "score": score, "count": count}
    )


def random_atom(rng: np.random.Generator) -> Predicate:
    choice = rng.integers(0, 7)
    if choice == 0:
        return Comparison("state", rng.choice(["==", "!="]), str(rng.choice(STATES)))
    if choice == 1:
        return Comparison(
            "score",
            str(rng.choice(["==", "!=", "<", "<=", ">", ">="])),
            float(rng.choice(NUMERIC_CONSTANTS)),
        )
    if choice == 2:
        low, high = sorted(rng.choice(NUMERIC_CONSTANTS, size=2))
        return Between(
            "score",
            float(low),
            float(high),
            low_inclusive=bool(rng.integers(0, 2)),
            high_inclusive=bool(rng.integers(0, 2)),
        )
    if choice == 3:
        size = int(rng.integers(1, 4))
        values = list(rng.choice(list(STATES) + ["ZZ"], size=size, replace=False))
        return In("state", values)
    if choice == 4:
        return IsNull(str(rng.choice(["state", "score"])), negated=bool(rng.integers(0, 2)))
    if choice == 5:
        return Comparison("kind", "==", str(rng.choice(KINDS)))
    return Comparison("count", str(rng.choice(["<", ">="])), float(rng.integers(0, 1001)))


def random_predicate(rng: np.random.Generator, depth: int = 2) -> Predicate:
    if depth == 0 or rng.random() < 0.4:
        return random_atom(rng)
    combinator = rng.integers(0, 3)
    if combinator == 0:
        return Not(random_predicate(rng, depth - 1))
    children = [random_predicate(rng, depth - 1) for _ in range(int(rng.integers(2, 4)))]
    return And(children) if combinator == 1 else Or(children)


class TestMaskParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_predicates_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        table = random_table(rng)
        for _ in range(40):
            predicate = random_predicate(rng)
            expected = reference_mask(predicate, table)
            actual = predicate.evaluate(table)
            assert actual.dtype == np.bool_
            assert np.array_equal(actual, expected), predicate.describe()

    def test_null_mask_parity(self):
        rng = np.random.default_rng(99)
        table = random_table(rng)
        for name in ("state", "kind", "score", "count"):
            assert np.array_equal(
                table.is_null(name), reference_null_mask(table, name)
            )

    def test_comparison_constant_absent_from_data(self):
        rng = np.random.default_rng(3)
        table = random_table(rng)
        for predicate in (
            Comparison("state", "==", "ZZ"),
            Comparison("state", "!=", "ZZ"),
            In("state", ["ZZ", "QQ"]),
        ):
            assert np.array_equal(
                predicate.evaluate(table), reference_mask(predicate, table)
            )

    def test_in_on_numeric_attribute_matches_seed(self):
        # IN lists hold strings; on a numeric column the seed matched nothing
        # (float != str).  The vectorized path must do the same -- without
        # interning every distinct float of the column.
        rng = np.random.default_rng(8)
        table = random_table(rng)
        predicate = In("score", ["5", "10"])
        assert np.array_equal(
            predicate.evaluate(table), reference_mask(predicate, table)
        )
        assert not predicate.evaluate(table).any()
        assert "score" not in table.snapshot()._category_codes

    def test_unknown_attribute_raises_schema_error(self):
        from repro.core.exceptions import SchemaError

        rng = np.random.default_rng(9)
        table = random_table(rng)
        with pytest.raises(SchemaError):
            Between("nope", 0.0, 1.0).evaluate(table)
        with pytest.raises(SchemaError):
            table.numeric_values("nope")

    def test_masks_are_cached_and_read_only(self):
        rng = np.random.default_rng(5)
        table = random_table(rng)
        predicate = Comparison("state", "==", "CA")
        first = predicate.evaluate(table)
        second = Comparison("state", "==", "CA").evaluate(table)
        assert first is second  # value-equal predicate hits the same entry
        with pytest.raises(ValueError):
            first[0] = True

    def test_filtered_table_has_fresh_caches(self):
        rng = np.random.default_rng(6)
        table = random_table(rng)
        predicate = Comparison("kind", "==", "gold")
        mask = predicate.evaluate(table)
        filtered = table.filter(mask)
        assert predicate.evaluate(filtered).all()
        assert len(predicate.evaluate(filtered)) == int(mask.sum())

    def test_clear_caches_recomputes_identically(self):
        rng = np.random.default_rng(7)
        table = random_table(rng)
        predicate = Or([IsNull("score"), Comparison("score", ">", 50.0)])
        before = predicate.evaluate(table).copy()
        table.clear_caches()
        assert np.array_equal(predicate.evaluate(table), before)


class TestDomainAnalysisParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_workloads_bit_identical(self, seed):
        rng = np.random.default_rng(1000 + seed)
        schema = parity_schema()
        predicates = [random_predicate(rng) for _ in range(int(rng.integers(3, 10)))]
        workload = Workload(predicates)
        expected_matrix, expected_partitions = reference_domain_matrix(
            workload, schema
        )
        analysis = WorkloadMatrix.from_domain_analysis(workload, schema)
        assert np.array_equal(analysis.matrix, expected_matrix)
        assert [p.signature for p in analysis.partitions] == [
            p.signature for p in expected_partitions
        ]
        assert [p.description for p in analysis.partitions] == [
            p.description for p in expected_partitions
        ]

    def test_interval_bound_edge_cases(self):
        schema = parity_schema()
        workload = Workload(
            [
                Between("score", 10.0, 50.0, low_inclusive=True, high_inclusive=True),
                Between("score", 10.0, 50.0, low_inclusive=False, high_inclusive=False),
                Comparison("score", "==", 50.0),
                Comparison("score", ">=", 50.0),
                Comparison("score", ">", 50.0),
            ]
        )
        expected_matrix, _ = reference_domain_matrix(workload, schema)
        analysis = WorkloadMatrix.from_domain_analysis(workload, schema)
        assert np.array_equal(analysis.matrix, expected_matrix)
        # histogram reconstruction still matches true answers on real data
        table = random_table(np.random.default_rng(42))
        histogram = analysis.partition_histogram(table)
        assert np.allclose(analysis.matrix @ histogram, workload.true_answers(table))

    def test_multi_chunk_enumeration_parity(self, monkeypatch):
        """Force many tiny chunks: cross-chunk dedupe and first-cell
        descriptions must match the single-pass reference exactly."""
        import repro.queries.workload as workload_module

        monkeypatch.setattr(workload_module, "_CELL_BUDGET", 1)
        monkeypatch.setattr(workload_module, "_MIN_CHUNK_CELLS", 7)
        rng = np.random.default_rng(777)
        schema = parity_schema()
        workload = Workload([random_predicate(rng) for _ in range(8)])
        expected_matrix, expected_partitions = reference_domain_matrix(
            workload, schema
        )
        analysis = WorkloadMatrix.from_domain_analysis(workload, schema)
        assert np.array_equal(analysis.matrix, expected_matrix)
        assert [(p.signature, p.description) for p in analysis.partitions] == [
            (p.signature, p.description) for p in expected_partitions
        ]

    def test_null_cells_parity(self):
        schema = parity_schema()
        workload = Workload(
            [
                IsNull("state"),
                IsNull("score", negated=True),
                And([IsNull("state", negated=True), Comparison("score", "<", 25.0)]),
            ]
        )
        expected_matrix, _ = reference_domain_matrix(workload, schema)
        analysis = WorkloadMatrix.from_domain_analysis(workload, schema)
        assert np.array_equal(analysis.matrix, expected_matrix)


class TestAnalysisMemo:
    def test_structurally_equal_workloads_share_matrix(self):
        clear_matrix_cache()
        schema = parity_schema()
        first = Workload([Comparison("score", ">", 10.0)]).analyze(schema)
        hits_before = matrix_cache_stats()["hits"]
        second = Workload([Comparison("score", ">", 10.0)]).analyze(schema)
        assert second is first
        assert matrix_cache_stats()["hits"] == hits_before + 1

    def test_different_overrides_do_not_collide(self):
        clear_matrix_cache()
        schema = parity_schema()
        workload = Workload([Comparison("score", ">", 10.0)])
        exact = workload.analyze(schema)
        disjoint = workload.analyze(schema, disjoint=True)
        assert exact.exact and not disjoint.exact
        assert disjoint.sensitivity == 1.0

    def test_memoised_matrix_does_not_pin_tables(self):
        """A matrix parked in the module-level memo holds its histogram's
        table only weakly, so discarded tables stay collectible."""
        import gc
        import weakref

        clear_matrix_cache()
        schema = parity_schema()
        analysis = Workload([Comparison("score", ">", 10.0)]).analyze(schema)
        table = random_table(np.random.default_rng(1), n_rows=50)
        analysis.partition_histogram(table)
        ref = weakref.ref(table)
        del table
        gc.collect()
        assert ref() is None

    def test_structural_tokens_shared_for_equal_identity_matrices(self):
        workload_a = Workload([Comparison("score", ">", 1.0)])
        workload_b = Workload([Comparison("count", "<", 7.0)])
        matrix_a = workload_a.analyze(None, sensitivity=1.0)
        matrix_b = workload_b.analyze(None, sensitivity=1.0)
        assert matrix_a.cache_token == matrix_b.cache_token
        # a different sensitivity means a different translation: token differs
        wider = Workload(
            [Comparison("score", ">", 1.0), Comparison("score", ">", 2.0)]
        ).analyze(None)
        assert matrix_a.cache_token != wider.cache_token
