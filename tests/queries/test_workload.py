"""Tests for workloads, domain partitioning and the matrix representation."""

import numpy as np
import pytest

from repro.core.exceptions import QueryError
from repro.data.schema import Attribute, CategoricalDomain, NumericDomain, Schema
from repro.data.table import Table
from repro.queries.builders import (
    cumulative_histogram_workload,
    histogram_workload,
    marginal_workload,
    point_workload,
    prefix_workload,
)
from repro.queries.predicates import Comparison, FunctionPredicate, IsNull, Or
from repro.queries.reference import reference_partition_histogram
from repro.queries.workload import Workload, WorkloadMatrix


class TestWorkloadBasics:
    def test_size_and_iteration(self):
        workload = point_workload("state", ["A", "B", "C"])
        assert workload.size == len(workload) == 3
        assert len(list(workload)) == 3

    def test_names_default_to_describe(self):
        workload = Workload([Comparison("age", ">", 5)])
        assert workload.names == ("age > 5",)

    def test_custom_names(self):
        workload = Workload([Comparison("age", ">", 5)], ["older"])
        assert workload.name_of(0) == "older"
        assert workload.index_of("older") == 0

    def test_unknown_name(self):
        workload = Workload([Comparison("age", ">", 5)])
        with pytest.raises(QueryError):
            workload.index_of("nope")

    def test_mismatched_names_rejected(self):
        with pytest.raises(QueryError):
            Workload([Comparison("age", ">", 5)], ["a", "b"])

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            Workload([])

    def test_attributes(self):
        workload = Workload(
            [Comparison("age", ">", 5), Comparison("state", "==", "A")]
        )
        assert workload.attributes() == frozenset({"age", "state"})

    def test_evaluate_shape(self, toy_table):
        workload = point_workload("state", ["A", "B", "C"])
        matrix = workload.evaluate(toy_table)
        assert matrix.shape == (len(toy_table), 3)

    def test_true_answers(self, toy_table):
        workload = point_workload("state", ["A", "B", "C"])
        assert list(workload.true_answers(toy_table)) == [3, 4, 5]


class TestExactDomainAnalysis:
    def test_histogram_sensitivity_is_one(self, toy_schema):
        workload = histogram_workload("age", start=0, stop=100, bins=10)
        analysis = workload.analyze(toy_schema)
        assert analysis.exact
        assert analysis.sensitivity == 1.0
        assert analysis.n_partitions == 10

    def test_prefix_sensitivity_equals_size(self, toy_schema):
        workload = prefix_workload("age", [10, 20, 30, 40, 50])
        analysis = workload.analyze(toy_schema)
        assert analysis.sensitivity == 5.0

    def test_cumulative_histogram_sensitivity(self, toy_schema):
        workload = cumulative_histogram_workload("age", start=0, stop=100, bins=8)
        assert workload.analyze(toy_schema).sensitivity == 8.0

    def test_point_workload_sensitivity(self, toy_schema):
        workload = point_workload("state", schema=toy_schema)
        assert workload.analyze(toy_schema).sensitivity == 1.0

    def test_marginal_sensitivity(self, toy_schema):
        workload = marginal_workload(
            histogram_workload("age", start=0, stop=100, bins=4),
            point_workload("state", ["A", "B", "C"]),
        )
        assert workload.analyze(toy_schema).sensitivity == 1.0

    def test_overlapping_ranges_sensitivity(self, toy_schema):
        workload = Workload(
            [Comparison("age", ">", 10), Comparison("age", ">", 20), Comparison("age", ">", 30)]
        )
        # a tuple with age > 30 satisfies all three predicates
        assert workload.analyze(toy_schema).sensitivity == 3.0

    def test_null_predicates(self, toy_schema):
        workload = Workload([Or([IsNull("income"), IsNull("age")]), IsNull("income")])
        analysis = workload.analyze(toy_schema)
        assert analysis.sensitivity == 2.0

    def test_matrix_reproduces_true_answers(self, toy_schema, toy_table):
        workload = prefix_workload("age", [20, 40, 60, 80, 100])
        analysis = workload.analyze(toy_schema)
        histogram = analysis.partition_histogram(toy_table)
        reconstructed = analysis.matrix @ histogram
        assert np.allclose(reconstructed, workload.true_answers(toy_table))

    def test_marginal_matrix_reproduces_true_answers(self, toy_schema, toy_table):
        workload = marginal_workload(
            histogram_workload("age", start=0, stop=100, bins=5),
            point_workload("state", ["A", "B", "C"]),
        )
        analysis = workload.analyze(toy_schema)
        histogram = analysis.partition_histogram(toy_table)
        assert np.allclose(
            analysis.matrix @ histogram, workload.true_answers(toy_table)
        )

    def test_histogram_cache_reused(self, toy_schema, toy_table):
        workload = histogram_workload("age", start=0, stop=100, bins=5)
        analysis = workload.analyze(toy_schema)
        first = analysis.partition_histogram(toy_table)
        second = analysis.partition_histogram(toy_table)
        assert first is second

    def test_out_of_domain_value_raises(self):
        schema = Schema(
            [Attribute("state", CategoricalDomain(["A", "B"])),
             Attribute("age", NumericDomain(0, 100))]
        )
        table = Table.from_rows(schema, [{"state": "Z", "age": 5}])
        workload = Workload(
            [Comparison("state", "==", "A"), Or([Comparison("state", "==", "Z"), Comparison("age", ">", 1)])]
        )
        # "Z" is included as an extra atom because the workload references it,
        # so the analysis still succeeds and covers the row.
        analysis = workload.analyze(schema)
        assert analysis.partition_histogram(table).sum() == 1

    def test_matrix_shape(self, toy_schema):
        workload = histogram_workload("age", start=0, stop=100, bins=10)
        analysis = workload.analyze(toy_schema)
        assert analysis.shape == (10, analysis.n_partitions)
        assert analysis.matrix.shape == analysis.shape


class TestStructuralAnalysis:
    def _opaque_workload(self, n=3):
        predicates = [
            FunctionPredicate(f"f{i}", lambda t, i=i: np.arange(len(t)) % (i + 2) == 0)
            for i in range(n)
        ]
        return Workload(predicates)

    def test_opaque_predicates_force_structural(self, toy_schema):
        workload = self._opaque_workload()
        analysis = workload.analyze(toy_schema)
        assert not analysis.exact
        assert analysis.sensitivity == 3.0

    def test_disjoint_hint(self, toy_schema):
        analysis = self._opaque_workload().analyze(toy_schema, disjoint=True)
        assert analysis.sensitivity == 1.0

    def test_explicit_sensitivity(self, toy_schema):
        analysis = self._opaque_workload().analyze(toy_schema, sensitivity=2.5)
        assert analysis.sensitivity == 2.5

    def test_invalid_sensitivity_rejected(self, toy_schema):
        with pytest.raises(QueryError):
            self._opaque_workload().analyze(toy_schema, sensitivity=-1)

    def test_structural_hint_overrides_exact(self, toy_schema):
        workload = histogram_workload("age", start=0, stop=100, bins=5)
        analysis = workload.analyze(toy_schema, disjoint=True)
        assert not analysis.exact
        assert analysis.sensitivity == 1.0

    def test_structural_true_answers_match(self, toy_table):
        # The shared structural matrix counts no rows; the workload's own
        # counts are the reference histogram through the identity.
        workload = self._opaque_workload()
        analysis = workload.analyze(None)
        with pytest.raises(QueryError, match="counts no rows"):
            analysis.partition_histogram(toy_table)
        with pytest.raises(QueryError, match="counts no rows"):
            analysis.true_answers(toy_table)
        expected = reference_partition_histogram(analysis, workload, toy_table)
        assert np.array_equal(analysis.matrix @ expected, workload.true_answers(toy_table))

    def test_without_schema_falls_back_to_structural(self):
        workload = histogram_workload("age", start=0, stop=100, bins=5)
        analysis = workload.analyze(None)
        assert not analysis.exact
        assert analysis.sensitivity == 5.0  # conservative: L


class TestWorkloadMatrixValidation:
    def test_row_mismatch_rejected(self, toy_schema):
        workload = point_workload("state", ["A", "B"])
        with pytest.raises(QueryError):
            WorkloadMatrix(workload, np.eye(3), [None] * 3, exact=False)  # type: ignore[list-item]

    def test_sensitivity_is_max_column_norm(self, toy_schema):
        workload = prefix_workload("age", [10, 20, 30])
        analysis = workload.analyze(toy_schema)
        assert analysis.sensitivity == np.abs(analysis.matrix).sum(axis=0).max()
