"""Property-based tests (hypothesis) for workload analysis invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data.schema import Attribute, CategoricalDomain, NumericDomain, Schema
from repro.data.table import Table
from repro.queries.builders import (
    histogram_workload,
    marginal_workload,
    point_workload,
    prefix_workload,
    range_workload,
)
from repro.queries.predicates import Between, Comparison
from repro.queries.workload import Workload

SCHEMA = Schema(
    [
        Attribute("cat", CategoricalDomain(["a", "b", "c", "d"])),
        Attribute("num", NumericDomain(0, 1000)),
    ]
)


@st.composite
def tables(draw, min_rows=0, max_rows=80):
    n = draw(st.integers(min_rows, max_rows))
    rows = []
    for _ in range(n):
        rows.append(
            {
                "cat": draw(st.sampled_from(["a", "b", "c", "d"])),
                "num": draw(st.floats(0, 1000, allow_nan=False)),
            }
        )
    return Table.from_rows(SCHEMA, rows)


@st.composite
def strictly_increasing_cuts(draw, low=0.0, high=1000.0, min_size=1, max_size=8):
    values = draw(
        st.lists(
            st.floats(low, high, allow_nan=False, allow_infinity=False),
            min_size=min_size,
            max_size=max_size,
            unique=True,
        )
    )
    return sorted(values)


@st.composite
def wide_workloads(draw, max_size=100):
    """Up to four categorical points plus nested numeric prefixes, L <= 100."""
    points = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=4, unique=True))
    n_cuts = draw(st.integers(1, max_size - len(points)))
    cuts = draw(strictly_increasing_cuts(min_size=n_cuts, max_size=n_cuts))
    return Workload(
        [Comparison("cat", "==", v) for v in points]
        + [Comparison("num", "<", c) for c in cuts]
    )


class TestMatrixReconstructionInvariant:
    """W @ histogram(D) == true per-predicate counts, for every workload shape."""

    @settings(max_examples=30, deadline=None)
    @given(table=tables(), cuts=strictly_increasing_cuts(min_size=2))
    def test_range_workloads(self, table, cuts):
        workload = range_workload("num", cuts)
        analysis = workload.analyze(SCHEMA)
        histogram = analysis.partition_histogram(table)
        assert np.allclose(analysis.matrix @ histogram, workload.true_answers(table))

    @settings(max_examples=30, deadline=None)
    @given(table=tables(), cuts=strictly_increasing_cuts())
    def test_prefix_workloads(self, table, cuts):
        workload = prefix_workload("num", cuts)
        analysis = workload.analyze(SCHEMA)
        histogram = analysis.partition_histogram(table)
        assert np.allclose(analysis.matrix @ histogram, workload.true_answers(table))

    @settings(max_examples=30, deadline=None)
    @given(table=tables(), workload=wide_workloads())
    def test_wide_workloads(self, table, workload):
        """L up to 100 takes the multi-word packed-signature path too."""
        analysis = workload.analyze(SCHEMA)
        histogram = analysis.partition_histogram(table)
        assert np.array_equal(analysis.matrix @ histogram, workload.true_answers(table))

    @settings(max_examples=20, deadline=None)
    @given(table=tables(), bins=st.integers(1, 12))
    def test_marginal_workloads(self, table, bins):
        workload = marginal_workload(
            point_workload("cat", ["a", "b", "c", "d"]),
            histogram_workload("num", start=0, stop=1000, bins=bins),
        )
        analysis = workload.analyze(SCHEMA)
        histogram = analysis.partition_histogram(table)
        assert np.allclose(analysis.matrix @ histogram, workload.true_answers(table))


class TestSensitivityInvariants:
    @settings(max_examples=30, deadline=None)
    @given(cuts=strictly_increasing_cuts(low=0.5, min_size=1, max_size=10))
    def test_prefix_sensitivity_equals_size(self, cuts):
        # cuts stay strictly above the domain minimum so every prefix bin is
        # satisfiable; a cut at exactly 0 makes "num < 0" empty, and an empty
        # predicate correctly contributes nothing to the sensitivity.
        workload = prefix_workload("num", cuts)
        assert workload.analyze(SCHEMA).sensitivity == len(cuts)

    @settings(max_examples=30, deadline=None)
    @given(cuts=strictly_increasing_cuts(min_size=2, max_size=10))
    def test_range_sensitivity_is_one(self, cuts):
        workload = range_workload("num", cuts)
        assert workload.analyze(SCHEMA).sensitivity == 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        table=tables(min_rows=1),
        thresholds=st.lists(st.floats(0, 1000, allow_nan=False), min_size=1, max_size=6, unique=True),
    )
    def test_sensitivity_upper_bounds_row_membership(self, table, thresholds):
        """No row can satisfy more predicates than the declared sensitivity."""
        workload = Workload([Comparison("num", ">", t) for t in thresholds])
        analysis = workload.analyze(SCHEMA)
        membership = workload.evaluate(table)
        assert membership.sum(axis=1).max() <= analysis.sensitivity + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        low=st.floats(0, 400, allow_nan=False),
        width=st.floats(1, 400, allow_nan=False),
        point=st.floats(0, 1000, allow_nan=False),
    )
    def test_mixed_workload_counts_match(self, low, width, point):
        workload = Workload(
            [
                Between("num", low, low + width),
                Comparison("num", ">", point),
                Comparison("cat", "==", "a"),
            ]
        )
        analysis = workload.analyze(SCHEMA)
        assert 1.0 <= analysis.sensitivity <= 3.0
        assert analysis.matrix.shape[0] == 3


class TestHistogramInvariants:
    @settings(max_examples=30, deadline=None)
    @given(table=tables(), bins=st.integers(1, 15))
    def test_histogram_mass_bounded_by_rows(self, table, bins):
        workload = histogram_workload("num", start=0, stop=1000, bins=bins)
        analysis = workload.analyze(SCHEMA)
        histogram = analysis.partition_histogram(table)
        assert histogram.sum() <= len(table)
        assert (histogram >= 0).all()

    @settings(max_examples=30, deadline=None)
    @given(table=tables())
    def test_point_workload_partition_counts(self, table):
        workload = point_workload("cat", ["a", "b", "c", "d"])
        analysis = workload.analyze(SCHEMA)
        histogram = analysis.partition_histogram(table)
        assert histogram.sum() == len(table)
