"""Tests for strategy matrices (identity, hierarchical H2)."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.exceptions import MechanismError
from repro.mechanisms.strategies import (
    StrategyMatrix,
    hierarchical_strategy,
    identity_strategy,
    workload_as_strategy,
)
from repro.queries.builders import histogram_workload, prefix_workload
from repro.data.schema import Attribute, NumericDomain, Schema


@pytest.fixture()
def numeric_schema():
    return Schema([Attribute("x", NumericDomain(0, 1000))])


class TestIdentityStrategy:
    def test_shape_and_sensitivity(self):
        strategy = identity_strategy(8)
        assert strategy.matrix.shape == (8, 8)
        assert strategy.sensitivity == 1.0

    def test_invalid_size(self):
        with pytest.raises(MechanismError):
            identity_strategy(0)

    def test_supports_any_workload(self):
        strategy = identity_strategy(5)
        workload = np.random.default_rng(0).random((7, 5))
        assert strategy.supports(workload)


class TestHierarchicalStrategy:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 16, 33, 100])
    def test_sensitivity_is_logarithmic(self, n):
        strategy = hierarchical_strategy(n)
        assert strategy.sensitivity <= math.ceil(math.log2(max(n, 2))) + 2

    @pytest.mark.parametrize("n", [1, 5, 16, 41])
    def test_contains_leaves_and_root(self, n):
        strategy = hierarchical_strategy(n)
        matrix = strategy.matrix
        # root row counts every partition
        assert any(np.all(row == 1) for row in matrix)
        # every unit vector appears (leaf rows), so any workload is supported
        for leaf in range(n):
            unit = np.zeros(n)
            unit[leaf] = 1
            assert any(np.array_equal(row, unit) for row in matrix)

    def test_supports_prefix_workload(self, numeric_schema):
        workload = prefix_workload("x", [100.0 * i for i in range(1, 17)])
        analysis = workload.analyze(numeric_schema)
        strategy = hierarchical_strategy(analysis.n_partitions)
        assert strategy.supports(analysis.matrix)

    def test_sensitivity_below_prefix_workload(self, numeric_schema):
        workload = prefix_workload("x", [50.0 * i for i in range(1, 21)])
        analysis = workload.analyze(numeric_schema)
        strategy = hierarchical_strategy(analysis.n_partitions)
        assert strategy.sensitivity < analysis.sensitivity

    def test_branching_factor(self):
        h4 = hierarchical_strategy(64, branching=4)
        h2 = hierarchical_strategy(64, branching=2)
        assert h4.sensitivity < h2.sensitivity
        assert h4.name == "H4"

    def test_invalid_branching(self):
        with pytest.raises(MechanismError):
            hierarchical_strategy(8, branching=1)


class TestStrategyMatrixBehaviour:
    def test_pinv_cached(self):
        strategy = identity_strategy(4)
        assert strategy.pseudo_inverse is strategy.pseudo_inverse

    def test_immutable_once_built(self):
        strategy = hierarchical_strategy(5)
        assert np.array_equal(strategy.pseudo_inverse, np.linalg.pinv(strategy.matrix))
        with pytest.raises(dataclasses.FrozenInstanceError):
            strategy.matrix = np.eye(5)
        with pytest.raises(ValueError):
            strategy.matrix[0, 0] = 2.0
        with pytest.raises(ValueError):
            strategy.pseudo_inverse[0, 0] = 2.0

    def test_does_not_alias_the_callers_array(self):
        source = np.eye(3)
        strategy = StrategyMatrix(source, name="identity")
        source[0, 0] = 5.0
        assert strategy.matrix[0, 0] == 1.0
        assert source.flags.writeable

    def test_no_reconstruction_outside_the_row_space(self):
        total = StrategyMatrix(np.ones((1, 3)), name="total")
        assert total.reconstruction(np.eye(3)) is None
        assert not total.supports(np.eye(3))
        assert np.allclose(total.reconstruction(np.ones((2, 3))), 1.0)

    def test_reconstruction_shape(self, numeric_schema):
        workload = histogram_workload("x", start=0, stop=1000, bins=8)
        analysis = workload.analyze(numeric_schema)
        strategy = hierarchical_strategy(analysis.n_partitions)
        reconstruction = strategy.reconstruction(analysis.matrix)
        assert reconstruction.shape == (8, strategy.n_queries)

    def test_reconstruction_exact_without_noise(self, numeric_schema):
        workload = prefix_workload("x", [100.0 * i for i in range(1, 11)])
        analysis = workload.analyze(numeric_schema)
        strategy = hierarchical_strategy(analysis.n_partitions)
        x = np.arange(analysis.n_partitions, dtype=float)
        direct = analysis.matrix @ x
        via_strategy = strategy.reconstruction(analysis.matrix) @ (strategy.matrix @ x)
        assert np.allclose(direct, via_strategy)

    def test_dimension_mismatch(self):
        strategy = identity_strategy(4)
        with pytest.raises(MechanismError):
            strategy.reconstruction(np.eye(5))
        assert not strategy.supports(np.eye(5))

    def test_workload_as_strategy(self):
        matrix = np.array([[1.0, 0.0], [1.0, 1.0]])
        strategy = workload_as_strategy(matrix, name="W")
        assert strategy.name == "W"
        assert strategy.sensitivity == 2.0

    def test_invalid_matrix_rejected(self):
        with pytest.raises(MechanismError):
            StrategyMatrix(np.zeros((0, 3)))
        with pytest.raises(MechanismError):
            StrategyMatrix(np.zeros(3))
