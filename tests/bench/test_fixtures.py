"""Tests for the seeded bench table and workload builders."""

import numpy as np
import pytest

from repro.bench.fixtures import build_bench_table, build_bench_workload


@pytest.fixture(scope="module")
def tiny_table():
    return build_bench_table(800, seed=11)


@pytest.fixture(scope="module")
def tiny_workload():
    return build_bench_workload(16, n_amount_cuts=6)


class TestBenchInputs:
    def test_table_shape_and_nulls(self, tiny_table):
        assert len(tiny_table) == 800
        # NULLs present in both a categorical and a numeric column
        assert tiny_table.null_count("region") > 0
        assert tiny_table.null_count("amount") > 0

    def test_workload_supports_domain_analysis(self, tiny_workload):
        assert tiny_workload.size == 16
        assert tiny_workload.supports_domain_analysis

    def test_workload_deterministic(self):
        first = build_bench_workload(16, n_amount_cuts=6)
        second = build_bench_workload(16, n_amount_cuts=6)
        assert first.predicates == second.predicates


def test_numpy_masks_from_bench_workload_are_boolean(tiny_table, tiny_workload):
    membership = tiny_workload.evaluate(tiny_table)
    assert membership.dtype == np.bool_
    assert membership.shape == (len(tiny_table), tiny_workload.size)
