"""One Monte-Carlo product per reconstruction value, shared process-wide.

The per-sample maxima ``M_j = max_i |(R Z)_ij|`` of the WCQ-SM/ICQ-SM search
read only the value of ``R = W A^+``, the seed and the sample count.  Equal
reconstructions therefore share one ``R Z`` product, whichever workload,
attribute, schema, mechanism or accuracy asked for it; anything that changes
what ``M`` reads computes a product of its own.  ``search_stats()["searches"]``
counts products, so it pins the sharing.
"""

import numpy as np
import pytest

from repro.core.accuracy import AccuracySpec
from repro.data.adult import ADULT_SCHEMA
from repro.data.nytaxi import NYTAXI_SCHEMA
from repro.mechanisms.reference import strategy_search_epsilon
from repro.mechanisms.strategies import hierarchical_strategy
from repro.mechanisms.strategy_mechanism import (
    IcebergStrategyMechanism,
    StrategyMechanism,
    _MAXIMA,
    _search_maxima,
    reset_search_stats,
    search_stats,
)
from repro.queries.builders import (
    cumulative_histogram_workload,
    histogram_workload,
    prefix_workload,
)
from repro.queries.query import IcebergCountingQuery, WorkloadCountingQuery

N_SAMPLES = 500
SEED = 20190501


@pytest.fixture(autouse=True)
def empty_memo():
    reset_search_stats()
    yield
    reset_search_stats()


def searches() -> int:
    return search_stats()["searches"]


def reconstruction(size: int) -> np.ndarray:
    return hierarchical_strategy(size).reconstruction(np.tril(np.ones((size, size))))


class TestEqualReconstructionsShare:
    def test_histograms_on_two_datasets_share_one_product(self):
        capital_gain = WorkloadCountingQuery(
            histogram_workload("capital_gain", start=0, stop=5000, bins=28)
        )
        fare_amount = WorkloadCountingQuery(
            histogram_workload("fare_amount", start=0, stop=20, bins=28)
        )
        assert np.array_equal(
            capital_gain.workload_matrix(ADULT_SCHEMA).matrix,
            fare_amount.workload_matrix(NYTAXI_SCHEMA).matrix,
        )
        mechanism = StrategyMechanism(mc_samples=N_SAMPLES)
        accuracy = AccuracySpec(alpha=50.0, beta=0.05)
        adult = mechanism.translate(capital_gain, accuracy, ADULT_SCHEMA)
        assert searches() == 1
        taxi = mechanism.translate(fare_amount, accuracy, NYTAXI_SCHEMA)
        assert searches() == 1
        assert len(_MAXIMA) == 1
        assert taxi.epsilon_upper.hex() == adult.epsilon_upper.hex()

    def test_cumulative_wcq_and_prefix_icq_share_one_product(self):
        size = 12
        cumulative = WorkloadCountingQuery(
            cumulative_histogram_workload("capital_gain", start=0, stop=3000, bins=size)
        )
        prefix = IcebergCountingQuery(
            prefix_workload("capital_gain", [250.0 * (j + 1) for j in range(size)]),
            threshold=100,
        )
        assert np.array_equal(
            cumulative.workload_matrix(ADULT_SCHEMA).matrix,
            prefix.workload_matrix(ADULT_SCHEMA).matrix,
        )
        accuracy = AccuracySpec(alpha=50.0, beta=0.05)
        wcq = StrategyMechanism(mc_samples=N_SAMPLES).translate(
            cumulative, accuracy, ADULT_SCHEMA
        )
        icq = IcebergStrategyMechanism(mc_samples=N_SAMPLES).translate(
            prefix, accuracy, ADULT_SCHEMA
        )
        assert searches() == 1
        # ICQ-SM searches at twice beta: the same maxima, another rank.
        matrix = prefix.workload_matrix(ADULT_SCHEMA).matrix
        for translation, beta in ((wcq, 0.05), (icq, 0.1)):
            expected = strategy_search_epsilon(
                hierarchical_strategy, matrix, 50.0, beta, n_samples=N_SAMPLES, seed=SEED
            )
            assert translation.epsilon_upper.hex() == expected.hex()

    def test_other_accuracies_of_one_workload_share_one_product(self):
        mechanism = StrategyMechanism(mc_samples=N_SAMPLES)
        query = WorkloadCountingQuery(
            cumulative_histogram_workload("capital_gain", start=0, stop=3000, bins=9)
        )
        for alpha, beta in ((5.0, 5e-4), (50.0, 0.05), (500.0, 0.2)):
            mechanism.translate(query, AccuracySpec(alpha=alpha, beta=beta), ADULT_SCHEMA)
        assert searches() == 1


class TestDifferentInputsDoNotShare:
    def test_one_differing_element_computes_its_own_product(self):
        base = reconstruction(10)
        changed = base.copy()
        changed[3, 4] = np.nextafter(changed[3, 4], np.inf)
        first, tier = _search_maxima(SEED, N_SAMPLES, base)
        assert tier == "built"
        second, tier = _search_maxima(SEED, N_SAMPLES, changed)
        assert tier == "built"
        assert searches() == 2
        assert second is not first
        again, tier = _search_maxima(SEED, N_SAMPLES, base.copy())
        assert tier == "shared" and again is first
        assert searches() == 2

    def test_equal_values_of_another_shape_do_not_share(self):
        base = reconstruction(6)
        _search_maxima(SEED, N_SAMPLES, base)
        _, tier = _search_maxima(SEED, N_SAMPLES, base.reshape(base.shape[1], -1).copy())
        assert tier == "built"
        assert searches() == 2

    @pytest.mark.parametrize("seed, n_samples", [(SEED + 1, N_SAMPLES), (SEED, N_SAMPLES + 1)])
    def test_another_seed_or_sample_count_computes_its_own_product(self, seed, n_samples):
        base = reconstruction(10)
        _search_maxima(SEED, N_SAMPLES, base)
        maxima, tier = _search_maxima(seed, n_samples, base)
        assert tier == "built"
        assert searches() == 2
        assert len(_MAXIMA) == 2
        assert maxima.shape == (n_samples,)

    def test_mechanisms_with_another_seed_do_not_share(self):
        query = WorkloadCountingQuery(
            cumulative_histogram_workload("capital_gain", start=0, stop=3000, bins=9)
        )
        accuracy = AccuracySpec(alpha=50.0, beta=0.05)
        StrategyMechanism(mc_samples=N_SAMPLES).translate(query, accuracy, ADULT_SCHEMA)
        StrategyMechanism(mc_samples=N_SAMPLES, seed=SEED + 1).translate(
            query, accuracy, ADULT_SCHEMA
        )
        StrategyMechanism(mc_samples=N_SAMPLES + 1).translate(query, accuracy, ADULT_SCHEMA)
        assert searches() == 3


class TestStoredMaxima:
    def test_stored_maxima_are_read_only_float64(self):
        maxima, _ = _search_maxima(SEED, N_SAMPLES, reconstruction(8))
        assert maxima.dtype == np.float64
        assert maxima.shape == (N_SAMPLES,)
        assert not maxima.flags.writeable
        with pytest.raises(ValueError):
            maxima[0] = 0.0

    def test_a_search_leaves_the_stored_maxima_unchanged(self):
        maxima, _ = _search_maxima(SEED, N_SAMPLES, reconstruction(12))
        before = maxima.copy()
        query = WorkloadCountingQuery(
            cumulative_histogram_workload("capital_gain", start=0, stop=3000, bins=12)
        )
        mechanism = StrategyMechanism(mc_samples=N_SAMPLES)
        for beta in (5e-4, 0.05, 0.2):
            mechanism.translate(query, AccuracySpec(alpha=50.0, beta=beta), ADULT_SCHEMA)
        assert searches() == 1
        assert np.array_equal(maxima, before)

    def test_reset_empties_the_memo(self):
        _search_maxima(SEED, N_SAMPLES, reconstruction(8))
        assert len(_MAXIMA) == 1
        reset_search_stats()
        assert len(_MAXIMA) == 0 and searches() == 0
        _, tier = _search_maxima(SEED, N_SAMPLES, reconstruction(8))
        assert tier == "built" and searches() == 1
