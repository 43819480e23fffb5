"""Tests for the multi-poking mechanism (ICQ-MPM, Algorithm 4)."""

import numpy as np
import pytest

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import MechanismError, TranslationError
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.multi_poking import MultiPokingMechanism
from repro.queries.builders import histogram_workload, point_workload, range_workload
from repro.queries.query import IcebergCountingQuery, QueryKind, WorkloadCountingQuery
from tests.mechanisms.util import binomial_allowance, iceberg_failed


@pytest.fixture()
def mechanism() -> MultiPokingMechanism:
    return MultiPokingMechanism(n_pokes=10)


def _iceberg(table, threshold_fraction: float, bins: int = 20) -> IcebergCountingQuery:
    return IcebergCountingQuery(
        histogram_workload("capital_gain", start=0, stop=5000, bins=bins),
        threshold=threshold_fraction * len(table),
        name=f"icq-{threshold_fraction}",
    )


class TestTranslate:
    def test_bounds(self, mechanism, adult_small):
        query = _iceberg(adult_small, 0.1)
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        translation = mechanism.translate(query, accuracy, adult_small.schema)
        assert translation.is_data_dependent
        assert translation.epsilon_lower == pytest.approx(
            translation.epsilon_upper / mechanism.n_pokes
        )

    def test_upper_bound_exceeds_laplace(self, mechanism, adult_small):
        """Worst case MPM is costlier than the baseline (Section 5.3.2)."""
        query = _iceberg(adult_small, 0.1)
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        mpm = mechanism.translate(query, accuracy, adult_small.schema)
        lm = LaplaceMechanism().translate(query, accuracy, adult_small.schema)
        assert mpm.epsilon_upper > lm.epsilon_upper
        assert mpm.epsilon_lower < lm.epsilon_upper

    def test_only_supports_icq(self, mechanism):
        wcq = WorkloadCountingQuery(point_workload("age", [1.0]))
        assert not mechanism.supports(wcq)
        assert mechanism.supported_kinds == frozenset({QueryKind.ICQ})

    def test_invalid_poke_count(self):
        with pytest.raises(MechanismError):
            MultiPokingMechanism(n_pokes=0)

    def test_loose_beta_rejected(self, adult_small):
        single_poke = MultiPokingMechanism(n_pokes=1)
        query = _iceberg(adult_small, 0.1, bins=1)
        with pytest.raises(TranslationError):
            # m * L / (2 beta) <= 1 makes the translation meaningless
            single_poke.translate(query, AccuracySpec(alpha=10, beta=0.9), adult_small.schema)


class TestRun:
    def test_spends_at_most_upper_bound(self, mechanism, adult_small, rng):
        query = _iceberg(adult_small, 0.1)
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        translation = mechanism.translate(query, accuracy, adult_small.schema)
        result = mechanism.run(query, accuracy, adult_small, rng)
        assert result.epsilon_spent <= translation.epsilon_upper + 1e-9

    def test_easy_threshold_stops_after_first_poke(self, mechanism, adult_small, rng):
        """When all counts are far from c, one poke suffices (Example 5.4)."""
        query = _iceberg(adult_small, 2.0)  # threshold far above every count
        accuracy = AccuracySpec(alpha=0.02 * len(adult_small))
        result = mechanism.run(query, accuracy, adult_small, rng)
        assert result.metadata["pokes_used"] == 1
        translation = mechanism.translate(query, accuracy, adult_small.schema)
        assert result.epsilon_spent == pytest.approx(translation.epsilon_lower)

    def test_hard_threshold_costs_more(self, adult_small):
        """A threshold close to many counts needs more pokes on average."""
        mechanism = MultiPokingMechanism(n_pokes=10)
        accuracy = AccuracySpec(alpha=0.02 * len(adult_small))
        rng = np.random.default_rng(3)
        easy_query = _iceberg(adult_small, 0.99)
        counts = easy_query.true_counts(adult_small)
        # pick a threshold equal to one of the mid-range counts: hard to decide
        hard_threshold = float(np.median(counts[counts > 0]))
        hard_query = IcebergCountingQuery(
            histogram_workload("capital_gain", start=0, stop=5000, bins=20),
            threshold=hard_threshold,
            name="icq-hard",
        )
        easy_costs = [
            mechanism.run(easy_query, accuracy, adult_small, rng).epsilon_spent
            for _ in range(5)
        ]
        hard_costs = [
            mechanism.run(hard_query, accuracy, adult_small, rng).epsilon_spent
            for _ in range(5)
        ]
        assert np.median(hard_costs) > np.median(easy_costs)

    def test_answer_is_subset_of_bins(self, mechanism, adult_small, rng):
        query = _iceberg(adult_small, 0.1)
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        result = mechanism.run(query, accuracy, adult_small, rng)
        assert set(result.value) <= set(query.bin_names())

    def test_noisy_counts_not_exposed(self, mechanism, adult_small, rng):
        query = _iceberg(adult_small, 0.1)
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        result = mechanism.run(query, accuracy, adult_small, rng)
        assert result.noisy_counts is None

    @pytest.mark.parametrize(
        "bins, alpha_fraction, threshold_quantile",
        [(10, 0.03, None), (100, 0.01, 0.25), (100, 0.01, 0.5), (100, 0.01, 0.75)],
        ids=["10-bins", "100-bins-q25", "100-bins-q50", "100-bins-q75"],
    )
    def test_accuracy_guarantee_statistical(
        self, adult_small, bins, alpha_fraction, threshold_quantile
    ):
        """Mislabelled bins must lie within alpha of the threshold (Thm 5.5):
        the observed failures stay within the 99.9% one-sided binomial
        allowance at beta, and every run is charged exactly the pokes it
        used.  The 100-bin cases put the threshold at one of the true counts,
        so that bin and its neighbours sit on the decision boundary."""
        mechanism = MultiPokingMechanism(n_pokes=5)
        beta = 0.1
        accuracy = AccuracySpec(alpha=alpha_fraction * len(adult_small), beta=beta)
        if threshold_quantile is None:
            query = _iceberg(adult_small, 0.05, bins=bins)
        else:
            workload = histogram_workload("age", start=0, stop=100, bins=bins)
            counts = workload.evaluate(adult_small).sum(axis=0)
            threshold = float(np.quantile(counts, threshold_quantile, method="lower"))
            query = IcebergCountingQuery(workload, threshold=threshold)
        truth = query.true_counts(adult_small)
        epsilon_upper = mechanism.translate(query, accuracy, adult_small.schema).epsilon_upper
        rng = np.random.default_rng(17)
        trials, failures = 150, 0
        for _ in range(trials):
            result = mechanism.run(query, accuracy, adult_small, rng)
            failures += iceberg_failed(query, truth, accuracy.alpha, result.value)
            pokes = result.metadata["pokes_used"]
            assert result.epsilon_spent == pytest.approx(pokes * epsilon_upper / 5)
            assert result.epsilon_spent <= epsilon_upper + 1e-12
        assert failures <= binomial_allowance(trials, beta)

    @pytest.mark.parametrize(
        "offset_alphas", [0.0, 0.5, -0.5, 2.0, -2.0], ids=["c", "+a/2", "-a/2", "+2a", "-2a"]
    )
    def test_accuracy_guarantee_single_bin(self, adult_small, offset_alphas):
        """The entity-resolution shape (L = 1): the threshold at the bin's true
        count, within alpha of it, and 2 alpha away.  Misses stay within the
        binomial allowance at beta, and every run spends ``k epsilon_max / m``
        for the ``k <= m`` pokes it used, never more than ``epsilon_upper``."""
        mechanism = MultiPokingMechanism(n_pokes=10)
        query_workload = range_workload("age", [30, 50])
        count = float(query_workload.evaluate(adult_small).sum())
        beta = 0.05
        accuracy = AccuracySpec(alpha=0.01 * len(adult_small), beta=beta)
        query = IcebergCountingQuery(
            query_workload, threshold=count + offset_alphas * accuracy.alpha
        )
        truth = query.true_counts(adult_small)
        epsilon_upper = mechanism.translate(query, accuracy, adult_small.schema).epsilon_upper
        rng = np.random.default_rng(29)
        trials, failures = 400, 0
        for _ in range(trials):
            result = mechanism.run(query, accuracy, adult_small, rng)
            failures += iceberg_failed(query, truth, accuracy.alpha, result.value)
            pokes = result.metadata["pokes_used"]
            assert 1 <= pokes <= mechanism.n_pokes
            assert result.epsilon_spent == pytest.approx(pokes * epsilon_upper / 10)
            assert result.epsilon_spent <= epsilon_upper
        assert failures <= binomial_allowance(trials, beta)

    def test_single_poke_mechanism(self, adult_small, rng):
        """m = 1 degenerates to a one-shot threshold test and still works."""
        mechanism = MultiPokingMechanism(n_pokes=1)
        query = _iceberg(adult_small, 0.1)
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        result = mechanism.run(query, accuracy, adult_small, rng)
        assert result.epsilon_spent == pytest.approx(result.epsilon_upper)
