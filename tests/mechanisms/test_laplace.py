"""Tests for the baseline Laplace mechanism (Algorithm 2)."""

import math

import numpy as np
import pytest

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import MechanismError, TranslationError
from repro.data.schema import Attribute, NumericDomain, Schema
from repro.data.table import Table
from repro.mechanisms.laplace import LaplaceMechanism, laplace_epsilon_for_accuracy
from repro.mechanisms.noisy_topk import LaplaceTopKMechanism
from repro.queries.builders import histogram_workload, point_workload, prefix_workload
from repro.queries.query import (
    IcebergCountingQuery,
    QueryKind,
    TopKCountingQuery,
    WorkloadCountingQuery,
)
from tests.mechanisms.util import binomial_allowance, iceberg_failed, topk_failed


@pytest.fixture()
def mechanism() -> LaplaceMechanism:
    return LaplaceMechanism()


class TestTranslate:
    def test_wcq_formula(self, mechanism, adult_small, capital_gain_histogram_query):
        accuracy = AccuracySpec(alpha=100, beta=1e-3)
        translation = mechanism.translate(
            capital_gain_histogram_query, accuracy, adult_small.schema
        )
        L = capital_gain_histogram_query.workload_size
        expected = math.log(1 / (1 - (1 - 1e-3) ** (1 / L))) / 100
        assert translation.epsilon_upper == pytest.approx(expected)
        assert translation.epsilon_lower == translation.epsilon_upper
        assert not translation.is_data_dependent

    def test_wcq_sensitivity_scales_epsilon(self, mechanism, adult_small,
                                            capital_gain_histogram_query,
                                            capital_gain_prefix_query):
        accuracy = AccuracySpec(alpha=100, beta=1e-3)
        disjoint = mechanism.translate(
            capital_gain_histogram_query, accuracy, adult_small.schema
        )
        prefix = mechanism.translate(
            capital_gain_prefix_query, accuracy, adult_small.schema
        )
        ratio = prefix.epsilon_upper / disjoint.epsilon_upper
        assert ratio == pytest.approx(capital_gain_prefix_query.workload_size)

    def test_icq_cheaper_than_wcq(self, mechanism, adult_small):
        workload = histogram_workload("capital_gain", start=0, stop=5000, bins=20)
        accuracy = AccuracySpec(alpha=100, beta=1e-3)
        wcq = mechanism.translate(
            WorkloadCountingQuery(workload), accuracy, adult_small.schema
        )
        icq = mechanism.translate(
            IcebergCountingQuery(workload, threshold=100), accuracy, adult_small.schema
        )
        assert icq.epsilon_upper < wcq.epsilon_upper

    def test_tcq_formula(self, mechanism, adult_small, age_topk_query):
        accuracy = AccuracySpec(alpha=200, beta=1e-3)
        translation = mechanism.translate(age_topk_query, accuracy, adult_small.schema)
        L = age_topk_query.workload_size
        expected = 2 * math.log(L / (2 * 1e-3)) / 200
        assert translation.epsilon_upper == pytest.approx(expected)

    def test_epsilon_decreases_with_alpha(self, mechanism, adult_small,
                                          capital_gain_histogram_query):
        tight = mechanism.translate(
            capital_gain_histogram_query, AccuracySpec(alpha=50), adult_small.schema
        )
        loose = mechanism.translate(
            capital_gain_histogram_query, AccuracySpec(alpha=500), adult_small.schema
        )
        assert loose.epsilon_upper == pytest.approx(tight.epsilon_upper / 10)

    def test_epsilon_increases_with_confidence(self, mechanism, adult_small,
                                               capital_gain_histogram_query):
        strict = mechanism.translate(
            capital_gain_histogram_query,
            AccuracySpec(alpha=100, beta=1e-6),
            adult_small.schema,
        )
        loose = mechanism.translate(
            capital_gain_histogram_query,
            AccuracySpec(alpha=100, beta=1e-2),
            adult_small.schema,
        )
        assert strict.epsilon_upper > loose.epsilon_upper

    def test_loose_beta_rejected_for_icq(self):
        with pytest.raises(TranslationError):
            laplace_epsilon_for_accuracy(
                QueryKind.ICQ, 1.0, 1, AccuracySpec(alpha=10, beta=0.8)
            )

    def test_loose_beta_rejected_for_tcq(self):
        with pytest.raises(TranslationError):
            laplace_epsilon_for_accuracy(
                QueryKind.TCQ, 1.0, 1, AccuracySpec(alpha=10, beta=0.9)
            )

    def test_invalid_sensitivity(self):
        with pytest.raises(TranslationError):
            laplace_epsilon_for_accuracy(QueryKind.WCQ, 0.0, 5, AccuracySpec(alpha=10))

    def test_kind_restriction(self):
        restricted = LaplaceMechanism(name="WCQ-only", kinds=frozenset({QueryKind.WCQ}))
        icq = IcebergCountingQuery(point_workload("age", [1.0]), threshold=5)
        assert not restricted.supports(icq)
        with pytest.raises(MechanismError):
            restricted.translate(icq, AccuracySpec(alpha=10))


class TestRun:
    def test_wcq_returns_noisy_counts(self, mechanism, adult_small,
                                      capital_gain_histogram_query, rng):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        result = mechanism.run(capital_gain_histogram_query, accuracy, adult_small, rng)
        assert isinstance(result.value, np.ndarray)
        assert len(result.value) == capital_gain_histogram_query.workload_size
        assert result.epsilon_spent == result.epsilon_upper

    def test_wcq_noise_within_alpha(self, mechanism, adult_small,
                                    capital_gain_histogram_query, rng):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small), beta=1e-3)
        truth = capital_gain_histogram_query.true_counts(adult_small)
        result = mechanism.run(capital_gain_histogram_query, accuracy, adult_small, rng)
        assert np.abs(result.value - truth).max() < accuracy.alpha

    def test_icq_returns_bin_ids(self, mechanism, adult_small,
                                 capital_gain_iceberg_query, rng):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        result = mechanism.run(capital_gain_iceberg_query, accuracy, adult_small, rng)
        assert isinstance(result.value, list)
        assert set(result.value) <= set(capital_gain_iceberg_query.bin_names())

    def test_tcq_returns_k_bins(self, mechanism, adult_small, age_topk_query, rng):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        result = mechanism.run(age_topk_query, accuracy, adult_small, rng)
        assert len(result.value) == age_topk_query.k

    def test_reproducible_with_seed(self, mechanism, adult_small,
                                    capital_gain_histogram_query):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        a = mechanism.run(capital_gain_histogram_query, accuracy, adult_small, rng=0)
        b = mechanism.run(capital_gain_histogram_query, accuracy, adult_small, rng=0)
        assert np.allclose(a.value, b.value)

    def test_noisy_counts_exposed_for_wcq(self, mechanism, adult_small,
                                          capital_gain_histogram_query, rng):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        result = mechanism.run(capital_gain_histogram_query, accuracy, adult_small, rng)
        assert result.noisy_counts is not None

    def test_metadata_contains_scale(self, mechanism, adult_small,
                                     capital_gain_histogram_query, rng):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        result = mechanism.run(capital_gain_histogram_query, accuracy, adult_small, rng)
        assert result.metadata["noise_scale"] > 0


class TestAccuracyGuarantee:
    """Statistical check of Theorem 5.2: the (alpha, beta) bound holds."""

    def test_wcq_failure_rate_below_beta(self, adult_small):
        mechanism = LaplaceMechanism()
        query = WorkloadCountingQuery(
            histogram_workload("capital_gain", start=0, stop=5000, bins=10)
        )
        beta = 0.05
        accuracy = AccuracySpec(alpha=0.02 * len(adult_small), beta=beta)
        truth = query.true_counts(adult_small)
        rng = np.random.default_rng(0)
        trials, failures = 400, 0
        for _ in range(trials):
            result = mechanism.run(query, accuracy, adult_small, rng)
            failures += bool(np.abs(result.value - truth).max() >= accuracy.alpha)
            assert result.epsilon_spent <= result.epsilon_upper
        assert failures <= binomial_allowance(trials, beta)

    @pytest.mark.parametrize("threshold_quantile", [0.25, 0.5, 0.75])
    def test_icq_failure_rate_below_beta(self, adult_small, threshold_quantile):
        """ICQ-LM with the threshold at one of the true counts, so that bin
        and its neighbours sit on the decision boundary: the failures stay
        within the 99.9% one-sided binomial allowance at beta, and no run
        spends more than its upper bound."""
        mechanism = LaplaceMechanism(name="ICQ-LM", kinds=frozenset({QueryKind.ICQ}))
        workload = histogram_workload("age", start=0, stop=100, bins=100)
        counts = workload.true_answers(adult_small)
        threshold = float(np.quantile(counts, threshold_quantile, method="lower"))
        query = IcebergCountingQuery(workload, threshold=threshold)
        beta = 0.1
        accuracy = AccuracySpec(alpha=0.01 * len(adult_small), beta=beta)
        truth = query.true_counts(adult_small)
        rng = np.random.default_rng(23)
        trials, failures = 200, 0
        for _ in range(trials):
            result = mechanism.run(query, accuracy, adult_small, rng)
            failures += iceberg_failed(query, truth, accuracy.alpha, result.value)
            assert result.epsilon_spent <= result.epsilon_upper
        assert failures <= binomial_allowance(trials, beta)

    @pytest.mark.parametrize(
        "mechanism",
        [LaplaceMechanism(name="TCQ-LM"), LaplaceTopKMechanism()],
        ids=lambda mechanism: mechanism.name,
    )
    def test_tcq_failure_rate_below_beta(self, adult_small, mechanism):
        query = TopKCountingQuery(
            point_workload("age", [float(a) for a in range(17, 57)]), k=5
        )
        beta = 0.05
        accuracy = AccuracySpec(alpha=0.03 * len(adult_small), beta=beta)
        truth = query.true_counts(adult_small)
        kth = query.kth_largest_count(adult_small)
        rng = np.random.default_rng(1)
        trials, failures = 300, 0
        for _ in range(trials):
            result = mechanism.run(query, accuracy, adult_small, rng)
            failures += topk_failed(query, truth, kth, accuracy.alpha, result.value)
            assert result.epsilon_spent <= result.epsilon_upper
        assert failures <= binomial_allowance(trials, beta)

    @pytest.mark.parametrize(
        "mechanism",
        [LaplaceMechanism(name="TCQ-LM"), LaplaceTopKMechanism()],
        ids=lambda mechanism: mechanism.name,
    )
    def test_tcq_failure_rate_with_ties_at_the_kth_count(self, mechanism):
        """Four bins tie at the true k-th count, so the top k must break the
        tie by noise alone: every tied bin is released in some run, any of
        them is a correct answer, and the failures stay within the binomial
        allowance at beta."""
        counts = [60, 50, 40, 40, 40, 40, 20, 10, 5, 0]
        schema = Schema([Attribute("x", NumericDomain(0, 100))], name="Ties")
        table = Table.from_rows(
            schema, [{"x": float(i)} for i, c in enumerate(counts) for _ in range(c)]
        )
        query = TopKCountingQuery(
            point_workload("x", [float(i) for i in range(len(counts))]), k=3
        )
        truth = query.true_counts(table)
        kth = query.kth_largest_count(table)
        assert kth == 40 and (truth == kth).sum() == 4
        beta = 0.1
        accuracy = AccuracySpec(alpha=12.0, beta=beta)
        rng = np.random.default_rng(5)
        trials, failures, released = 300, 0, set()
        for _ in range(trials):
            result = mechanism.run(query, accuracy, table, rng)
            assert len(result.value) == query.k
            released |= set(result.value)
            failures += topk_failed(query, truth, kth, accuracy.alpha, result.value)
            assert result.epsilon_spent <= result.epsilon_upper
        assert failures <= binomial_allowance(trials, beta)
        names = np.array(query.bin_names())
        assert set(names[truth == kth]) <= released
