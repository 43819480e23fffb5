"""Tests for WCQ-SM / ICQ-SM (the matrix mechanism with MC translation)."""

import math

import numpy as np
import pytest

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import MechanismError
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.reference import strategy_search_epsilon
from repro.mechanisms.strategies import hierarchical_strategy
from repro.mechanisms.strategy_mechanism import (
    _NOISE,
    IcebergStrategyMechanism,
    StrategyMechanism,
    _normal_quantile,
    _standard_laplace,
)
from repro.queries.builders import (
    cumulative_histogram_workload,
    histogram_workload,
    prefix_workload,
)
from repro.queries.query import (
    IcebergCountingQuery,
    QueryKind,
    WorkloadCountingQuery,
)
from tests.mechanisms.util import (
    binomial_allowance,
    iceberg_failed,
    total_only_strategy,
)


@pytest.fixture()
def strategy_mechanism() -> StrategyMechanism:
    # smaller MC sample keeps the test fast; the translation is still sound
    return StrategyMechanism(mc_samples=1_000)


@pytest.fixture()
def prefix_query() -> WorkloadCountingQuery:
    return WorkloadCountingQuery(
        prefix_workload("capital_gain", [250.0 * i for i in range(1, 21)]),
        name="prefix-20",
    )


class TestTranslate:
    def test_only_supports_wcq(self, strategy_mechanism, adult_small):
        icq = IcebergCountingQuery(
            histogram_workload("capital_gain", start=0, stop=5000, bins=4), threshold=10
        )
        assert not strategy_mechanism.supports(icq)
        with pytest.raises(MechanismError):
            strategy_mechanism.translate(icq, AccuracySpec(alpha=10))

    def test_epsilon_below_chebyshev_bound(self, strategy_mechanism, adult_small, prefix_query):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        translation = strategy_mechanism.translate(prefix_query, accuracy, adult_small.schema)
        assert translation.epsilon_upper <= translation.details["chebyshev_upper"]

    def test_beats_laplace_on_prefix_workloads(self, strategy_mechanism, adult_small, prefix_query):
        """The headline Section 5.2 result: SM wins when sensitivity is large."""
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        sm = strategy_mechanism.translate(prefix_query, accuracy, adult_small.schema)
        lm = LaplaceMechanism().translate(prefix_query, accuracy, adult_small.schema)
        assert sm.epsilon_upper < lm.epsilon_upper

    def test_loses_to_laplace_on_disjoint_histograms(self, strategy_mechanism, adult_small,
                                                     capital_gain_histogram_query):
        """...and loses when the workload sensitivity is already 1 (Table 2)."""
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        sm = strategy_mechanism.translate(
            capital_gain_histogram_query, accuracy, adult_small.schema
        )
        lm = LaplaceMechanism().translate(
            capital_gain_histogram_query, accuracy, adult_small.schema
        )
        assert sm.epsilon_upper > lm.epsilon_upper

    def test_translation_cached(self, strategy_mechanism, adult_small, prefix_query):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        first = strategy_mechanism.translate(prefix_query, accuracy, adult_small.schema)
        second = strategy_mechanism.translate(prefix_query, accuracy, adult_small.schema)
        assert first.epsilon_upper == second.epsilon_upper

    def test_epsilon_monotone_in_alpha(self, strategy_mechanism, adult_small, prefix_query):
        tight = strategy_mechanism.translate(
            prefix_query, AccuracySpec(alpha=0.02 * len(adult_small)), adult_small.schema
        )
        loose = strategy_mechanism.translate(
            prefix_query, AccuracySpec(alpha=0.2 * len(adult_small)), adult_small.schema
        )
        assert loose.epsilon_upper < tight.epsilon_upper

    def test_not_data_dependent(self, strategy_mechanism, adult_small, prefix_query):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        translation = strategy_mechanism.translate(prefix_query, accuracy, adult_small.schema)
        assert not translation.is_data_dependent


class TestOneDrawSearch:
    """The search is one standard-Laplace draw and one order statistic."""

    def test_epsilon_scales_exactly_with_one_over_alpha(
        self, strategy_mechanism, adult_small, prefix_query
    ):
        products = [
            alpha * strategy_mechanism.translate(
                prefix_query, AccuracySpec(alpha=alpha, beta=0.05), adult_small.schema
            ).epsilon_upper
            for alpha in (0.02 * len(adult_small), 0.05 * len(adult_small), 0.2 * len(adult_small))
        ]
        assert products[1] == pytest.approx(products[0], rel=1e-12)
        assert products[2] == pytest.approx(products[0], rel=1e-12)

    def test_epsilon_non_increasing_in_beta(self, strategy_mechanism, adult_small, prefix_query):
        alpha = 0.05 * len(adult_small)
        epsilons = [
            strategy_mechanism.translate(
                prefix_query, AccuracySpec(alpha=alpha, beta=beta), adult_small.schema
            ).epsilon_upper
            for beta in (5e-4, 1e-3, 0.01, 0.05, 0.1, 0.3)
        ]
        assert all(later <= earlier for earlier, later in zip(epsilons, epsilons[1:]))

    def test_falls_back_to_chebyshev_bound_when_no_failure_count_passes(
        self, strategy_mechanism, adult_small, prefix_query
    ):
        # At beta = 1e-9 and 1,000 samples the confidence margin alone
        # exceeds beta, so even zero observed failures fail estimateBeta.
        translation = strategy_mechanism.translate(
            prefix_query, AccuracySpec(alpha=0.05 * len(adult_small), beta=1e-9),
            adult_small.schema,
        )
        assert translation.epsilon_upper == translation.details["chebyshev_upper"]

    def test_equals_bisection_of_estimate_beta_over_the_same_draw(
        self, strategy_mechanism, adult_small, prefix_query
    ):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small), beta=0.05)
        translation = strategy_mechanism.translate(prefix_query, accuracy, adult_small.schema)

        matrix = prefix_query.workload_matrix(adult_small.schema).matrix
        strategy = hierarchical_strategy(matrix.shape[1])
        reconstruction = strategy.reconstruction(matrix)
        n_samples = 1_000
        noise = np.random.default_rng(20190501).laplace(
            0.0, 1.0, size=(reconstruction.shape[1], n_samples)
        )
        maxima = np.abs(reconstruction @ noise).max(axis=0)

        def estimate_beta_ok(epsilon: float) -> bool:
            errors = maxima * (strategy.sensitivity / epsilon)
            rate = int((errors > accuracy.alpha).sum()) / n_samples
            confidence = accuracy.beta / 100.0
            z_score = _normal_quantile(1.0 - confidence / 2.0)
            margin = z_score * math.sqrt(max(rate * (1.0 - rate), 1e-12) / n_samples)
            return rate + margin + confidence / 2.0 < accuracy.beta

        low, high = 0.0, translation.details["chebyshev_upper"]
        assert estimate_beta_ok(high)
        while high - low > 1e-13 * high:
            midpoint = (low + high) / 2.0
            if estimate_beta_ok(midpoint):
                high = midpoint
            else:
                low = midpoint
        assert translation.epsilon_upper == pytest.approx(high, rel=1e-9)


class TestSharedNoise:
    """Every search slices one process-wide draw, bit-identical to a fresh one."""

    N_SAMPLES = 733

    @pytest.mark.parametrize(
        "rows",
        [(3, 17, 40), (40, 17, 3), (17, 3, 40, 9, 25), (17, 17, 3, 3, 17)],
        ids=["ascending", "descending", "interleaved", "repeated"],
    )
    def test_slices_equal_fresh_draws(self, rows):
        seed = 9_001
        _NOISE.pop((seed, self.N_SAMPLES), None)
        for count in rows:
            fresh = np.random.default_rng(seed).laplace(0.0, 1.0, size=(count, self.N_SAMPLES))
            assert np.array_equal(_standard_laplace(seed, count, self.N_SAMPLES), fresh)
        assert len(_NOISE[(seed, self.N_SAMPLES)][1]) == max(rows)

    def test_read_only(self):
        noise = _standard_laplace(9_002, 4, self.N_SAMPLES)
        assert not noise.flags.writeable
        with pytest.raises(ValueError):
            noise[0, 0] = 0.0

    @pytest.mark.parametrize(
        ("workload", "factory", "strategy_name"),
        [
            (prefix_workload("capital_gain", [250.0 * i for i in range(1, 21)]),
             hierarchical_strategy, "H2"),
            (cumulative_histogram_workload("capital_gain", start=0, stop=5000, bins=20),
             hierarchical_strategy, "H2"),
            (prefix_workload("capital_gain", [500.0 * i for i in range(1, 9)]),
             total_only_strategy, "identity"),
        ],
        ids=["prefix", "cumulative-histogram", "identity-fallback"],
    )
    def test_translate_equals_fresh_draw_search(
        self, adult_small, workload, factory, strategy_name
    ):
        alpha = 0.05 * len(adult_small)
        wcq = StrategyMechanism(factory, mc_samples=self.N_SAMPLES)
        icq = IcebergStrategyMechanism(factory, mc_samples=self.N_SAMPLES)
        # Start from a short array so the searches below grow it.
        _NOISE.pop((wcq._seed, self.N_SAMPLES), None)
        _standard_laplace(wcq._seed, 2, self.N_SAMPLES)
        wcq_query = WorkloadCountingQuery(workload)
        icq_query = IcebergCountingQuery(workload, threshold=100)
        matrix = wcq_query.workload_matrix(adult_small.schema).matrix
        for beta in (0.01, 0.05, 0.2):
            accuracy = AccuracySpec(alpha=alpha, beta=beta)
            wcq_result = wcq.translate(wcq_query, accuracy, adult_small.schema)
            assert wcq_result.details["strategy"] == strategy_name
            assert wcq_result.epsilon_upper == strategy_search_epsilon(
                factory, matrix, alpha, beta, n_samples=self.N_SAMPLES, seed=wcq._seed
            )
            icq_result = icq.translate(icq_query, accuracy, adult_small.schema)
            icq_beta = min(2.0 * beta, 0.999)
            assert icq_result.epsilon_upper == strategy_search_epsilon(
                factory, matrix, alpha, icq_beta, n_samples=self.N_SAMPLES, seed=icq._seed
            )


class TestRun:
    def test_returns_noisy_counts(self, strategy_mechanism, adult_small, prefix_query, rng):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        result = strategy_mechanism.run(prefix_query, accuracy, adult_small, rng)
        assert isinstance(result.value, np.ndarray)
        assert len(result.value) == prefix_query.workload_size
        assert result.epsilon_spent == result.epsilon_upper

    def test_error_within_alpha(self, strategy_mechanism, adult_small, prefix_query, rng):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small), beta=1e-3)
        truth = prefix_query.true_counts(adult_small)
        result = strategy_mechanism.run(prefix_query, accuracy, adult_small, rng)
        assert np.abs(result.value - truth).max() < accuracy.alpha

    @pytest.mark.parametrize(
        "workload",
        [
            prefix_workload("capital_gain", [250.0 * i for i in range(1, 21)]),
            cumulative_histogram_workload("capital_gain", start=0, stop=5000, bins=20),
        ],
        ids=["prefix", "cumulative-histogram"],
    )
    def test_failure_rate_below_beta(self, adult_small, workload):
        """Statistical check of Theorem 5.3 with a generous beta: the observed
        failures stay within the 99.9% one-sided binomial allowance at beta."""
        query = WorkloadCountingQuery(workload)
        mechanism = StrategyMechanism(mc_samples=1_000)
        beta = 0.1
        accuracy = AccuracySpec(alpha=0.03 * len(adult_small), beta=beta)
        truth = query.true_counts(adult_small)
        rng = np.random.default_rng(5)
        trials, failures = 200, 0
        for _ in range(trials):
            result = mechanism.run(query, accuracy, adult_small, rng)
            if np.abs(result.value - truth).max() >= accuracy.alpha:
                failures += 1
        assert failures <= binomial_allowance(trials, beta)

    def test_metadata_names_strategy(self, strategy_mechanism, adult_small, prefix_query, rng):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        result = strategy_mechanism.run(prefix_query, accuracy, adult_small, rng)
        assert result.metadata["strategy"].startswith("H")


class TestIcebergStrategyMechanism:
    def test_supports_icq_only(self):
        mechanism = IcebergStrategyMechanism(mc_samples=500)
        assert QueryKind.ICQ in mechanism.supported_kinds
        assert QueryKind.WCQ not in mechanism.supported_kinds

    def test_returns_bins_above_threshold(self, adult_small, rng):
        mechanism = IcebergStrategyMechanism(mc_samples=500)
        query = IcebergCountingQuery(
            prefix_workload("capital_gain", [250.0 * i for i in range(1, 21)]),
            threshold=0.5 * len(adult_small),
            name="icq-prefix",
        )
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        result = mechanism.run(query, accuracy, adult_small, rng)
        assert set(result.value) <= set(query.bin_names())
        # prefix counts are monotone, so high cut points must be reported
        assert query.bin_names()[-1] in result.value

    @pytest.mark.parametrize("threshold_quantile", [0.25, 0.75])
    def test_failure_rate_below_beta(self, adult_small, threshold_quantile):
        """ICQ-SM with the threshold at one of the true counts: the failures
        stay within the 99.9% one-sided binomial allowance at beta, and no
        run spends more than its upper bound."""
        mechanism = IcebergStrategyMechanism(mc_samples=1_000)
        workload = histogram_workload("age", start=0, stop=100, bins=100)
        counts = workload.true_answers(adult_small)
        threshold = float(np.quantile(counts, threshold_quantile, method="lower"))
        query = IcebergCountingQuery(workload, threshold=threshold)
        beta = 0.1
        accuracy = AccuracySpec(alpha=0.02 * len(adult_small), beta=beta)
        truth = query.true_counts(adult_small)
        rng = np.random.default_rng(29)
        trials, failures = 200, 0
        for _ in range(trials):
            result = mechanism.run(query, accuracy, adult_small, rng)
            failures += iceberg_failed(query, truth, accuracy.alpha, result.value)
            assert result.epsilon_spent <= result.epsilon_upper
        assert failures <= binomial_allowance(trials, beta)

    def test_cheaper_than_wcq_counterpart(self, adult_small):
        """One-sided ICQ accuracy needs no more epsilon than WCQ: both searches
        use the same draw and differ only in the (doubled) beta."""
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        workload = prefix_workload("capital_gain", [250.0 * i for i in range(1, 21)])
        wcq_eps = StrategyMechanism(mc_samples=1_000).translate(
            WorkloadCountingQuery(workload), accuracy, adult_small.schema
        ).epsilon_upper
        icq_eps = IcebergStrategyMechanism(mc_samples=1_000).translate(
            IcebergCountingQuery(workload, threshold=100), accuracy, adult_small.schema
        ).epsilon_upper
        assert icq_eps <= wcq_eps
