"""Property-based tests for noise primitives and accuracy translations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import TranslationError
from repro.mechanisms.laplace import laplace_epsilon_for_accuracy
from repro.mechanisms.noise import (
    laplace_max_error_bound,
    laplace_scale_for_tail,
    laplace_tail_bound,
    relax_laplace_noise,
)
from repro.queries.query import QueryKind


class TestTailBoundProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        scale=st.floats(0.01, 100, allow_nan=False),
        threshold=st.floats(0.01, 1000, allow_nan=False),
    )
    def test_tail_bound_in_unit_interval(self, scale, threshold):
        assert 0.0 <= laplace_tail_bound(scale, threshold) <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        threshold=st.floats(0.1, 100, allow_nan=False),
        probability=st.floats(0.001, 0.5),
    )
    def test_scale_for_tail_round_trip(self, threshold, probability):
        scale = laplace_scale_for_tail(threshold, probability)
        assert laplace_tail_bound(scale, threshold) == pytest.approx(probability)

    @settings(max_examples=60, deadline=None)
    @given(
        scale=st.floats(0.1, 10),
        count=st.integers(1, 500),
        beta=st.floats(1e-5, 0.4),
    )
    def test_max_error_bound_monotone_in_beta(self, scale, count, beta):
        looser = laplace_max_error_bound(scale, count, min(beta * 2, 0.8))
        tighter = laplace_max_error_bound(scale, count, beta)
        assert tighter >= looser


class TestTranslationProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from([QueryKind.WCQ, QueryKind.ICQ, QueryKind.TCQ]),
        sensitivity=st.floats(0.5, 200),
        workload_size=st.integers(1, 500),
        alpha=st.floats(1.0, 10_000),
        beta=st.floats(1e-6, 1e-2),
    )
    def test_epsilon_positive_and_monotone_in_alpha(
        self, kind, sensitivity, workload_size, alpha, beta
    ):
        accuracy = AccuracySpec(alpha=alpha, beta=beta)
        try:
            epsilon = laplace_epsilon_for_accuracy(kind, sensitivity, workload_size, accuracy)
        except TranslationError:
            return
        assert epsilon > 0
        looser = laplace_epsilon_for_accuracy(
            kind, sensitivity, workload_size, AccuracySpec(alpha=alpha * 2, beta=beta)
        )
        assert looser == pytest.approx(epsilon / 2)

    @settings(max_examples=40, deadline=None)
    @given(
        sensitivity=st.floats(0.5, 50),
        workload_size=st.integers(2, 200),
        alpha=st.floats(1.0, 5_000),
        beta=st.floats(1e-6, 1e-2),
    )
    def test_icq_never_costs_more_than_wcq(self, sensitivity, workload_size, alpha, beta):
        accuracy = AccuracySpec(alpha=alpha, beta=beta)
        wcq = laplace_epsilon_for_accuracy(QueryKind.WCQ, sensitivity, workload_size, accuracy)
        icq = laplace_epsilon_for_accuracy(QueryKind.ICQ, sensitivity, workload_size, accuracy)
        assert icq <= wcq


class TestRelaxNoiseProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        value=st.floats(-1e6, 1e6, allow_nan=False),
        scale_old=st.floats(0.5, 20),
        ratio=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_refinement_always_finite(self, value, scale_old, ratio, seed):
        rng = np.random.default_rng(seed)
        scale_new = scale_old * ratio
        refined = relax_laplace_noise(value, scale_old, scale_new, rng)
        assert np.isfinite(refined)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), scale=st.floats(0.5, 5))
    def test_equal_scales_are_identity(self, seed, scale):
        rng = np.random.default_rng(seed)
        values = rng.laplace(0, scale, 20)
        assert np.allclose(relax_laplace_noise(values, scale, scale, rng), values)
