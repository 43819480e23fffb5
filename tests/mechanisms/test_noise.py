"""Tests for the noise primitives, including the gradual-release refinement."""

import math

import numpy as np
import pytest

from repro.core.exceptions import MechanismError
from repro.mechanisms.noise import (
    laplace_max_error_bound,
    laplace_noise,
    laplace_scale_for_tail,
    laplace_tail_bound,
    relax_laplace_noise,
)
from repro.mechanisms.reference import _sample_product_density
from tests.mechanisms.util import binomial_allowance


class TestLaplaceSampling:
    def test_shape(self, rng):
        assert laplace_noise(1.0, 10, rng).shape == (10,)
        assert laplace_noise(1.0, (3, 4), rng).shape == (3, 4)

    def test_scale_must_be_positive(self, rng):
        with pytest.raises(MechanismError):
            laplace_noise(0.0, 5, rng)

    def test_empirical_scale(self):
        rng = np.random.default_rng(0)
        samples = laplace_noise(2.0, 200_000, rng)
        # variance of Lap(b) is 2 b^2 = 8
        assert np.var(samples) == pytest.approx(8.0, rel=0.05)
        assert np.mean(samples) == pytest.approx(0.0, abs=0.05)


class TestTailBounds:
    def test_tail_bound_formula(self):
        assert laplace_tail_bound(2.0, 0.0) == 1.0
        assert laplace_tail_bound(2.0, 2.0) == pytest.approx(math.exp(-1))

    def test_tail_bound_negative_threshold(self):
        assert laplace_tail_bound(1.0, -1.0) == 1.0

    def test_scale_for_tail_inverts_bound(self):
        scale = laplace_scale_for_tail(threshold=5.0, probability=0.01)
        assert laplace_tail_bound(scale, 5.0) == pytest.approx(0.01)

    def test_scale_for_tail_validation(self):
        with pytest.raises(MechanismError):
            laplace_scale_for_tail(0, 0.1)
        with pytest.raises(MechanismError):
            laplace_scale_for_tail(1, 1.5)

    def test_max_error_bound_single(self):
        # for one variable the bound reduces to the plain tail inversion
        bound = laplace_max_error_bound(2.0, 1, 0.05)
        assert bound == pytest.approx(2.0 * math.log(1 / 0.05))

    def test_max_error_bound_grows_with_count(self):
        assert laplace_max_error_bound(1.0, 100, 0.05) > laplace_max_error_bound(1.0, 10, 0.05)

    def test_max_error_bound_empirical(self):
        rng = np.random.default_rng(1)
        scale, count, beta = 1.5, 20, 0.05
        bound = laplace_max_error_bound(scale, count, beta)
        trials = 4_000
        failures = 0
        for _ in range(trials):
            if np.abs(rng.laplace(0, scale, count)).max() >= bound:
                failures += 1
        assert failures / trials <= beta * 1.6  # allow sampling slack

    def test_max_error_bound_validation(self):
        with pytest.raises(MechanismError):
            laplace_max_error_bound(1.0, 0, 0.1)
        with pytest.raises(MechanismError):
            laplace_max_error_bound(1.0, 5, 1.5)


class TestRelaxLaplaceNoise:
    def test_identity_when_scales_equal(self, rng):
        noise = np.array([1.0, -2.0, 0.5])
        refined = relax_laplace_noise(noise, 2.0, 2.0, rng)
        assert np.allclose(refined, noise)

    def test_scalar_input_returns_scalar(self, rng):
        refined = relax_laplace_noise(1.0, 2.0, 1.0, rng)
        assert isinstance(refined, float)

    def test_rejects_increasing_scale(self, rng):
        with pytest.raises(MechanismError):
            relax_laplace_noise(1.0, 1.0, 2.0, rng)

    def test_rejects_non_positive_scales(self, rng):
        with pytest.raises(MechanismError):
            relax_laplace_noise(1.0, 0.0, 1.0, rng)

    def test_marginal_distribution_matches_target(self):
        """Refined noise must be marginally Lap(scale_new)."""
        rng = np.random.default_rng(7)
        scale_old, scale_new = 4.0, 1.5
        n = 30_000
        initial = rng.laplace(0, scale_old, n)
        refined = np.asarray(relax_laplace_noise(initial, scale_old, scale_new, rng))
        # variance of Lap(b) is 2 b^2
        assert np.var(refined) == pytest.approx(2 * scale_new**2, rel=0.06)
        assert np.mean(refined) == pytest.approx(0.0, abs=0.05)
        # compare a few quantiles against the analytic Laplace CDF:
        # Q(q) = b ln(2q) for q < 0.5 and -b ln(2(1-q)) for q > 0.5
        for q in (0.1, 0.25, 0.75, 0.9):
            if q < 0.5:
                expected = scale_new * math.log(2 * q)
            else:
                expected = -scale_new * math.log(2 * (1 - q))
            assert np.quantile(refined, q) == pytest.approx(expected, abs=0.12)

    def test_refined_noise_is_correlated_with_input(self):
        """Refinement keeps the new noise close to the old one (gradual release)."""
        rng = np.random.default_rng(11)
        scale_old, scale_new = 3.0, 2.5
        initial = rng.laplace(0, scale_old, 20_000)
        refined = np.asarray(relax_laplace_noise(initial, scale_old, scale_new, rng))
        independent = rng.laplace(0, scale_new, 20_000)
        correlated = np.corrcoef(initial, refined)[0, 1]
        uncorrelated = abs(np.corrcoef(initial, independent)[0, 1])
        assert correlated > 0.5
        assert correlated > uncorrelated + 0.4

    def test_many_values_stay_finite(self, rng):
        initial = rng.laplace(0, 10.0, 500)
        refined = np.asarray(relax_laplace_noise(initial, 10.0, 0.5, rng))
        assert np.isfinite(refined).all()

    def test_extreme_old_noise_handled(self, rng):
        refined = relax_laplace_noise(1e9, 2.0, 1.0, rng)
        assert math.isfinite(refined)

    def test_chained_refinement_preserves_marginal(self):
        """Refining in several steps still yields the final Laplace marginal."""
        rng = np.random.default_rng(3)
        scales = [5.0, 3.0, 2.0, 1.0]
        n = 20_000
        noise = rng.laplace(0, scales[0], n)
        for old, new in zip(scales[:-1], scales[1:]):
            noise = np.asarray(relax_laplace_noise(noise, old, new, rng))
        assert np.var(noise) == pytest.approx(2 * scales[-1] ** 2, rel=0.07)


# -- distributional contract of the closed-form refinement ---------------------------
#
# Numpy-only Kolmogorov-Smirnov statistics (no scipy); every check uses a fixed
# seed and the asymptotic 99.9% critical value c = sqrt(-ln(0.0005) / 2).

KS_999 = math.sqrt(-math.log(0.0005) / 2.0)


def _laplace_cdf(x: np.ndarray, scale: float) -> np.ndarray:
    return np.where(x < 0, 0.5 * np.exp(x / scale), 1.0 - 0.5 * np.exp(-x / scale))


def _ks_one_sample(samples: np.ndarray, cdf) -> float:
    ordered = np.sort(samples)
    n = len(ordered)
    values = cdf(ordered)
    return float(
        max(np.max(np.arange(1, n + 1) / n - values), np.max(values - np.arange(n) / n))
    )


def _ks_two_sample(first: np.ndarray, second: np.ndarray) -> float:
    first, second = np.sort(first), np.sort(second)
    points = np.concatenate([first, second])
    gap = (
        np.searchsorted(first, points, side="right") / len(first)
        - np.searchsorted(second, points, side="right") / len(second)
    )
    return float(np.max(np.abs(gap)))


class _ScriptedGenerator:
    """Returns the same (stay, segment, position) uniforms for every element."""

    def __init__(self, triple: tuple[float, float, float]) -> None:
        self._triple = np.array(triple)

    def random(self, size):
        return np.resize(self._triple, size)


class TestRefinementContract:
    @pytest.mark.parametrize("ratio", [0.8, 0.5, 0.1])
    def test_marginal_is_target_laplace(self, ratio):
        """(i) refined Lap(b_old) draws are Lap(b_new) in a one-sample KS test."""
        rng = np.random.default_rng(2015)
        scale_old = 3.0
        scale_new = scale_old * ratio
        n = 20_000
        refined = relax_laplace_noise(rng.laplace(0, scale_old, n), scale_old, scale_new, rng)
        statistic = _ks_one_sample(refined, lambda x: _laplace_cdf(x, scale_new))
        assert statistic < KS_999 / math.sqrt(n)

    @pytest.mark.parametrize("y", [0.0, 0.3, -0.3, -2.0, 7.5, -30.0, 1e6])
    def test_conditional_matches_reference_sampler(self, y):
        """(ii) given old noise y, the atom at y has the closed-form mass and the
        moved part matches the scalar segment-search oracle (two-sample KS)."""
        scale_old, scale_new = 2.0, 1.0
        n = 4_000
        rng = np.random.default_rng(int(abs(y) * 10) + 1)
        refined = relax_laplace_noise(np.full(n, y), scale_old, scale_new, rng)
        stayed = refined == y
        stay_probability = (scale_new / scale_old) * math.exp(
            -abs(y) * (1.0 / scale_new - 1.0 / scale_old)
        )
        assert stayed.sum() <= binomial_allowance(n, stay_probability)
        assert (~stayed).sum() <= binomial_allowance(n, 1.0 - stay_probability)

        oracle = np.array(
            [_sample_product_density(y, scale_new, scale_old, rng) for _ in range(n)]
        )
        moved = refined[~stayed]
        critical = KS_999 * math.sqrt((len(moved) + n) / (len(moved) * n))
        assert _ks_two_sample(moved, oracle) < critical

    @pytest.mark.parametrize(
        "y, triple",
        [
            (1e6, (0.0, 0.0, 0.0)),  # all zeros: the atom is empty, left tail
            (0.3, (0.999, 0.0, 0.0)),  # left tail
            (0.3, (0.999, 0.5, 0.0)),  # middle segment
            (0.3, (0.999, 0.999, 0.0)),  # right tail
            (-0.3, (0.999, 0.999, 0.0)),  # mirrored right tail
        ],
    )
    def test_zero_uniform_gives_finite_output(self, y, triple):
        """(iii) Generator.random may return exactly 0.0; no branch reaches log(0)."""
        refined = relax_laplace_noise(np.array([y]), 2.0, 1.0, _ScriptedGenerator(triple))
        assert np.isfinite(refined).all()

    def test_ratio_near_one_stays_put(self):
        """(iv) at b_new/b_old = 1 - 1e-9 the element stays at y, and a forced
        move into the middle segment keeps its precision (expm1/log1p)."""
        rng = np.random.default_rng(9)
        scale_old = 2.0
        scale_new = scale_old * (1.0 - 1e-9)
        initial = rng.laplace(0, scale_old, 1_000)
        refined = relax_laplace_noise(initial, scale_old, scale_new, rng)
        assert np.array_equal(refined, initial)

        # the stay probability is ~1 - 6e-9, so only stay = 1 - 1e-12 moves;
        # the mass of [0, 5] is ~5 of ~6 in total, so segment 0.5 lands in
        # it, and position 0.5 near its midpoint (the density there is ~flat)
        forced = _ScriptedGenerator((1.0 - 1e-12, 0.5, 0.5))
        moved = relax_laplace_noise(5.0, 1.0, 1.0 - 1e-9, forced)
        assert math.isfinite(moved)
        assert moved == pytest.approx(2.5, rel=1e-6)
