"""Shared statistics and strategies for the mechanism contract tests."""

import math

import numpy as np

from repro.mechanisms.strategies import StrategyMatrix


def total_only_strategy(n_partitions: int) -> StrategyMatrix:
    """A one-row strategy that spans no multi-bin workload: forces the
    identity-strategy fallback."""
    return StrategyMatrix(np.ones((1, n_partitions)), name="total")


def iceberg_failed(query, truth, alpha: float, reported) -> bool:
    """Whether an ICQ answer misses its alpha: it reports a bin whose true
    count is below ``c - alpha``, or omits one whose count is above ``c + alpha``."""
    names = np.array(query.bin_names())
    reported = set(reported)
    too_low = set(names[truth < query.threshold - alpha])
    too_high = set(names[truth > query.threshold + alpha])
    return bool(reported & too_low or too_high - reported)


def topk_failed(query, truth, kth: float, alpha: float, reported) -> bool:
    """Whether a TCQ answer misses its alpha: it reports a bin whose true
    count is below ``c_k - alpha``, or omits one whose count is above
    ``c_k + alpha`` (``c_k`` is the true k-th largest count)."""
    names = np.array(query.bin_names())
    reported = set(reported)
    too_low = set(names[truth < kth - alpha])
    too_high = set(names[truth > kth + alpha])
    return bool(reported & too_low or too_high - reported)


def binomial_allowance(trials: int, rate: float, level: float = 0.999) -> int:
    """The smallest ``c`` with ``P(Binomial(trials, rate) <= c) >= level``.

    The pmf is summed in log space so large ``trials`` cannot overflow.
    """
    if rate <= 0.0:
        return 0
    if rate >= 1.0:
        return trials
    log_rate, log_rest = math.log(rate), math.log1p(-rate)
    cdf = 0.0
    for count in range(trials + 1):
        cdf += math.exp(
            math.lgamma(trials + 1)
            - math.lgamma(count + 1)
            - math.lgamma(trials - count + 1)
            + count * log_rate
            + (trials - count) * log_rest
        )
        if cdf >= level:
            return count
    return trials
