"""The strategy-based (matrix) mechanism: WCQ-SM and ICQ-SM.

Algorithm 3 of the paper.  Instead of answering the analyst workload ``W``
directly, the mechanism answers a strategy workload ``A`` with Laplace noise
scaled to ``||A||_1 / epsilon`` and reconstructs ``W``'s answers as
``W A^+ (A x + noise)`` -- the matrix mechanism of Li et al.  For workloads
with high sensitivity (prefix/CDF workloads, unions of overlapping ranges)
this is dramatically cheaper than the baseline Laplace mechanism.

The accuracy-to-privacy translation has no closed form because the error of a
reconstructed answer is a weighted sum of Laplace variables.  The paper
searches epsilon, estimating each candidate's failure probability by
Monte-Carlo simulation (``estimateBeta`` in Algorithm 3) with a
normal-approximation confidence correction.  Laplace noise is scale-linear,
``Lap(s/eps) = (s/eps) * Lap(1)``, so one standard-Laplace draw ``Z`` serves
every candidate: sample ``j`` fails at epsilon exactly when its maximum
reconstructed error ``M_j = max_i |(R Z)_ij|`` exceeds ``alpha * eps / s``.
The smallest passing epsilon is therefore an order statistic of ``M`` --
``s * M[N - k - 1] / alpha`` for the largest failure count ``k`` the
``estimateBeta`` test accepts -- which is what a search over common random
numbers converges to.  It is clamped to the Theorem A.1 (Chebyshev plus a
union bound over rows) epsilon, which suffices on its own.  The simulation
is data independent, so results are cached per (workload, accuracy) pair.

``ICQ-SM`` (Section 5.3.1) reuses the same machinery: it answers the workload
with a WCQ-accuracy requirement whose failure probability is doubled (the ICQ
error events are one sided), then thresholds the noisy counts locally -- a
post-processing step that costs no additional privacy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import TranslationError
from repro.core.lru import LRUCache
from repro.data.schema import Schema
from repro.data.table import Table, TableSnapshot
from repro.mechanisms.base import Mechanism, MechanismResult, TranslationResult
from repro.obs import tracing
from repro.mechanisms.noise import laplace_noise
from repro.mechanisms.strategies import (
    StrategyMatrix,
    hierarchical_strategy,
    identity_strategy,
)
from repro.queries.query import IcebergCountingQuery, Query, QueryKind
from repro.queries.workload import WorkloadMatrix

__all__ = [
    "StrategyMechanism",
    "IcebergStrategyMechanism",
    "StrategyTranslation",
    "search_stats",
    "reset_search_stats",
]

StrategyFactory = Callable[[int], StrategyMatrix]

#: Process-wide counters of the Monte-Carlo epsilon search: ``searches``
#: counts searches actually executed (memo misses).  The search has no disk
#: tier, so ``disk_hits`` and ``disk_writes`` stay 0; they are kept for
#: readers of the counter shape.  Benchmarks and the warm-start acceptance
#: tests use these to pin "zero re-searches".
_SEARCH_STATS = {"searches": 0, "disk_hits": 0, "disk_writes": 0}


def search_stats() -> dict[str, int]:
    """Process-wide Monte-Carlo search counters (see :data:`_SEARCH_STATS`)."""
    return dict(_SEARCH_STATS)


def reset_search_stats() -> None:
    """Zero the process-wide Monte-Carlo search counters."""
    for key in _SEARCH_STATS:
        _SEARCH_STATS[key] = 0


@dataclass(frozen=True)
class StrategyTranslation:
    """Internal record of a completed accuracy-to-privacy search."""

    epsilon: float
    strategy: StrategyMatrix
    reconstruction: np.ndarray
    chebyshev_upper: float
    mc_samples: int


class StrategyMechanism(Mechanism):
    """WCQ-SM: the strategy/matrix mechanism for workload counting queries."""

    supported_kinds = frozenset({QueryKind.WCQ})

    def __init__(
        self,
        strategy_factory: StrategyFactory = hierarchical_strategy,
        *,
        mc_samples: int = 10_000,
        name: str | None = None,
        seed: int = 20190501,
    ) -> None:
        self.name = name or "WCQ-SM"
        self._strategy_factory = strategy_factory
        self._mc_samples = int(mc_samples)
        self._seed = seed
        # Keyed by (matrix cache token, alpha, beta): the token identifies the
        # matrix *values* plus the table version it was derived for, so
        # structurally identical workloads (every single-predicate screening
        # query of the ER strategies, every re-asked workload of a relaxation
        # loop) share one Monte-Carlo epsilon search -- while a table
        # mutation (new version token) forces a fresh search instead of
        # resurrecting a stale one.  Tokens hold their referents, so ids
        # never alias.
        self._cache: LRUCache[StrategyTranslation] = LRUCache(256)

    # -- public API ---------------------------------------------------------------

    def translate(
        self,
        query: Query,
        accuracy: AccuracySpec,
        schema: Schema | None = None,
        *,
        version: object | None = None,
    ) -> TranslationResult:
        self._check_supported(query)
        translation = self._translate_matrix(
            query.workload_matrix(schema, version),
            accuracy.alpha,
            accuracy.beta,
        )
        return TranslationResult(
            mechanism=self.name,
            epsilon_upper=translation.epsilon,
            epsilon_lower=translation.epsilon,
            details={
                "strategy": translation.strategy.name,
                "strategy_sensitivity": translation.strategy.sensitivity,
                "chebyshev_upper": translation.chebyshev_upper,
                "mc_samples": translation.mc_samples,
            },
        )

    def cache_signature(self) -> tuple:
        """Everything the Monte-Carlo search result depends on besides the
        workload matrix and the accuracy pair (see ``Mechanism.cache_signature``)."""
        return (
            type(self).__name__,
            self.name,
            getattr(self._strategy_factory, "__name__", repr(self._strategy_factory)),
            self._mc_samples,
            self._seed,
        )

    def run(
        self,
        query: Query,
        accuracy: AccuracySpec,
        table: Table,
        rng: np.random.Generator | int | None = None,
    ) -> MechanismResult:
        self._check_supported(query)
        generator = self._rng(rng)
        table = table.snapshot()  # pin one version for search + histogram
        # A domain stamp rather than the bare token: if translate-time work
        # populated the memos at an equal stamp (same version, same
        # fingerprints), the run reuses it -- and a run straddling a
        # domain-preserving append revalidates instead of rebuilding.
        stamp = table.domain_stamp(query.workload.attributes())
        workload_matrix = query.workload_matrix(table.schema, stamp)
        translation = self._translate_matrix(
            workload_matrix, accuracy.alpha, accuracy.beta
        )
        noisy_counts = self._noisy_workload_answers(
            workload_matrix, translation, table, generator
        )
        return MechanismResult(
            mechanism=self.name,
            value=noisy_counts,
            epsilon_spent=translation.epsilon,
            epsilon_upper=translation.epsilon,
            noisy_counts=noisy_counts,
            metadata={
                "strategy": translation.strategy.name,
                "strategy_sensitivity": translation.strategy.sensitivity,
            },
        )

    # -- shared internals (also used by ICQ-SM) -------------------------------------

    def _noisy_workload_answers(
        self,
        workload_matrix: WorkloadMatrix,
        translation: StrategyTranslation,
        snapshot: TableSnapshot,
        generator: np.random.Generator,
    ) -> np.ndarray:
        strategy = translation.strategy
        histogram = workload_matrix.partition_histogram(snapshot)
        scale = strategy.sensitivity / translation.epsilon
        strategy_answers = strategy.matrix @ histogram + laplace_noise(
            scale, strategy.n_queries, generator
        )
        return translation.reconstruction @ strategy_answers

    def _translate_matrix(
        self, workload_matrix: WorkloadMatrix, alpha: float, beta: float
    ) -> StrategyTranslation:
        cache_key = (workload_matrix.cache_token, float(alpha), float(beta))
        cached = self._cache.get(cache_key)
        if cached is not None:
            tracing.annotate("search_tier", "exact")
            return cached

        strategy = self._build_strategy(workload_matrix)
        reconstruction = strategy.reconstruction(workload_matrix.matrix)
        frobenius = float(np.linalg.norm(reconstruction, ord="fro"))
        sensitivity = strategy.sensitivity
        chebyshev_upper = sensitivity * frobenius / (alpha * math.sqrt(beta / 2.0))

        n_samples = self._mc_samples
        with tracing.span("wcqsm.search", mc_samples=n_samples):
            # At epsilon, sample j's maximum error is (s / epsilon) * M_j, so
            # it fails iff M_j > alpha * epsilon / s: allowing k failures
            # puts alpha * epsilon / s at the (N - k)-th smallest maximum.
            noise = np.random.default_rng(self._seed).laplace(
                0.0, 1.0, size=(reconstruction.shape[1], n_samples)
            )
            maxima = np.sort(np.abs(reconstruction @ noise).max(axis=0))
            allowed = _accepted_failures(n_samples, beta)
            order_statistic = maxima[n_samples - allowed - 1] if allowed >= 0 else math.inf
            epsilon = float(min(sensitivity * order_statistic / alpha, chebyshev_upper))
        _SEARCH_STATS["searches"] += 1
        tracing.annotate("search_tier", "built")
        translation = StrategyTranslation(
            epsilon=epsilon,
            strategy=strategy,
            reconstruction=reconstruction,
            chebyshev_upper=chebyshev_upper,
            mc_samples=n_samples,
        )
        self._cache.put(cache_key, translation)
        return translation

    def _build_strategy(self, workload_matrix: WorkloadMatrix) -> StrategyMatrix:
        strategy = self._strategy_factory(workload_matrix.n_partitions)
        if not strategy.supports(workload_matrix.matrix):
            # Fall back to the identity strategy, which always spans the
            # partition space, rather than failing the query.
            strategy = identity_strategy(workload_matrix.n_partitions)
            if not strategy.supports(workload_matrix.matrix):  # pragma: no cover
                raise TranslationError(
                    "no strategy can reconstruct the workload matrix"
                )
        return strategy


class IcebergStrategyMechanism(Mechanism):
    """ICQ-SM: strategy mechanism plus local thresholding (Section 5.3.1)."""

    supported_kinds = frozenset({QueryKind.ICQ})

    def __init__(
        self,
        strategy_factory: StrategyFactory = hierarchical_strategy,
        *,
        mc_samples: int = 10_000,
        name: str | None = None,
        **kwargs,
    ) -> None:
        self.name = name or "ICQ-SM"
        self._inner = StrategyMechanism(
            strategy_factory, mc_samples=mc_samples, name=f"{self.name}/WCQ", **kwargs
        )

    def _wcq_accuracy(self, accuracy: AccuracySpec) -> AccuracySpec:
        """The equivalent two-sided WCQ requirement (doubled failure probability)."""
        beta = min(2.0 * accuracy.beta, 0.999)
        return AccuracySpec(alpha=accuracy.alpha, beta=beta)

    def cache_signature(self) -> tuple:
        return (type(self).__name__, self.name) + self._inner.cache_signature()

    def translate(
        self,
        query: Query,
        accuracy: AccuracySpec,
        schema: Schema | None = None,
        *,
        version: object | None = None,
    ) -> TranslationResult:
        self._check_supported(query)
        translation = self._inner._translate_matrix(
            query.workload_matrix(schema, version),
            accuracy.alpha,
            self._wcq_accuracy(accuracy).beta,
        )
        return TranslationResult(
            mechanism=self.name,
            epsilon_upper=translation.epsilon,
            epsilon_lower=translation.epsilon,
            details={
                "strategy": translation.strategy.name,
                "strategy_sensitivity": translation.strategy.sensitivity,
                "chebyshev_upper": translation.chebyshev_upper,
            },
        )

    def run(
        self,
        query: Query,
        accuracy: AccuracySpec,
        table: Table,
        rng: np.random.Generator | int | None = None,
    ) -> MechanismResult:
        self._check_supported(query)
        assert isinstance(query, IcebergCountingQuery)
        generator = self._rng(rng)
        table = table.snapshot()  # pin one version for search + histogram
        stamp = table.domain_stamp(query.workload.attributes())
        workload_matrix = query.workload_matrix(table.schema, stamp)
        translation = self._inner._translate_matrix(
            workload_matrix, accuracy.alpha, self._wcq_accuracy(accuracy).beta
        )
        noisy_counts = self._inner._noisy_workload_answers(
            workload_matrix, translation, table, generator
        )
        selected = query.select_by_counts(noisy_counts)
        return MechanismResult(
            mechanism=self.name,
            value=selected,
            epsilon_spent=translation.epsilon,
            epsilon_upper=translation.epsilon,
            noisy_counts=noisy_counts,
            metadata={"strategy": translation.strategy.name},
        )


def _accepted_failures(n_samples: int, beta: float) -> int:
    """The largest failure count ``k`` such that every count ``0..k`` of
    ``n_samples`` passes ``estimateBeta`` (-1 if even zero failures fail).

    The test is Algorithm 3's: the empirical failure rate plus a
    normal-approximation margin at confidence ``beta / 100`` plus half that
    confidence must stay below ``beta``.  It is evaluated for every count at
    once.
    """
    rates = np.arange(n_samples + 1) / n_samples
    confidence = beta / 100.0
    z_score = _normal_quantile(1.0 - confidence / 2.0)
    margins = z_score * np.sqrt(np.maximum(rates * (1.0 - rates), 1e-12) / n_samples)
    fails = rates + margins + confidence / 2.0 >= beta
    return int(np.argmax(fails)) - 1


def _normal_quantile(probability: float) -> float:
    """Inverse standard normal CDF (Acklam's rational approximation)."""
    if not 0.0 < probability < 1.0:
        raise TranslationError("quantile probability must lie in (0, 1)")
    # Coefficients for the central and tail regions.
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if probability < p_low:
        q = math.sqrt(-2.0 * math.log(probability))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if probability > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - probability))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    q = probability - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )
