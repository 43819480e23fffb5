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
numbers converges to.  The search computes ``R Z`` into one fresh array,
takes its absolute value in place and reads that one rank with a partition
rather than a full sort (both give the same element).  It is clamped to the
Theorem A.1 (Chebyshev plus a union bound over rows) epsilon, which suffices
on its own.  The simulation is data independent, and memoised in two tiers.
Each mechanism caches its epsilon per (workload, accuracy) pair, and ``k``
is cached per ``(N, beta)``.  Below that, the maxima ``M`` depend only on the
value of ``R`` and on ``Z``, and alpha and beta only choose which order
statistic to read.  So :func:`_search_maxima` keeps one read-only ``M`` per
``(seed, N, R.shape, sha256 of R's bytes)``, process-wide.  Every workload,
attribute and accuracy with an equal reconstruction reads it, and so does
the other mechanism: WCQ-SM and ICQ-SM draw the same ``Z``, so a cumulative
histogram and a prefix ICQ of one size share one product.  Its 256 entries
hold ``8 * N`` bytes each, 20 MB at the default ``N = 10**4``.  The search runs
only inside ``translate``: ``release`` answers at the translation's epsilon
with the strategy and reconstruction memoised per workload matrix, so a
translation loaded from the artifact store is released without a search.

A strategy factory is a pure function of the partition count, so each
mechanism builds ``factory(P)`` -- ``A^+`` included, computed at
construction -- once per size and shares that immutable object between every
workload of ``P`` partitions and every thread.  The reconstruction ``W A^+``
is computed once per workload matrix: the same product that checks
``W A^+ A == W`` (else the identity strategy serves) is the one memoised.

``Z`` itself is drawn once per process, not once per search.  numpy fills a
``(l, N)`` draw row by row, so ``default_rng(seed).laplace(0, 1, (l, N))``
is exactly the first ``l`` rows of any taller draw from the same seed, and
drawing more rows later from the same generator continues that draw bit for
bit.  :func:`_standard_laplace` therefore keeps one growing, read-only array
per ``(seed, N)``, and a search over ``l`` strategy queries slices its first
``l`` rows: every epsilon equals the one a fresh draw would give.  The array
grows to the largest ``l`` searched, ``8 * l_max * N`` bytes (16 MB for
``l = 199`` at the default ``N = 10**4``) -- the block the largest search
would allocate anyway.

``ICQ-SM`` (Section 5.3.1) is the same mechanism admitted for ICQ: it
translates the workload under a WCQ-accuracy requirement whose failure
probability is doubled (the ICQ error events are one sided), then thresholds
the noisy counts locally -- a post-processing step that costs no additional
privacy.  :class:`StrategyMechanism` dispatches both on ``query.kind``, so
:class:`IcebergStrategyMechanism` only names itself and its query kind.
"""

from __future__ import annotations

import functools
import hashlib
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import TranslationError
from repro.core.lru import LRUCache
from repro.data.schema import Schema
from repro.data.table import TableSnapshot
from repro.mechanisms.base import Mechanism, MechanismResult, TranslationResult
from repro.obs import Counter, tracing
from repro.mechanisms.noise import laplace_noise
from repro.mechanisms.strategies import (
    StrategyMatrix,
    hierarchical_strategy,
    identity_strategy,
)
from repro.queries.query import Query, QueryKind
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
#: counts the ``R Z`` products actually computed, which are misses of the
#: shared maxima memo (:func:`_search_maxima`), not of a mechanism's
#: ``(workload, alpha, beta)`` memo.  The search has no disk
#: tier, so ``disk_hits`` and ``disk_writes`` stay 0; they are kept for
#: readers of the counter shape.  Benchmarks and the warm-start acceptance
#: tests use these to pin "zero re-searches".  Concurrent analyst requests
#: search on their own threads, so each is a locked :class:`~repro.obs.Counter`.
_SEARCH_STATS = {key: Counter() for key in ("searches", "disk_hits", "disk_writes")}


def search_stats() -> dict[str, int]:
    """Process-wide Monte-Carlo search counters (see :data:`_SEARCH_STATS`)."""
    return {key: int(counter.value()) for key, counter in _SEARCH_STATS.items()}


def reset_search_stats() -> None:
    """Zero the process-wide Monte-Carlo search counters and empty the
    shared maxima memo, so the next search of every reconstruction
    computes (and counts) its product again."""
    for counter in _SEARCH_STATS.values():
        counter.reset()
    _MAXIMA.clear()


#: The process-wide standard-Laplace draws of the search, keyed by
#: ``(seed, n_samples)``: ``(generator, drawn)``, where ``drawn`` is the
#: read-only array of every row the generator has produced so far.
_NOISE: dict[tuple[int, int], tuple[np.random.Generator, np.ndarray]] = {}
_noise_lock = threading.Lock()


def _standard_laplace(seed: int, rows: int, n_samples: int) -> np.ndarray:
    """``default_rng(seed).laplace(0, 1, (rows, n_samples))``, drawn once.

    Returns a read-only view of the first ``rows`` rows of the shared array
    for ``(seed, n_samples)``, first drawing exactly the missing rows from
    the array's own generator (see the module docstring for why that is
    bit-identical).  Growth replaces the array rather than resizing it, so
    a view handed out earlier stays valid.
    """
    key = (seed, n_samples)
    with _noise_lock:
        generator, drawn = _NOISE.get(key) or (
            np.random.default_rng(seed), np.empty((0, n_samples))
        )
        if len(drawn) < rows:
            block = generator.laplace(0.0, 1.0, size=(rows - len(drawn), n_samples))
            drawn = np.concatenate([drawn, block])
            drawn.flags.writeable = False
            _NOISE[key] = (generator, drawn)
    return drawn[:rows]


#: The process-wide per-sample maxima of the search, keyed by everything
#: they read: ``(seed, n_samples, R.shape, sha256(R.tobytes()))``.  Each
#: value is a read-only float64 array of length ``n_samples``.
_MAXIMA: LRUCache[np.ndarray] = LRUCache(256)


def _search_maxima(
    seed: int, n_samples: int, reconstruction: np.ndarray
) -> tuple[np.ndarray, str]:
    """``M_j = max_i |(R Z)_ij|`` over the shared draw ``Z``, once per value.

    Returns the read-only maxima and the tier that served them:
    ``"shared"`` when an equal reconstruction (of any workload, mechanism
    or accuracy) already computed them, ``"built"`` when this call did.
    """
    key = (
        seed,
        n_samples,
        reconstruction.shape,
        hashlib.sha256(reconstruction.tobytes()).digest(),
    )
    maxima = _MAXIMA.get(key)
    if maxima is not None:
        return maxima, "shared"
    noise = _standard_laplace(seed, reconstruction.shape[1], n_samples)
    errors = reconstruction @ noise
    maxima = np.abs(errors, out=errors).max(axis=0)
    maxima.flags.writeable = False
    _SEARCH_STATS["searches"].inc()
    return _MAXIMA.put(key, maxima), "built"


@dataclass(frozen=True)
class StrategyTranslation:
    """Internal record of a completed accuracy-to-privacy search."""

    epsilon: float
    chebyshev_upper: float


class StrategyMechanism(Mechanism):
    """WCQ-SM: the strategy/matrix mechanism for workload counting queries.

    Answers ICQ too when a subclass lists it in ``supported_kinds`` (see
    :class:`IcebergStrategyMechanism`): translation doubles ``beta`` and
    release thresholds the noisy counts.
    """

    name = "WCQ-SM"
    supported_kinds = frozenset({QueryKind.WCQ})

    def __init__(
        self,
        strategy_factory: StrategyFactory = hierarchical_strategy,
        *,
        mc_samples: int = 10_000,
        name: str | None = None,
        seed: int = 20190501,
    ) -> None:
        self.name = name or self.name
        self._strategy_factory = strategy_factory
        self._mc_samples = int(mc_samples)
        self._seed = seed
        # ``_cache`` and ``_strategies`` key on the matrix cache token, which
        # identifies the matrix *values* (predicates and schema, no table
        # version), so structurally identical workloads (every
        # single-predicate screening query of the ER strategies, every
        # re-asked workload of a relaxation loop, every request after an
        # append) share one reconstruction and one Monte-Carlo epsilon
        # search per accuracy.  Tokens hold their referents, so ids never
        # alias.  ``_strategies`` holds the ``(strategy, reconstruction)``
        # pair release needs, so a release on a translation loaded from the
        # store never searches.  ``_sized`` holds one strategy per
        # ``(factory, n_partitions)``; its lock is held across the factory
        # call, so concurrent misses never build two (and first builds of
        # different sizes wait on each other, once per size).
        self._cache: LRUCache[StrategyTranslation] = LRUCache(256)
        self._strategies: LRUCache[tuple[StrategyMatrix, np.ndarray]] = LRUCache(256)
        self._sized: LRUCache[StrategyMatrix] = LRUCache(256)
        self._sized_lock = threading.Lock()

    # -- public API ---------------------------------------------------------------

    def translate(
        self,
        query: Query,
        accuracy: AccuracySpec,
        schema: Schema | None = None,
    ) -> TranslationResult:
        self._check_supported(query)
        beta = accuracy.beta
        if query.kind is QueryKind.ICQ:
            # The ICQ error events are one sided: the equivalent two-sided
            # WCQ requirement doubles the failure probability.
            beta = min(2.0 * beta, 0.999)
        workload_matrix = query.workload_matrix(schema)
        translation = self._search(workload_matrix, accuracy.alpha, beta)
        strategy, _ = self._strategy(workload_matrix)
        return TranslationResult(
            mechanism=self.name,
            epsilon_upper=translation.epsilon,
            epsilon_lower=translation.epsilon,
            details={
                "strategy": strategy.name,
                "strategy_sensitivity": strategy.sensitivity,
                "chebyshev_upper": translation.chebyshev_upper,
                "mc_samples": self._mc_samples,
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

    def release(
        self,
        query: Query,
        accuracy: AccuracySpec,
        translation: TranslationResult,
        snapshot: TableSnapshot,
        rng: np.random.Generator,
    ) -> MechanismResult:
        epsilon = translation.epsilon_upper
        workload_matrix = query.workload_matrix(snapshot.schema)
        strategy, reconstruction = self._strategy(workload_matrix)
        # A structural W is the identity, so its histogram is the counts.
        histogram = (
            workload_matrix.partition_histogram(snapshot)
            if workload_matrix.exact
            else self._true_counts(query, workload_matrix, snapshot)
        )
        scale = strategy.sensitivity / epsilon
        strategy_answers = strategy.matrix @ histogram + laplace_noise(
            scale, strategy.n_queries, rng
        )
        noisy_counts = reconstruction @ strategy_answers
        return MechanismResult(
            mechanism=self.name,
            value=(
                noisy_counts
                if query.kind is QueryKind.WCQ
                else query.select_by_counts(noisy_counts)
            ),
            epsilon_spent=epsilon,
            epsilon_upper=epsilon,
            noisy_counts=noisy_counts,
            metadata={
                "strategy": strategy.name,
                "strategy_sensitivity": strategy.sensitivity,
            },
        )

    # -- internals ------------------------------------------------------------------

    def _strategy(
        self, workload_matrix: WorkloadMatrix
    ) -> tuple[StrategyMatrix, np.ndarray]:
        """The strategy for ``workload_matrix`` and its reconstruction matrix.

        Falls back to the identity strategy, which always spans the
        partition space, rather than failing the query.
        """
        token = workload_matrix.cache_token
        cached = self._strategies.get(token)
        if cached is not None:
            return cached
        for factory in (self._strategy_factory, identity_strategy):
            strategy = self._sized_strategy(factory, workload_matrix.n_partitions)
            reconstruction = strategy.reconstruction(workload_matrix.matrix)
            if reconstruction is not None:
                return self._strategies.put(token, (strategy, reconstruction))
        raise TranslationError(  # pragma: no cover
            "no strategy can reconstruct the workload matrix"
        )

    def _sized_strategy(self, factory: StrategyFactory, n_partitions: int) -> StrategyMatrix:
        """``factory(n_partitions)``, built once per mechanism and size."""
        key = (factory, n_partitions)
        with self._sized_lock:
            strategy = self._sized.get(key)
            if strategy is None:
                strategy = self._sized.put(key, factory(n_partitions))
        return strategy

    def _search(
        self, workload_matrix: WorkloadMatrix, alpha: float, beta: float
    ) -> StrategyTranslation:
        cache_key = (workload_matrix.cache_token, float(alpha), float(beta))
        cached = self._cache.get(cache_key)
        if cached is not None:
            tracing.annotate("search_tier", "exact")
            return cached

        strategy, reconstruction = self._strategy(workload_matrix)
        frobenius = float(np.linalg.norm(reconstruction, ord="fro"))
        sensitivity = strategy.sensitivity
        chebyshev_upper = sensitivity * frobenius / (alpha * math.sqrt(beta / 2.0))

        n_samples = self._mc_samples
        with tracing.span("wcqsm.search", mc_samples=n_samples):
            # At epsilon, sample j's maximum error is (s / epsilon) * M_j, so
            # it fails iff M_j > alpha * epsilon / s: allowing k failures
            # puts alpha * epsilon / s at the (N - k)-th smallest maximum.
            # ``np.partition`` returns a copy, so the shared maxima stay
            # unwritten.
            maxima, tier = _search_maxima(self._seed, n_samples, reconstruction)
            allowed = _accepted_failures(n_samples, beta)
            rank = n_samples - allowed - 1
            order_statistic = np.partition(maxima, rank)[rank] if allowed >= 0 else math.inf
            epsilon = float(min(sensitivity * order_statistic / alpha, chebyshev_upper))
        tracing.annotate("search_tier", tier)
        translation = StrategyTranslation(epsilon=epsilon, chebyshev_upper=chebyshev_upper)
        self._cache.put(cache_key, translation)
        return translation


class IcebergStrategyMechanism(StrategyMechanism):
    """ICQ-SM: strategy mechanism plus local thresholding (Section 5.3.1)."""

    name = "ICQ-SM"
    supported_kinds = frozenset({QueryKind.ICQ})


@functools.lru_cache
def _accepted_failures(n_samples: int, beta: float) -> int:
    """The largest failure count ``k`` such that every count ``0..k`` of
    ``n_samples`` passes ``estimateBeta`` (-1 if even zero failures fail).

    The test is Algorithm 3's: the empirical failure rate plus a
    normal-approximation margin at confidence ``beta / 100`` plus half that
    confidence must stay below ``beta``.  It is evaluated for every count at
    once, and memoised: it depends on nothing but ``(n_samples, beta)``.
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
