"""The baseline Laplace mechanism (Algorithm 2 of the paper).

One mechanism answers all three query types: it adds ``Lap(||W||_1 / epsilon)``
noise to every workload count and then post-processes (threshold for ICQ,
top-k selection for TCQ).  The accuracy-to-privacy translation is closed form
(Theorem 5.2):

* WCQ:  ``epsilon = ||W||_1 * ln(1 / (1 - (1-beta)^(1/L))) / alpha``
* ICQ:  ``epsilon = ||W||_1 * (ln(1 / (1 - (1-beta)^(1/L))) - ln 2) / alpha``
* TCQ:  ``epsilon = ||W||_1 * 2 ln(L / (2 beta)) / alpha``

The Laplace mechanism is data independent, so ``epsilon_lower ==
epsilon_upper`` and the actual privacy loss always equals the bound.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import TranslationError
from repro.data.schema import Schema
from repro.data.table import TableSnapshot
from repro.mechanisms.base import Mechanism, MechanismResult, TranslationResult
from repro.mechanisms.noise import laplace_noise
from repro.queries.query import Query, QueryKind

__all__ = ["LaplaceMechanism", "laplace_epsilon_for_accuracy"]


def laplace_epsilon_for_accuracy(
    kind: QueryKind, sensitivity: float, workload_size: int, accuracy: AccuracySpec
) -> float:
    """The closed-form epsilon of Theorem 5.2 for the given query kind."""
    if sensitivity <= 0:
        raise TranslationError("workload sensitivity must be positive")
    if workload_size <= 0:
        raise TranslationError("workload size must be positive")
    alpha, beta = accuracy.alpha, accuracy.beta
    if kind is QueryKind.WCQ:
        per_query = 1.0 - (1.0 - beta) ** (1.0 / workload_size)
        factor = math.log(1.0 / per_query)
    elif kind is QueryKind.ICQ:
        per_query = 1.0 - (1.0 - beta) ** (1.0 / workload_size)
        factor = math.log(1.0 / per_query) - math.log(2.0)
    elif kind is QueryKind.TCQ:
        factor = 2.0 * math.log(workload_size / (2.0 * beta))
    else:  # pragma: no cover - exhaustive enum
        raise TranslationError(f"unknown query kind {kind}")
    if factor <= 0:
        raise TranslationError(
            f"the accuracy requirement (alpha={alpha}, beta={beta}) is too loose "
            f"for a meaningful {kind.value} translation (non-positive epsilon); "
            "tighten beta"
        )
    return sensitivity * factor / alpha


class LaplaceMechanism(Mechanism):
    """Baseline translation for WCQ, ICQ and TCQ (Algorithm 2)."""

    supported_kinds = frozenset({QueryKind.WCQ, QueryKind.ICQ, QueryKind.TCQ})

    def __init__(
        self,
        name: str | None = None,
        kinds: frozenset[QueryKind] | None = None,
    ) -> None:
        self.name = name or "LM"
        if kinds is not None:
            # Restrict the instance to a subset of query kinds so one registry
            # can hold a separately named Laplace baseline per kind (WCQ-LM,
            # ICQ-LM, TCQ-LM) as in Table 2 of the paper.
            self.supported_kinds = frozenset(kinds)

    def translate(
        self,
        query: Query,
        accuracy: AccuracySpec,
        schema: Schema | None = None,
    ) -> TranslationResult:
        self._check_supported(query)
        sensitivity = query.sensitivity(schema)
        epsilon = laplace_epsilon_for_accuracy(
            query.kind, sensitivity, query.workload_size, accuracy
        )
        return TranslationResult(
            mechanism=self.name,
            epsilon_upper=epsilon,
            epsilon_lower=epsilon,
            details={
                "sensitivity": sensitivity,
                "workload_size": query.workload_size,
                "noise_scale": sensitivity / epsilon,
            },
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
        matrix = query.workload_matrix(snapshot.schema)
        sensitivity = matrix.sensitivity
        scale = sensitivity / epsilon
        true_counts = self._true_counts(query, matrix, snapshot)
        noisy_counts = true_counts + laplace_noise(scale, len(true_counts), rng)
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
            metadata={"noise_scale": scale, "sensitivity": sensitivity},
        )
