"""The Laplace top-k mechanism (TCQ-LTM, Algorithm 5).

A generalised report-noisy-max: add ``Lap(k / epsilon)`` noise to every
workload count, sort, and release only the identifiers of the ``k`` bins with
the largest noisy counts (never the counts themselves).  Its privacy cost is
independent of the workload sensitivity ``||W||_1``, which makes it the
winning mechanism whenever the workload predicates overlap heavily (QT2/QT4 in
the paper) -- whereas for disjoint workloads with small sensitivity the
baseline Laplace mechanism can be cheaper.  APEx supports both and picks the
smaller epsilon.

Accuracy-to-privacy translation (Theorem 5.6):
``epsilon = 2 k ln(L / (2 beta)) / alpha``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import TranslationError
from repro.data.schema import Schema
from repro.data.table import DomainStamp, TableSnapshot
from repro.mechanisms.base import Mechanism, MechanismResult, TranslationResult
from repro.mechanisms.noise import laplace_noise
from repro.queries.query import Query, QueryKind, TopKCountingQuery

__all__ = ["LaplaceTopKMechanism"]


class LaplaceTopKMechanism(Mechanism):
    """TCQ-LTM: report-noisy-max generalised to the top ``k`` bins."""

    supported_kinds = frozenset({QueryKind.TCQ})

    def __init__(self, name: str | None = None) -> None:
        self.name = name or "TCQ-LTM"

    def translate(
        self,
        query: Query,
        accuracy: AccuracySpec,
        schema: Schema | None = None,
        *,
        version: object | None = None,
    ) -> TranslationResult:
        self._check_supported(query)
        assert isinstance(query, TopKCountingQuery)
        epsilon = self._epsilon(
            query.k, query.workload_size, accuracy.alpha, accuracy.beta
        )
        return TranslationResult(
            mechanism=self.name,
            epsilon_upper=epsilon,
            epsilon_lower=epsilon,
            details={
                "k": query.k,
                "workload_size": query.workload_size,
                "noise_scale": query.k / epsilon,
            },
        )

    @staticmethod
    def _epsilon(k: int, workload_size: int, alpha: float, beta: float) -> float:
        argument = workload_size / (2.0 * beta)
        if argument <= 1.0:
            raise TranslationError(
                "the accuracy requirement is too loose for the top-k translation "
                "(non-positive epsilon); tighten beta"
            )
        return 2.0 * k * math.log(argument) / alpha

    def release(
        self,
        query: Query,
        accuracy: AccuracySpec,
        translation: TranslationResult,
        snapshot: TableSnapshot,
        stamp: DomainStamp,
        rng: np.random.Generator,
    ) -> MechanismResult:
        assert isinstance(query, TopKCountingQuery)
        epsilon = translation.epsilon_upper
        scale = query.k / epsilon

        true_counts = query.true_counts(snapshot)
        noisy_counts = true_counts + laplace_noise(scale, len(true_counts), rng)
        selected = query.select_by_counts(noisy_counts)

        return MechanismResult(
            mechanism=self.name,
            value=selected,
            epsilon_spent=epsilon,
            epsilon_upper=epsilon,
            # Report-noisy-max releases only the identifiers; exposing the
            # counts would invalidate the privacy proof (Section 5.4).
            noisy_counts=None,
            metadata={
                "noise_scale": scale,
                "k": query.k,
                "internal_noisy_counts": noisy_counts,
            },
        )
