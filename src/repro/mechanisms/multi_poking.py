"""The multi-poking mechanism for iceberg queries (ICQ-MPM, Algorithm 4).

The data-dependent translation for ICQ.  Instead of committing the full
privacy budget up front, the mechanism "pokes" the data up to ``m`` times with
gradually increasing privacy (and therefore gradually shrinking noise):

1. compute the worst-case budget ``epsilon_max = ||W||_1 ln(m L / (2 beta)) / alpha``;
2. at poke ``i`` spend ``epsilon_i = (i+1) epsilon_max / m`` and look at the
   noisy differences ``W x - c + eta_i`` where ``eta_i ~ Lap(||W||_1/epsilon_i)``;
3. if every predicate is already confidently above or below the threshold
   (relative to the per-poke accuracy ``alpha_i``), stop and return -- the
   privacy loss is only ``epsilon_i``;
4. otherwise *refine* the noise to the next privacy level using the gradual
   release construction (:func:`repro.mechanisms.noise.relax_floats`)
   so the total loss of all pokes equals the loss of the last one.

When the true counts are far from the threshold the mechanism often stops
after the first poke, costing ``epsilon_max / m`` -- an order of magnitude
less than the worst case (Figure 4c of the paper).  When counts hug the
threshold it may spend the full ``epsilon_max``, which exceeds the baseline
Laplace mechanism's cost -- this is why APEx keeps both and lets the
translator choose.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import MechanismError, TranslationError
from repro.data.schema import Schema
from repro.data.table import TableSnapshot
from repro.mechanisms.base import Mechanism, MechanismResult, TranslationResult
from repro.mechanisms.noise import laplace_noise, relax_floats
from repro.queries.query import IcebergCountingQuery, Query, QueryKind

__all__ = ["MultiPokingMechanism"]


class MultiPokingMechanism(Mechanism):
    """ICQ-MPM: data-dependent iceberg answering with gradual budget release."""

    supported_kinds = frozenset({QueryKind.ICQ})

    def __init__(self, n_pokes: int = 10, *, name: str | None = None) -> None:
        if n_pokes < 1:
            raise MechanismError("the number of pokes m must be at least 1")
        self.name = name or "ICQ-MPM"
        self._n_pokes = int(n_pokes)

    @property
    def n_pokes(self) -> int:
        """The maximum number of pokes ``m``."""
        return self._n_pokes

    def cache_signature(self) -> tuple:
        """``m`` shapes the translation (epsilon bounds scale with the poke
        budget), so differently configured instances must never share
        persisted translation lists (see ``Mechanism.cache_signature``)."""
        return (type(self).__name__, self.name, self._n_pokes)

    # -- translate -----------------------------------------------------------------

    def translate(
        self,
        query: Query,
        accuracy: AccuracySpec,
        schema: Schema | None = None,
    ) -> TranslationResult:
        self._check_supported(query)
        sensitivity = query.sensitivity(schema)
        epsilon_max = self._epsilon_max(
            sensitivity, query.workload_size, accuracy.alpha, accuracy.beta
        )
        return TranslationResult(
            mechanism=self.name,
            epsilon_upper=epsilon_max,
            epsilon_lower=epsilon_max / self._n_pokes,
            details={
                "sensitivity": sensitivity,
                "n_pokes": self._n_pokes,
                "workload_size": query.workload_size,
            },
        )

    def _epsilon_max(
        self, sensitivity: float, workload_size: int, alpha: float, beta: float
    ) -> float:
        if sensitivity <= 0:
            raise TranslationError("workload sensitivity must be positive")
        argument = self._n_pokes * workload_size / (2.0 * beta)
        if argument <= 1.0:
            raise TranslationError(
                "the accuracy requirement is too loose for the multi-poking "
                "translation (non-positive epsilon); tighten beta"
            )
        return sensitivity * math.log(argument) / alpha

    # -- release -------------------------------------------------------------------

    def release(
        self,
        query: Query,
        accuracy: AccuracySpec,
        translation: TranslationResult,
        snapshot: TableSnapshot,
        rng: np.random.Generator,
    ) -> MechanismResult:
        assert isinstance(query, IcebergCountingQuery)
        alpha, beta = accuracy.alpha, accuracy.beta
        m = self._n_pokes
        matrix = query.workload_matrix(snapshot.schema)
        sensitivity = matrix.sensitivity
        workload_size = query.workload_size
        epsilon_max = translation.epsilon_upper

        names = query.bin_names()
        # The pokes run on Python floats: on the entity-resolution path L is
        # 1, where numpy's per-call dispatch would dominate.  Each operation
        # matches the array form (the parity oracle in
        # ``repro.mechanisms.reference``) bit for bit, draw for draw.
        true_differences = (matrix.true_answers(snapshot) - query.threshold).tolist()
        log_term = math.log(m * workload_size / (2.0 * beta))

        epsilon_i = epsilon_max / m
        scale_i = sensitivity / epsilon_i
        noise = laplace_noise(scale_i, workload_size, rng).tolist()

        for poke in range(m - 1):
            noisy = [t + n for t, n in zip(true_differences, noise)]
            alpha_i = sensitivity * log_term / epsilon_i
            above = [(d - alpha_i) / alpha >= -1.0 for d in noisy]
            if all(
                up or (d + alpha_i) / alpha <= 1.0 for up, d in zip(above, noisy)
            ):
                selected = [name for name, up in zip(names, above) if up]
                return self._result(
                    selected, epsilon_i, epsilon_max, noisy, query, poke + 1
                )
            epsilon_next = epsilon_i + epsilon_max / m
            scale_next = sensitivity / epsilon_next
            noise = relax_floats(noise, scale_i, scale_next, rng)
            epsilon_i = epsilon_next
            scale_i = scale_next

        noisy = [t + n for t, n in zip(true_differences, noise)]
        selected = [name for name, d in zip(names, noisy) if d > 0.0]
        return self._result(selected, epsilon_max, epsilon_max, noisy, query, m)

    def _result(
        self,
        selected: list[str],
        epsilon_spent: float,
        epsilon_max: float,
        noisy_differences: list[float],
        query: IcebergCountingQuery,
        pokes_used: int,
    ) -> MechanismResult:
        return MechanismResult(
            mechanism=self.name,
            value=selected,
            epsilon_spent=epsilon_spent,
            epsilon_upper=epsilon_max,
            # Only the selected bin identifiers are released; the noisy counts
            # stay internal to the mechanism (the privacy proof depends on it).
            noisy_counts=None,
            metadata={
                "pokes_used": pokes_used,
                "n_pokes": self._n_pokes,
                "threshold": query.threshold,
                "internal_noisy_differences": np.array(noisy_differences),
            },
        )
