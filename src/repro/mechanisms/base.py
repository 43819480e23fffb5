"""The mechanism interface shared by every accuracy-to-privacy translation.

Section 4 of the paper: each mechanism ``M`` exposes two functions,

* ``M.translate(q, alpha, beta)`` returning a lower and upper bound
  ``(epsilon_l, epsilon_u)`` on the privacy loss incurred if ``M`` answers
  ``q`` under the ``(alpha, beta)`` accuracy requirement, and
* ``M.run(q, alpha, beta, D)`` executing the differentially private algorithm
  and returning the answer together with the privacy loss actually spent
  (which may be below ``epsilon_u`` for data-dependent mechanisms).

The :class:`Mechanism` base class below encodes exactly that interface.
``run`` is written once, here: it pins a snapshot of ``D``, translates
against the snapshot's schema, and hands the translation to ``release`` --
the only mechanism-specific step of a run, which answers on the snapshot
and translation it is given with noise calibrated to
``translation.epsilon_upper``.  The engine (Algorithm 1) makes the pin and
the translation itself at admission and calls ``release`` directly, so the
mechanism spends exactly the epsilon that admission reserved.
:class:`TranslationResult` and :class:`MechanismResult` are the value
objects the interface traffics in.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import MechanismError
from repro.data.schema import Schema
from repro.data.table import Table, TableSnapshot
from repro.queries.query import Query, QueryKind

__all__ = ["TranslationResult", "MechanismResult", "Mechanism"]


@dataclass(frozen=True)
class TranslationResult:
    """The privacy-loss bounds produced by ``Mechanism.translate``.

    ``epsilon_upper`` is the worst-case loss (the value the privacy analyzer
    uses for admission control); ``epsilon_lower`` is the best case, which is
    strictly smaller only for data-dependent mechanisms such as ICQ-MPM.
    """

    mechanism: str
    epsilon_upper: float
    epsilon_lower: float
    details: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.epsilon_upper <= 0:
            raise MechanismError(
                f"{self.mechanism}: epsilon_upper must be positive, got "
                f"{self.epsilon_upper}"
            )
        if self.epsilon_lower <= 0:
            raise MechanismError(
                f"{self.mechanism}: epsilon_lower must be positive, got "
                f"{self.epsilon_lower}"
            )
        if self.epsilon_lower > self.epsilon_upper + 1e-12:
            raise MechanismError(
                f"{self.mechanism}: epsilon_lower ({self.epsilon_lower}) exceeds "
                f"epsilon_upper ({self.epsilon_upper})"
            )

    @property
    def is_data_dependent(self) -> bool:
        """True when the actual loss may be below the worst case."""
        return self.epsilon_lower < self.epsilon_upper


@dataclass(frozen=True)
class MechanismResult:
    """The outcome of ``Mechanism.run``.

    ``value`` is a numpy vector of noisy counts for WCQ, or a list of bin
    identifiers for ICQ/TCQ.  ``epsilon_spent`` is the privacy loss actually
    incurred; ``epsilon_upper`` repeats the worst case bound for reference.
    ``noisy_counts`` carries the underlying noisy counts when the mechanism is
    allowed to reveal them (LM and the strategy mechanisms; the top-k and
    multi-poking mechanisms only release bin identifiers).
    """

    mechanism: str
    value: np.ndarray | list[str]
    epsilon_spent: float
    epsilon_upper: float
    noisy_counts: np.ndarray | None = None
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.epsilon_spent < 0:
            raise MechanismError("epsilon_spent must be non-negative")
        if self.epsilon_spent > self.epsilon_upper + 1e-9:
            raise MechanismError(
                f"{self.mechanism}: spent {self.epsilon_spent} more than the "
                f"declared upper bound {self.epsilon_upper}"
            )


class Mechanism(abc.ABC):
    """Base class of all accuracy-aware differentially private mechanisms."""

    #: Short mechanism identifier, e.g. ``"WCQ-LM"``.
    name: str = "mechanism"
    #: The query kinds this mechanism can answer.
    supported_kinds: frozenset[QueryKind] = frozenset()

    def supports(self, query: Query) -> bool:
        """Whether this mechanism can answer the given query."""
        return query.kind in self.supported_kinds

    def cache_signature(self) -> tuple:
        """Content identity of this mechanism's *translation behaviour*.

        Two mechanism instances with equal signatures must produce identical
        ``translate`` results for identical inputs; the signature joins the
        artifact-store keys (:mod:`repro.store`) so persisted translations
        are never shared across differently configured suites.  Mechanisms
        whose translation depends on constructor parameters (sample counts,
        seeds) must override and include them.
        """
        return (type(self).__name__, self.name)

    def _check_supported(self, query: Query) -> None:
        if not self.supports(query):
            raise MechanismError(
                f"{self.name} does not support {query.kind.value} queries"
            )

    @abc.abstractmethod
    def translate(
        self,
        query: Query,
        accuracy: AccuracySpec,
        schema: Schema | None = None,
    ) -> TranslationResult:
        """Privacy loss bounds needed to meet ``accuracy`` for ``query``.

        Translation is data independent: it reads the query, the accuracy
        pair and ``schema``'s declared domains, never a table, so its result
        holds at every version of every table with that schema.  Mechanisms
        that memoise per-workload artifacts (the strategy mechanisms'
        Monte-Carlo search) key them by the workload matrix's
        ``cache_token``.
        """

    def run(
        self,
        query: Query,
        accuracy: AccuracySpec,
        table: Table,
        rng: np.random.Generator | int | None = None,
    ) -> MechanismResult:
        """Execute the mechanism and return the answer and actual privacy loss."""
        self._check_supported(query)
        snapshot = table.snapshot()  # pin one version for the whole run
        translation = self.translate(query, accuracy, snapshot.schema)
        return self.release(query, accuracy, translation, snapshot, self._rng(rng))

    @abc.abstractmethod
    def release(
        self,
        query: Query,
        accuracy: AccuracySpec,
        translation: TranslationResult,
        snapshot: TableSnapshot,
        rng: np.random.Generator,
    ) -> MechanismResult:
        """Answer ``query`` on ``snapshot`` at ``translation.epsilon_upper``.

        ``translation`` is this mechanism's translation of ``(query,
        accuracy)`` against the snapshot's schema.  ``release`` neither pins
        nor translates; it draws all noise from ``rng``.
        """

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _rng(rng: np.random.Generator | int | None) -> np.random.Generator:
        if isinstance(rng, np.random.Generator):
            return rng
        return np.random.default_rng(rng)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ",".join(sorted(k.value for k in self.supported_kinds))
        return f"{type(self).__name__}(name={self.name!r}, kinds=[{kinds}])"
