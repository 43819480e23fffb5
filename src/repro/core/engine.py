"""The APEx engine: accuracy-aware private data exploration (Algorithm 1).

The engine is the object a data owner instantiates (with the sensitive table
and a total privacy budget ``B``) and hands to an analyst.  The analyst then
calls :meth:`APExEngine.explore` with queries and accuracy requirements --
either constructed programmatically (:mod:`repro.queries`) or written in the
declarative text language (:meth:`APExEngine.explore_text`).

Per query the engine

1. asks the :class:`~repro.core.translator.AccuracyTranslator` for the set of
   applicable mechanisms, their translations, and the cheapest admissible one;
2. denies the query (``ExplorationResult.denied``) when no mechanism fits the
   remaining budget;
3. otherwise releases the chosen mechanism's answer on the admitted
   snapshot and translation -- so it spends at most the epsilon admission
   reserved -- and charges the *actual* privacy loss to the
   :class:`~repro.core.accounting.PrivacyLedger`.

The full interaction is recorded in a transcript whose validity (Definition
6.1 / Theorem 6.2) can be checked at any time via
:meth:`APExEngine.transcript`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.core.accounting import PrivacyLedger, Transcript
from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import ApexError, BudgetExceededError
from repro.core.translator import AccuracyTranslator, SelectionMode
from repro.data.table import Table, TableSnapshot
from repro.mechanisms.registry import MechanismRegistry
from repro.mechanisms.strategy_mechanism import search_stats
from repro.obs import tracing
from repro.queries.parser import parse_query
from repro.queries.query import Query
from repro.queries.workload import matrix_cache_stats
from repro.reliability.deadline import Deadline
from repro.reliability.faults import fail_point
from repro.store import ArtifactStore

__all__ = ["ExplorationResult", "APExEngine"]


@dataclass(frozen=True)
class ExplorationResult:
    """What the analyst gets back for one query."""

    query_name: str
    query_kind: str
    accuracy: AccuracySpec
    denied: bool
    answer: np.ndarray | list[str] | None
    mechanism: str | None
    epsilon_spent: float
    epsilon_upper: float
    budget_remaining: float
    noisy_counts: np.ndarray | None = None
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        """Truthy when the query was answered."""
        return not self.denied


class APExEngine:
    """Accuracy-aware privacy engine over one sensitive table.

    Parameters
    ----------
    table:
        The sensitive dataset ``D``.
    budget:
        The owner-specified total privacy budget ``B``.
    mode:
        Mechanism selection mode; the paper evaluates ``OPTIMISTIC``.
    registry:
        Mechanism suite; defaults to the paper's
        (:func:`repro.mechanisms.registry.default_registry`).
    seed:
        Seed for the engine's random generator (noise sampling).  Runs with
        the same seed, data and query sequence are reproducible.
    deny_mode:
        ``"result"`` (default) returns a denied :class:`ExplorationResult`;
        ``"raise"`` raises :class:`~repro.core.exceptions.BudgetExceededError`
        instead.
    ledger:
        An externally minted :class:`~repro.core.accounting.PrivacyLedger`,
        or a handle with its interface (its budget wins over ``budget``).
        This is how :class:`repro.service.ExplorationService` hands each
        analyst a :class:`~repro.service.budget.SessionLedger` on its
        account in the service's one budget book.
    translator:
        An externally owned :class:`~repro.core.translator.AccuracyTranslator`
        (its registry/mode win over ``registry``/``mode``, and its store is
        the engine's).  Sharing one translator between engines shares the
        translation memo, so analysts asking structurally identical queries
        pay for translation once.
    store:
        An optional :class:`~repro.store.ArtifactStore`, handed to the
        engine's own translator.  Translation lists then persist to disk,
        and a fresh process pointed at the same directory warm-starts from
        them with zero Monte-Carlo searches (``docs/store.md``).  With an
        external ``translator``, pass the store to the translator instead;
        a different ``store`` here is an error.

    The engine is thread-safe when its ledger is: admission control and
    charging follow a two-phase reservation protocol
    (:meth:`~repro.core.accounting.PrivacyLedger.reserve` /
    :meth:`~repro.core.accounting.PrivacyLedger.charge`), so concurrent
    :meth:`explore` calls can never jointly overspend the budget.
    """

    def __init__(
        self,
        table: Table,
        budget: float | None = None,
        *,
        mode: SelectionMode | str = SelectionMode.OPTIMISTIC,
        registry: MechanismRegistry | None = None,
        seed: int | np.random.Generator | None = None,
        deny_mode: str = "result",
        ledger: PrivacyLedger | None = None,
        translator: AccuracyTranslator | None = None,
        store: ArtifactStore | None = None,
    ) -> None:
        if not isinstance(table, Table):
            raise ApexError("APExEngine requires a repro.data.Table")
        if isinstance(mode, str):
            mode = SelectionMode(mode.lower())
        if deny_mode not in ("result", "raise"):
            raise ApexError("deny_mode must be 'result' or 'raise'")
        if ledger is None:
            if budget is None:
                raise ApexError("APExEngine needs a budget or an external ledger")
            ledger = PrivacyLedger(budget)
        elif budget is not None and float(budget) != ledger.budget:
            raise ApexError(
                f"budget {budget} conflicts with the external ledger's "
                f"budget {ledger.budget}; pass one or the other"
            )
        if translator is None:
            translator = AccuracyTranslator(registry, mode, store=store)
        elif store is not None and store is not translator.store:
            raise ApexError(
                "store conflicts with the external translator's store; "
                "pass one or the other"
            )
        self._table = table
        self._ledger = ledger
        self._translator = translator
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        self._deny_mode = deny_mode

    # -- owner-facing accessors ---------------------------------------------------

    @property
    def table(self) -> Table:
        """The sensitive table this engine answers over.

        Mutating it (``table.append_rows`` / ``table.refresh``) advances its
        version token; each request pins a fresh snapshot at admission, so
        in-flight requests keep answering for their pinned version while the
        next request observes the new one.  Translations and matrices key on
        the schema, so they survive the mutation; only the data-dependent
        caches (masks, histograms, true counts) recompute.
        """
        return self._table

    @property
    def budget(self) -> float:
        return self._ledger.budget

    @property
    def budget_spent(self) -> float:
        return self._ledger.spent

    @property
    def budget_remaining(self) -> float:
        return self._ledger.remaining

    @property
    def exhausted(self) -> bool:
        return self._ledger.exhausted

    @property
    def mode(self) -> SelectionMode:
        return self._translator.mode

    @property
    def registry(self) -> MechanismRegistry:
        return self._translator.registry

    @property
    def store(self) -> ArtifactStore | None:
        """The translator's artifact store, if any."""
        return self._translator.store

    def transcript(self) -> Transcript:
        """The full transcript of interaction so far."""
        return self._ledger.transcript

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Counters of every derivation cache the engine sits on.

        ``translations`` counts memoised accuracy-to-privacy translation
        lists (per this engine's translator), with the hierarchy counters
        (``token``/``disk_hits``/``built``) of the exact -> token -> disk ->
        build cascade; ``workload_matrices`` counts the process-wide
        workload-matrix memo (``built``; it has no disk tier, and its
        ``revalidated`` is always 0).  ``wcqsm_search`` counts the
        process-wide Monte-Carlo epsilon searches executed; the search has
        no disk tier, so its ``disk_hits``/``disk_writes`` stay 0.
        ``store`` reports the translator's
        :class:`~repro.store.ArtifactStore` counters when one is
        configured.  Useful for verifying that a repeated (or post-append,
        or warm-started) ``preview_cost``/``explore`` does not
        re-derive anything.
        """
        out: dict[str, dict[str, int]] = {
            "translations": self._translator.cache_stats,
            "workload_matrices": matrix_cache_stats(),
            "wcqsm_search": search_stats(),
        }
        store = self._translator.store
        if store is not None:
            out["store"] = store.stats()
        return out

    # -- analyst-facing API --------------------------------------------------------

    def explore(
        self,
        query: Query,
        accuracy: AccuracySpec,
        *,
        snapshot: TableSnapshot | None = None,
        deadline: Deadline | None = None,
    ) -> ExplorationResult:
        """Answer one query under the given accuracy requirement (Algorithm 1).

        The request is admitted on a pinned
        :class:`~repro.data.table.TableSnapshot` (``snapshot`` argument, else
        one taken here): translation keys on the query and the snapshot's
        schema (no version, so an append leaves it warm) and the mechanism
        evaluates the snapshot's frozen shards, so a long-running explore is
        fully wait-free against concurrent ``append_rows``/``refresh`` and
        its answer describes exactly the admitted version.

        Admission and charging follow the ledger's two-phase reservation
        protocol: the chosen mechanism's worst-case loss is atomically set
        aside before the mechanism runs (so concurrent explores cannot jointly
        overspend), the mechanism runs outside any lock, and the actual loss
        is committed afterwards.  When another thread depletes the budget
        between selection and reservation, selection is retried against the
        updated headroom -- a cheaper mechanism may still be admissible.

        With a ``deadline``, the request is aborted cooperatively (before
        the mechanism runs, and again after it but before the charge) once
        the deadline passes: the reservation is released, no privacy is
        charged (the never-published draw costs nothing, exactly like a
        mechanism failure), and
        :class:`~repro.core.exceptions.RequestTimeoutError` is raised.
        """
        with tracing.root_span("engine.explore", query=query.name):
            snap = self._pin_snapshot(snapshot)
            if deadline is not None:
                deadline.check(f"explore({query.name})")
            while True:
                with tracing.span("engine.translate"):
                    choice = self._translator.choose(
                        query,
                        accuracy,
                        snap.schema,
                        budget_remaining=self._ledger.remaining,
                    )
                if choice is None:
                    tracing.annotate("denied", True)
                    return self._deny(query, accuracy)
                with tracing.span("engine.reserve"):
                    reservation = self._ledger.reserve(
                        choice.translation.epsilon_upper
                    )
                if reservation is not None:
                    break

            try:
                fail_point("engine.explore.after_reserve")
                if deadline is not None:
                    deadline.check(f"explore({query.name})")
                with tracing.span("mechanism.run", mechanism=choice.mechanism.name):
                    result = choice.mechanism.release(
                        query, accuracy, choice.translation, snap, self._rng
                    )
                fail_point("engine.explore.after_run")
                if deadline is not None:
                    deadline.check(f"explore({query.name})")
                with tracing.span("engine.commit"):
                    entry = self._ledger.charge(
                        query_name=query.name,
                        query_kind=query.kind.value,
                        accuracy=accuracy,
                        mechanism=choice.mechanism.name,
                        epsilon_upper=choice.translation.epsilon_upper,
                        epsilon_spent=result.epsilon_spent,
                        answer=result.value,
                        reservation=reservation,
                    )
            except BaseException:
                # Covers both a failing mechanism run and a rejected charge
                # (e.g. a mechanism reporting an out-of-range actual loss):
                # the charge validates before consuming the reservation, so
                # releasing here returns the reserved headroom instead of
                # leaking it.
                self._ledger.release(reservation)
                raise
        return ExplorationResult(
            query_name=query.name,
            query_kind=query.kind.value,
            accuracy=accuracy,
            denied=False,
            answer=result.value,
            mechanism=choice.mechanism.name,
            epsilon_spent=result.epsilon_spent,
            epsilon_upper=choice.translation.epsilon_upper,
            budget_remaining=self._ledger.remaining,
            noisy_counts=result.noisy_counts,
            metadata={
                "transcript_index": entry.index,
                "candidates": {
                    t.mechanism: (t.epsilon_lower, t.epsilon_upper)
                    for t in choice.candidates
                },
            },
        )

    def explore_text(
        self, query_text: str, accuracy: AccuracySpec | None = None
    ) -> ExplorationResult:
        """Answer a query written in the declarative text language.

        The accuracy requirement may come from the query's ``ERROR ...
        CONFIDENCE ...`` clause or from the ``accuracy`` argument (the latter
        wins when both are present).
        """
        query, parsed_accuracy = parse_query(query_text)
        spec = accuracy if accuracy is not None else parsed_accuracy
        if spec is None:
            raise ApexError(
                "the query text has no ERROR/CONFIDENCE clause and no accuracy "
                "was supplied"
            )
        return self.explore(query, spec)

    def preview_cost(
        self,
        query: Query,
        accuracy: AccuracySpec,
        *,
        snapshot: TableSnapshot | None = None,
    ) -> dict[str, tuple[float, float]]:
        """The (epsilon_lower, epsilon_upper) of every applicable mechanism.

        This is a purely data-independent computation: it lets the analyst
        budget an exploration session without spending any privacy.  Like
        :meth:`explore`, it is admitted on a pinned snapshot, whose schema
        the translation memo keys on.
        """
        with tracing.root_span("engine.preview_cost", query=query.name):
            snap = self._pin_snapshot(snapshot)
            with tracing.span("engine.translate"):
                translations = self._translator.translations(query, accuracy, snap.schema)
            return {
                mechanism.name: (t.epsilon_lower, t.epsilon_upper)
                for mechanism, t in translations
            }

    # -- internals ------------------------------------------------------------------

    def _pin_snapshot(self, snapshot: TableSnapshot | None) -> TableSnapshot:
        """The snapshot this request is admitted on (validated when injected)."""
        if snapshot is None:
            return self._table.snapshot()
        if (
            snapshot.version_token.table_uid
            != self._table.version_token.table_uid
        ):
            raise ApexError(
                "the injected snapshot pins a different table than this "
                "engine answers over"
            )
        return snapshot

    def _deny(self, query: Query, accuracy: AccuracySpec) -> ExplorationResult:
        self._ledger.deny(
            query_name=query.name,
            query_kind=query.kind.value,
            accuracy=accuracy,
        )
        if self._deny_mode == "raise":
            raise BudgetExceededError(
                f"query {query.name!r} denied: no mechanism fits the remaining "
                f"budget {self._ledger.remaining:.6g}",
                required=float("nan"),
                remaining=self._ledger.remaining,
            )
        return ExplorationResult(
            query_name=query.name,
            query_kind=query.kind.value,
            accuracy=accuracy,
            denied=True,
            answer=None,
            mechanism=None,
            epsilon_spent=0.0,
            epsilon_upper=0.0,
            budget_remaining=self._ledger.remaining,
        )
