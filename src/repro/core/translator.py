"""The accuracy translator: choose the mechanism with the least privacy loss.

Algorithm 1, lines 4-10 of the paper.  Given an analyst query with an
``(alpha, beta)`` accuracy requirement, the translator

1. collects the mechanisms applicable to the query's type,
2. asks each for its accuracy-to-privacy translation,
3. drops the ones whose *worst-case* loss would not fit the remaining budget
   (that set is ``M*``), and
4. picks one mechanism from ``M*``:

   * **pessimistic mode** minimises the worst-case loss ``epsilon_u`` -- the
     conservative choice;
   * **optimistic mode** minimises the best-case loss ``epsilon_l`` -- it bets
     on data-dependent mechanisms (ICQ-MPM) stopping early.  This is the mode
     the paper's evaluation uses.

The translator is deterministic and never looks at the data, which the
privacy proof (Theorem 6.2) relies on.  Determinism also makes translations
safe to memoise, so the exploration strategies' relaxation loops (which
re-ask structurally identical queries round after round), repeated
``preview_cost`` calls and every request after an append stop paying for
mechanism translation more than once.

Translation reads only the query kind, the workload matrix's values, TCQ
``k`` and ``(alpha, beta)``.  One LRU keys lists by exactly that:
:meth:`~repro.queries.query.Query.translation_key`, which names the matrix's
values without building it (it equals the matrix's ``cache_token``), plus
``(alpha, beta)`` and the registry's ``generation``, so a list of an old
mechanism set never answers after a ``register`` or ``unregister``.
Queries that share a matrix share one list, whatever their names and ICQ
thresholds.  The order is memo -> the optional
:class:`~repro.store.ArtifactStore` -> translate.  The disk is keyed by the
query structure and the schema's content, and a list loaded from it is
memoised without building a matrix, so a restarted process warm-starts with
no matrix builds.  The disk key includes each applicable mechanism's
:meth:`~repro.mechanisms.base.Mechanism.cache_signature`, so stores are
never shared across differently configured mechanism suites.

Concurrent requests with one memo key share a single flight: one caller
computes while the rest wait and then read the memo, so a burst of cold
requests over one matrix (previews and explores alike) builds one matrix and
runs one Monte-Carlo search.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import TranslationError
from repro.core.lru import LRUCache
from repro.data.schema import Schema
from repro.mechanisms.base import Mechanism, TranslationResult
from repro.mechanisms.registry import MechanismRegistry, default_registry
from repro.obs import Counter, tracing
from repro.queries.query import Query
from repro.store import ArtifactStore
from repro.store.fingerprint import stable_digest

__all__ = ["SelectionMode", "MechanismChoice", "AccuracyTranslator"]


class SelectionMode(enum.Enum):
    """How to break the tie between data-independent and data-dependent mechanisms."""

    OPTIMISTIC = "optimistic"
    PESSIMISTIC = "pessimistic"


@dataclass(frozen=True)
class MechanismChoice:
    """The translator's decision for one query."""

    mechanism: Mechanism
    translation: TranslationResult
    #: translations of every applicable mechanism (for reporting / Table 2).
    candidates: tuple[TranslationResult, ...]

    @property
    def epsilon_upper(self) -> float:
        return self.translation.epsilon_upper

    @property
    def epsilon_lower(self) -> float:
        return self.translation.epsilon_lower


class AccuracyTranslator:
    """Chooses, per query, the mechanism that meets the accuracy bound cheapest.

    ``store`` is an optional :class:`~repro.store.ArtifactStore`: the disk
    tier under the translation memo, consulted for every request whose
    query has a process-stable digest.
    """

    #: Maximum number of memoised translation lists per translator.
    CACHE_MAX_ENTRIES = 512

    def __init__(
        self,
        registry: MechanismRegistry | None = None,
        mode: SelectionMode = SelectionMode.OPTIMISTIC,
        store: ArtifactStore | None = None,
    ) -> None:
        self._registry = registry if registry is not None else default_registry()
        self._mode = mode
        self._store = store
        #: Translation lists keyed by ``Query.translation_key`` plus
        #: ``(alpha, beta, registry generation)``.
        self._translation_cache: LRUCache[
            list[tuple[Mechanism, TranslationResult]]
        ] = LRUCache(self.CACHE_MAX_ENTRIES)
        #: Counters beneath the memo.  Sessions share one translator, so
        #: each is a locked :class:`~repro.obs.Counter`.
        self._tier_stats = {
            key: Counter() for key in ("built", "disk_hits", "disk_writes", "coalesced")
        }
        #: In-flight cold translations: memo key -> the leader's latch.
        self._flights: dict[tuple, threading.Lock] = {}
        self._flights_lock = threading.Lock()

    @property
    def registry(self) -> MechanismRegistry:
        return self._registry

    @property
    def mode(self) -> SelectionMode:
        return self._mode

    @property
    def store(self) -> ArtifactStore | None:
        """The artifact store under the translation memo, if any."""
        return self._store

    @property
    def cache_stats(self) -> dict[str, int]:
        """Counters of the translation memo and the store beneath it.

        ``hits``/``misses``/``size`` describe the memo (``hits`` counts
        every memo answer), ``disk_hits``/``disk_writes`` the artifact
        store, ``built`` the translation lists actually computed, and
        ``coalesced`` the callers that waited on another caller's flight
        (see :meth:`translations`).
        """
        tiers = {key: int(counter.value()) for key, counter in self._tier_stats.items()}
        return {**self._translation_cache.stats(), **tiers}

    def clear_cache(self) -> None:
        self._translation_cache.clear()
        for counter in self._tier_stats.values():
            counter.reset()

    # -- translation ---------------------------------------------------------------

    def translations(
        self,
        query: Query,
        accuracy: AccuracySpec,
        schema: Schema | None = None,
    ) -> list[tuple[Mechanism, TranslationResult]]:
        """Accuracy-to-privacy translations of every applicable mechanism.

        Mechanisms whose translation fails (e.g. the accuracy requirement is
        too loose for their closed form) are skipped.  Results are memoised
        per (:meth:`~repro.queries.query.Query.translation_key`, accuracy)
        at the registry's generation: translation is data independent and
        deterministic, so a repeat, or another query over the same matrix,
        is answered from the memo.  The order is memo -> disk -> translate;
        see the module docstring.

        Concurrent cold duplicates share one computation (single flight).
        When the memo misses, the caller registers a flight under the memo
        key: a per-flight latch, created and acquired before the registry
        lock is taken, so latches only ever nest outside it.  A caller
        finding a flight already registered is a follower: it waits on the
        latch, counts ``coalesced`` and starts over from the memo probe.
        The leader re-probes the memo once (a flight may have retired
        between its probe and its registration), computes, publishes to the
        memo and only then retires the flight.  A leader's error is its own:
        each follower starts over and computes for itself.
        """
        translation_key = query.translation_key(schema)
        if translation_key is None:
            return self._resolve(query, accuracy, schema, None)
        # Read once, before the registry is: a list is never filed under a
        # generation newer than the mechanism set it was computed from.
        cache_key = (
            translation_key, accuracy.alpha, accuracy.beta, self._registry.generation
        )
        while True:
            cached = self._translation_cache.get(cache_key)
            if cached is not None:
                tracing.annotate("cache_tier", "exact")
                return list(cached)
            latch = threading.Lock()
            latch.acquire()
            with self._flights_lock:
                flight = self._flights.setdefault(cache_key, latch)
            if flight is not latch:
                latch.release()
                with flight:  # held by the leader until its flight retires
                    pass
                self._tier_stats["coalesced"].inc()
                continue
            try:
                if cache_key not in self._translation_cache:
                    return self._resolve(query, accuracy, schema, cache_key)
                # A flight retired after this caller's probe: start over and
                # take the memo hit.
            finally:
                with self._flights_lock:
                    del self._flights[cache_key]
                latch.release()

    def _resolve(
        self,
        query: Query,
        accuracy: AccuracySpec,
        schema: Schema | None,
        cache_key: tuple | None,
    ) -> list[tuple[Mechanism, TranslationResult]]:
        """Answer a memo miss from the disk or by translating, then publish
        to the memo (under ``cache_key``, if any) and to a disk that missed."""
        applicable = self._registry.for_query(query)
        if not applicable:
            raise TranslationError(
                f"no registered mechanism supports {query.kind.value} queries"
            )
        store = self._store
        store_digest = (
            None if store is None else self._store_digest(query, accuracy, schema, applicable)
        )
        out = None
        if store_digest is not None:
            out = self._from_payload(store.load("translation", store_digest), applicable)
        tier = "disk"
        if out is None:
            tier, out = "built", []
            for mechanism in applicable:
                try:
                    out.append((mechanism, mechanism.translate(query, accuracy, schema)))
                except TranslationError:
                    continue
            if not out:
                raise TranslationError(
                    f"no mechanism could translate the accuracy requirement "
                    f"{accuracy} for query {query.name!r}"
                )
        self._tier_stats["disk_hits" if tier == "disk" else tier].inc()
        tracing.annotate("cache_tier", tier)
        if cache_key is not None:
            self._translation_cache.put(cache_key, list(out))
        if store_digest is not None and tier == "built":
            payload = [(mechanism.name, result) for mechanism, result in out]
            if store.save("translation", store_digest, payload):
                self._tier_stats["disk_writes"].inc()
        return list(out)

    def _store_digest(
        self,
        query: Query,
        accuracy: AccuracySpec,
        schema: Schema | None,
        applicable: list[Mechanism],
    ) -> str | None:
        """Process-stable disk key of one translation list, or ``None``.

        Covers the query structure (kind, predicates, names, overrides,
        ICQ threshold / TCQ k via ``cache_key``), the schema content (every
        declared domain the translation reads), the accuracy pair and every
        applicable mechanism's configuration signature -- so differently
        parameterised suites (e.g. different ``mc_samples``) never share
        artifacts.
        """
        structural_key = query.cache_key(None)
        if structural_key is None:
            return None
        # The digest spells the pre-hashed (predicates, names) pair out
        # in place, so the encoded fields are the flat ones stores hold.
        kind, structure, *rest = structural_key
        return stable_digest(
            (
                "translation",
                (kind, *structure.value, *rest),
                schema,
                accuracy.alpha,
                accuracy.beta,
                tuple(mechanism.cache_signature() for mechanism in applicable),
            )
        )

    @staticmethod
    def _from_payload(
        payload: object, applicable: list[Mechanism]
    ) -> list[tuple[Mechanism, TranslationResult]] | None:
        """Re-pair a stored ``(mechanism name, result)`` list, or ``None``.

        The disk key pins the mechanism signatures, so a name that no longer
        resolves (or a malformed payload) means the store and the registry
        drifted -- treat as a miss and rebuild.
        """
        if not isinstance(payload, list) or not payload:
            return None
        by_name = {mechanism.name: mechanism for mechanism in applicable}
        out: list[tuple[Mechanism, TranslationResult]] = []
        for item in payload:
            if not (isinstance(item, tuple) and len(item) == 2):
                return None
            name, result = item
            mechanism = by_name.get(name)
            if mechanism is None or not isinstance(result, TranslationResult):
                return None
            out.append((mechanism, result))
        return out

    def choose(
        self,
        query: Query,
        accuracy: AccuracySpec,
        schema: Schema | None = None,
        *,
        budget_remaining: float | None = None,
    ) -> MechanismChoice | None:
        """Pick the cheapest admissible mechanism; ``None`` when M* is empty.

        ``budget_remaining`` enables the admission filter of Algorithm 1
        (line 5); leave it ``None`` to translate without budget constraints.
        """
        translations = self.translations(query, accuracy, schema)
        if budget_remaining is not None:
            admissible = [
                (mechanism, translation)
                for mechanism, translation in translations
                if translation.epsilon_upper <= budget_remaining + 1e-12
            ]
        else:
            admissible = list(translations)
        if not admissible:
            return None

        if self._mode is SelectionMode.PESSIMISTIC:
            key = lambda pair: (pair[1].epsilon_upper, pair[1].epsilon_lower)
        else:
            key = lambda pair: (pair[1].epsilon_lower, pair[1].epsilon_upper)
        mechanism, translation = min(admissible, key=key)
        return MechanismChoice(
            mechanism=mechanism,
            translation=translation,
            candidates=tuple(t for _, t in translations),
        )
