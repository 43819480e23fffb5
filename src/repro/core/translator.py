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
safe to memoise: the translator keeps an LRU of translation lists keyed by
the query's structural identity, the schema and the accuracy requirement --
no table version, since nothing translated depends on the rows -- so the
exploration strategies' relaxation loops (which re-ask structurally identical
queries round after round), repeated ``preview_cost`` calls and every
request after an append stop paying for mechanism translation more than
once.

Translation reads only the query kind, the workload matrix's values (its
``cache_token``), TCQ ``k`` and ``(alpha, beta)``, so a *token* tier keys
lists by exactly that (:meth:`~repro.queries.query.Query.translation_key`):
queries sharing a matrix share one list.  The tiers are exact (query and
schema) -> token, with an already-memoised matrix only -> the optional
:class:`~repro.store.ArtifactStore`, keyed by the query structure and the
schema's content, so a restarted process reloads lists without building a
matrix -> build the matrix -> token -> translate.  The disk key
includes each applicable mechanism's
:meth:`~repro.mechanisms.base.Mechanism.cache_signature`, so stores are
never shared across differently configured mechanism suites.

Below the token tier, concurrent requests with one exact key share a single
flight: one caller computes while the rest wait and then read the exact
memo, so a burst of identical cold requests (previews and explores alike)
builds one matrix and runs one Monte-Carlo search.
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
from repro.queries.workload import WorkloadMatrix
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
        self._translation_cache: LRUCache[
            list[tuple[Mechanism, TranslationResult]]
        ] = LRUCache(self.CACHE_MAX_ENTRIES)
        #: Token tier: the same lists keyed by ``Query.translation_key``
        #: plus ``(alpha, beta)``.
        self._token_cache: LRUCache[
            list[tuple[Mechanism, TranslationResult]]
        ] = LRUCache(self.CACHE_MAX_ENTRIES)
        #: Tier counters beneath the exact LRU.  Sessions share one
        #: translator, so each is a locked :class:`~repro.obs.Counter`.
        self._tier_stats = {
            key: Counter()
            for key in ("built", "token", "disk_hits", "disk_writes", "coalesced")
        }
        #: In-flight cold translations: exact key -> the leader's latch.
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
        """Counters of the translation memo hierarchy.

        ``hits``/``misses``/``size`` describe the exact LRU; ``token``
        counts lists answered by the token tier, ``disk_hits``/
        ``disk_writes`` the artifact store, ``built`` the translation lists
        actually computed, and ``coalesced`` the callers that waited on
        another caller's flight (see :meth:`translations`).
        """
        tiers = {key: int(counter.value()) for key, counter in self._tier_stats.items()}
        return {**self._translation_cache.stats(), **tiers}

    def clear_cache(self) -> None:
        self._translation_cache.clear()
        self._token_cache.clear()
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
        per (query structure, schema, accuracy) and per
        (:meth:`~repro.queries.query.Query.translation_key`, accuracy):
        translation is data independent and deterministic, so a repeat, or
        another query over the same matrix, is answered from the memo.  The
        tier order is exact -> token (memoised matrices only) -> disk ->
        build the matrix -> token -> translate; see the module docstring.

        Concurrent cold duplicates share one computation (single flight).
        When the exact and token probes miss, the caller registers a flight
        under the exact key: a per-flight latch, created and acquired before
        the registry lock is taken, so latches only ever nest outside it.  A
        caller finding a flight already registered is a follower: it waits
        on the latch, counts ``coalesced`` and starts over from the exact
        probe.  The leader re-probes the exact memo once (a flight may have
        retired between its probe and its registration), computes, publishes
        to the memo and only then retires the flight.  A leader's error is
        its own: each follower starts over and computes for itself.
        """
        query_key = query.cache_key(schema)
        cache_key = None if query_key is None else (query_key, accuracy.alpha, accuracy.beta)
        while True:
            if cache_key is not None:
                cached = self._translation_cache.get(cache_key)
                if cached is not None:
                    tracing.annotate("cache_tier", "exact")
                    return list(cached)
            # Only an already-memoised matrix is probed before the disk, so a
            # restarted process answers from disk without deriving a matrix.
            matrix = query.memoised_matrix(schema)
            out: list[tuple[Mechanism, TranslationResult]] | None = None
            if matrix is not None:
                out = self._token_cache.get(self._token_key(query, matrix, accuracy))
            if out is not None or cache_key is None:
                return self._resolve(query, accuracy, schema, cache_key, matrix, out)
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
                    return self._resolve(query, accuracy, schema, cache_key, matrix, None)
                # A flight retired after this caller's probe: start over and
                # take the exact hit.
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
        matrix: WorkloadMatrix | None,
        out: list[tuple[Mechanism, TranslationResult]] | None,
    ) -> list[tuple[Mechanism, TranslationResult]]:
        """Answer past the exact tier, then publish to every tier that missed.

        ``out`` is the token tier's answer for a memoised ``matrix``, or
        ``None``: then the disk is probed, the matrix built if need be and
        the token tier probed again before translating.
        """
        tier, store, store_digest = "token", self._store, None
        if out is None:
            applicable = self._registry.for_query(query)
            if not applicable:
                raise TranslationError(
                    f"no registered mechanism supports {query.kind.value} queries"
                )
            if store is not None and cache_key is not None:
                store_digest = self._store_digest(query, accuracy, schema, applicable)
            if store is not None and store_digest is not None:
                tier = "disk"
                out = self._from_payload(store.load("translation", store_digest), applicable)
            if out is None and matrix is None:
                tier, matrix = "token", query.build_matrix(schema)
                out = self._token_cache.get(self._token_key(query, matrix, accuracy))
            if out is None:
                tier, out = "built", []
                for mechanism in applicable:
                    try:
                        out.append(
                            (
                                mechanism,
                                mechanism.translate(query, accuracy, schema),
                            )
                        )
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
        if matrix is not None and tier != "token":
            self._token_cache.put(self._token_key(query, matrix, accuracy), list(out))
        # A list the disk missed is stored, whichever tier answered it.
        if store is not None and store_digest is not None and tier != "disk":
            payload = [(mechanism.name, result) for mechanism, result in out]
            if store.save("translation", store_digest, payload):
                self._tier_stats["disk_writes"].inc()
        return list(out)

    @staticmethod
    def _token_key(query: Query, matrix: WorkloadMatrix, accuracy: AccuracySpec) -> tuple:
        return (*query.translation_key(matrix), accuracy.alpha, accuracy.beta)

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
