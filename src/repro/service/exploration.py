"""A thread-safe exploration server hosting many concurrent analyst sessions.

:class:`ExplorationService` is the multi-tenant front end to the APEx engine:
the data owner stands one up over the sensitive table(s) with a total privacy
budget ``B``, and any number of analysts then register sessions and issue
``preview_cost`` / ``explore`` calls concurrently.  The service guarantees:

* **joint budget safety** -- admission control and charging go through one
  budget book, a :class:`~repro.core.accounting.PrivacyLedger` holding every
  analyst's account, using its two-phase reservation protocol, so no
  interleaving of concurrent explores can spend more than ``B`` in total;
* **transcript validity** -- every commit and denial is appended to the
  book's one cross-analyst transcript in commit order, on which
  :meth:`ExplorationService.validate` runs the paper's Theorem 6.2 check;
* **shared derivation** -- all sessions share one
  :class:`~repro.core.translator.AccuracyTranslator` (translation memo) and
  the process-wide workload-matrix memo; the translator coalesces
  structurally identical concurrent cold translations, so a cold
  workload-matrix build happens once per burst rather than once per
  analyst;
* **snapshot isolation** -- every request is admitted on a pinned
  :class:`~repro.data.table.TableSnapshot` (whose version token every
  memo key carries), so long-running explores are wait-free against
  concurrent :meth:`ExplorationService.append_rows` /
  :meth:`ExplorationService.refresh_table` and always answer for exactly
  the version they were admitted at.  See ``docs/consistency.md`` for the
  full cache/version/snapshot contract;
* **crash safety** -- hand the service a
  :class:`~repro.reliability.journal.LedgerJournal` and every commit and
  denial is made durable *before* the books mutate and the answer is
  released; a service restarted over the same journal path adopts the
  recovered spend (every journaled commit, exactly) before admitting any
  new analyst.  Per-request
  deadlines abort overlong explores and release their reservations.  See
  ``docs/reliability.md`` for the journal format and recovery semantics.

Every request's wall-clock latency is recorded once, as it completes, into
a per-kind :class:`~repro.obs.registry.Histogram`;
:meth:`~ExplorationService.latency_stats` is a view of those histograms
(count/mean/max over the service's lifetime).  For tracing and the flat
metric view see :meth:`~ExplorationService.as_metrics` and
``docs/observability.md``.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field as dataclasses_field
from typing import Mapping, Sequence

from repro.core.accounting import PrivacyLedger, Transcript
from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine, ExplorationResult
from repro.core.exceptions import ApexError, RequestTimeoutError
from repro.core.translator import AccuracyTranslator, SelectionMode
from repro.data.table import Table, TableVersion
from repro.mechanisms.registry import MechanismRegistry
from repro.obs import tracing
from repro.obs.registry import Histogram, flatten_stats
from repro.queries.parser import parse_query
from repro.queries.query import Query
from repro.queries.workload import matrix_cache_stats
from repro.reliability.deadline import Deadline
from repro.reliability.faults import fail_point
from repro.reliability.journal import LedgerJournal
from repro.service.budget import BudgetPolicy, SessionLedger
from repro.store import ArtifactStore

__all__ = ["AnalystSessionHandle", "ExplorationService"]


@dataclass(frozen=True)
class AnalystSessionHandle:
    """What :meth:`ExplorationService.register_analyst` returns.

    :ivar analyst: the session's identity (unique within the service).
    :ivar table: name of the table the session explores.
    :ivar engine: the session's :class:`~repro.core.engine.APExEngine`; its
        ledger is a :class:`~repro.service.budget.SessionLedger`, a handle on
        the analyst's account in the service's budget book.  Use the
        service's ``explore`` / ``preview_cost`` entry points rather than the
        engine directly to get per-session serialization and latency
        accounting.
    """

    analyst: str
    table: str
    engine: APExEngine
    #: Serializes this session's mechanism runs: an analyst is a sequential
    #: agent, and the engine's noise generator is not safe for concurrent
    #: draws.  (dataclass field with a per-instance default)
    run_lock: threading.Lock = dataclasses_field(default_factory=threading.Lock)

    @property
    def ledger(self) -> SessionLedger:
        """The session's ledger handle (`engine`'s ledger, typed)."""
        return self.engine._ledger  # noqa: SLF001 - handle owns the engine

    def transcript(self) -> Transcript:
        """The analyst's own (single-session) transcript."""
        return self.engine.transcript()


class ExplorationService:
    """Host concurrent :class:`AnalystSessionHandle` sessions over shared tables.

    :param tables: named sensitive tables (e.g. ``{"adult": ..., "taxi": ...}``).
    :param budget: the owner's total privacy budget ``B``, shared by every
        analyst across every table.
    :param policy: how ``B`` is split across analysts
        (:class:`~repro.service.budget.BudgetPolicy`).
    :param max_analysts: required for ``FIXED_SHARE``: the number of equal
        shares to mint.  Registration beyond this count is refused.
    :param mode: mechanism selection mode shared by every session.
    :param registry: mechanism suite; defaults per engine to the paper's.
    :param seed: base seed; session ``i`` gets ``seed + i`` so runs are
        reproducible yet sessions draw independent noise.
    :param store: an optional :class:`~repro.store.ArtifactStore` under the
        translator every session shares.  A restarted service pointed at the
        previous run's directory warm-starts: structurally identical
        previews are answered from disk with zero Monte-Carlo re-searches
        (``docs/store.md``).
    :param journal: an optional write-ahead
        :class:`~repro.reliability.journal.LedgerJournal`.  When given, the
        journal's recovered spend (replayed at open) is adopted into the
        budget book *before* any analyst registers -- committed charges
        replay exactly, each to its analyst's account -- and the book
        journals every session's commits and denials through it.
    :param request_deadline: optional per-request wall-clock budget in
        seconds for :meth:`explore`.  An expired deadline aborts the request
        with :class:`~repro.core.exceptions.RequestTimeoutError` at the next
        safe point; the reservation is always released and nothing is
        charged (an unpublished draw costs no privacy).

    All public methods are safe to call from any thread; requests issued for
    the *same* analyst serialize on that session's lock (see
    :meth:`explore`), while different analysts proceed in parallel.
    """

    def __init__(
        self,
        tables: Mapping[str, Table] | Table,
        budget: float,
        *,
        policy: BudgetPolicy | str = BudgetPolicy.FIRST_COME,
        max_analysts: int | None = None,
        mode: SelectionMode | str = SelectionMode.OPTIMISTIC,
        registry: MechanismRegistry | None = None,
        seed: int | None = None,
        store: ArtifactStore | None = None,
        journal: LedgerJournal | None = None,
        request_deadline: float | None = None,
    ) -> None:
        if isinstance(tables, Table):
            tables = {"default": tables}
        if not tables:
            raise ApexError("ExplorationService needs at least one table")
        if isinstance(policy, str):
            policy = BudgetPolicy(policy.lower())
        if policy is BudgetPolicy.FIXED_SHARE:
            if max_analysts is None or max_analysts <= 0:
                raise ApexError(
                    "the fixed-share policy needs max_analysts (> 0) to size "
                    "each analyst's share"
                )
        if isinstance(mode, str):
            mode = SelectionMode(mode.lower())
        if request_deadline is not None and request_deadline <= 0:
            raise ApexError("request_deadline must be positive (or None)")
        self._tables = dict(tables)
        self._book = PrivacyLedger(budget, journal=journal)
        self._journal = journal
        self._request_deadline = request_deadline
        self._timeouts = 0
        self._recovered_entries = 0
        if journal is not None and not journal.recovery.empty:
            # Crash recovery happens here, before any analyst can register:
            # the previous incarnation's committed spend replays exactly, so
            # no interleaving of old crash and new requests can overspend.
            self._recovered_entries = self._book.adopt_recovery(journal.recovery)
        self._policy = policy
        self._max_analysts = max_analysts
        self._mode = mode
        self._registry = registry
        self._seed = seed
        self._translator = AccuracyTranslator(registry, mode, store=store)
        self._sessions: dict[str, AnalystSessionHandle] = {}
        self._lock = threading.RLock()
        self._session_counter = itertools.count()
        self._latencies = {"preview_cost": Histogram(), "explore": Histogram()}

    # -- owner-facing accessors ---------------------------------------------------

    @property
    def pool(self) -> PrivacyLedger:
        """The budget book: ``B``, every analyst's account, the transcript."""
        return self._book

    @property
    def policy(self) -> BudgetPolicy:
        return self._policy

    @property
    def tables(self) -> Mapping[str, Table]:
        return dict(self._tables)

    @property
    def budget(self) -> float:
        return self._book.budget

    @property
    def budget_spent(self) -> float:
        return self._book.spent

    @property
    def budget_remaining(self) -> float:
        return self._book.remaining

    def merged_transcript(self) -> Transcript:
        """The cross-analyst transcript in commit order."""
        return self._book.transcript

    # -- owner-facing table mutation ------------------------------------------------

    def append_rows(
        self, table: str, rows: Sequence[Mapping[str, object]]
    ) -> TableVersion:
        """Append rows to a hosted table (streaming ingest, any time).

        Advances the table's version token.  The next request pins a new
        snapshot, whose data caches (mask LRU, histogram/true-count caches)
        start cold against the grown table; the translation memo, matrix
        memo and WCQ-SM search key on the schema and are reused.  Requests
        admitted after this call observe the new version.  Requests still *in flight* are untouched: each was
        admitted on a pinned :class:`~repro.data.table.TableSnapshot`, whose
        frozen shards the append cannot reach, so concurrent readers neither
        fail nor mix versions -- appends may land at any time, mid-request
        included (pinned by ``tests/data/test_snapshot_isolation.py``).
        The rows become one new shard after the table's last; no earlier
        shard is touched.  An empty ``rows`` changes nothing and returns the
        current token.

        :param table: name of a hosted table.
        :param rows: the rows to append (missing keys become NULL).
        :returns: the advanced :class:`~repro.data.table.TableVersion`.
        :raises ApexError: when ``table`` is not hosted by this service.
        """
        return self._mutable_table(table).append_rows(rows)

    def refresh_table(
        self, table: str, rows: Sequence[Mapping[str, object]]
    ) -> TableVersion:
        """Replace a hosted table's contents wholesale (see ``append_rows``).

        In-flight requests keep answering over their pinned pre-refresh
        snapshots; requests admitted afterwards observe the new contents.
        """
        return self._mutable_table(table).refresh(rows)

    def _mutable_table(self, table: str) -> Table:
        with self._lock:
            if table not in self._tables:
                raise ApexError(
                    f"unknown table {table!r}; service hosts {sorted(self._tables)}"
                )
            return self._tables[table]

    def validate(self) -> bool:
        """Theorem 6.2: is the merged transcript valid for the owner's ``B``?"""
        return self._book.transcript.is_valid(self._book.budget)

    def assert_invariants(self) -> None:
        """Check the budget book's accounting invariants, every account's too.

        Raises :class:`~repro.core.exceptions.LedgerInvariantError` on the
        first violation (spend past ``B``, orphaned reservations, transcript
        drift).  Cheap enough to call after every request in tests and in
        the reliability exerciser; production callers typically invoke it
        at checkpoints.
        """
        self._book.assert_invariants()

    def stats(self) -> dict[str, object]:
        """Budget, cache and per-session counters in one snapshot.

        ``batching`` repeats the translator's ``coalesced`` count for the
        end-to-end benchmark, which reads it there; the metric view exports
        it once, as ``repro_translations_coalesced``.
        """
        with self._lock:
            sessions = {
                name: {
                    "table": handle.table,
                    "share": handle.ledger.budget,
                    "spent": handle.ledger.spent,
                }
                for name, handle in self._sessions.items()
            }
        store = self._translator.store
        translations = self._translator.cache_stats
        return {
            "budget": self._book.stats(),
            "policy": self._policy.value,
            "sessions": sessions,
            "tables": {
                name: {
                    "rows": len(tbl),
                    "shards": tbl.n_shards,
                    "version": tbl.version_token.ordinal,
                }
                for name, tbl in self._tables.items()
            },
            "batching": {"coalesced": translations["coalesced"]},
            "translations": translations,
            "workload_matrices": matrix_cache_stats(),
            "store": None if store is None else store.stats(),
            "reliability": {
                "journal": None if self._journal is None else self._journal.stats(),
                "recovered_entries": self._recovered_entries,
                "request_deadline_seconds": self._request_deadline,
                "timeouts": self._timeouts,
            },
        }

    def latency_stats(self) -> dict[str, dict[str, float]]:
        """Per-entry-point request latency aggregates (count/mean/max seconds).

        Each kind's aggregates come from one untorn histogram snapshot and
        cover every request the service has served.
        """
        out: dict[str, dict[str, float]] = {}
        for kind, histogram in self._latencies.items():
            snap = histogram.snapshot()
            out[kind] = {
                "count": snap["count"],
                "mean_seconds": snap["mean"],
                "max_seconds": snap["max"],
            }
        return out

    def as_metrics(self) -> dict[str, float]:
        """:meth:`stats` + :meth:`latency_stats` under the metric naming scheme.

        The one flat ``{metric_name: value}`` view of the service's counters
        (what ``python -m repro.obs`` exports), using
        ``repro_<subsystem>_<name>{labels}`` names -- per-table,
        per-session and per-latency-kind series carry labels, everything
        else flattens via :func:`repro.obs.registry.flatten_stats`.  See
        ``docs/observability.md`` for the catalog.
        """
        stats: dict = self.stats()
        out = flatten_stats("pool", stats["budget"])
        out.update(flatten_stats("translations", stats["translations"]))
        out.update(flatten_stats("matrix", stats["workload_matrices"]))
        if stats["store"] is not None:
            out.update(flatten_stats("store", stats["store"]))
        out.update(flatten_stats("reliability", stats["reliability"]))
        for table, fields in stats["tables"].items():
            for name, value in fields.items():
                out[f'repro_table_{name}{{table="{table}"}}'] = float(value)
        for analyst, fields in stats["sessions"].items():
            for name in ("share", "spent"):
                out[f'repro_session_{name}{{analyst="{analyst}"}}'] = float(
                    fields[name]
                )
        for kind, aggregate in self.latency_stats().items():
            for name, value in aggregate.items():
                out[f'repro_latency_{name}{{kind="{kind}"}}'] = float(value)
        out["repro_service_sessions_active"] = float(len(stats["sessions"]))
        return out

    # -- session management -------------------------------------------------------

    def register_analyst(
        self, analyst: str | None = None, *, table: str | None = None
    ) -> AnalystSessionHandle:
        """Mint a new analyst session with its policy-determined budget share.

        :param analyst: session identity; autogenerated when omitted.  Must be
            unique within the service.
        :param table: which table the session explores; may be omitted when
            the service hosts exactly one.
        :raises ApexError: on duplicate identity, unknown table, or when a
            fixed-share service is already at ``max_analysts``.
        """
        with self._lock:
            index = next(self._session_counter)
            if analyst is None:
                analyst = f"analyst-{index}"
            analyst = str(analyst)
            if analyst in self._sessions:
                raise ApexError(f"analyst {analyst!r} is already registered")
            if table is None:
                if len(self._tables) != 1:
                    raise ApexError(
                        f"the service hosts {sorted(self._tables)}; pass table=..."
                    )
                table = next(iter(self._tables))
            if table not in self._tables:
                raise ApexError(
                    f"unknown table {table!r}; service hosts {sorted(self._tables)}"
                )
            if self._policy is BudgetPolicy.FIXED_SHARE:
                assert self._max_analysts is not None
                if len(self._sessions) >= self._max_analysts:
                    raise ApexError(
                        f"fixed-share service is full ({self._max_analysts} analysts)"
                    )
                share = self._book.budget / self._max_analysts
            else:
                share = self._book.budget
            ledger = SessionLedger(self._book, share, analyst)
            engine = APExEngine(
                self._tables[table],
                mode=self._mode,
                registry=self._registry,
                seed=None if self._seed is None else self._seed + index,
                ledger=ledger,
                translator=self._translator,
            )
            handle = AnalystSessionHandle(analyst=analyst, table=table, engine=engine)
            self._sessions[analyst] = handle
            return handle

    def session(self, analyst: str) -> AnalystSessionHandle:
        """Look up a registered session by identity."""
        with self._lock:
            try:
                return self._sessions[analyst]
            except KeyError as exc:
                raise ApexError(f"no session registered for {analyst!r}") from exc

    def sessions(self) -> Sequence[AnalystSessionHandle]:
        """Snapshot of every registered session."""
        with self._lock:
            return tuple(self._sessions.values())

    # -- analyst-facing entry points ----------------------------------------------

    def preview_cost(
        self, analyst: str, query: Query, accuracy: AccuracySpec
    ) -> dict[str, tuple[float, float]]:
        """Data-independent cost preview; costs no privacy.

        The request is admitted on a pinned snapshot and priced by the
        session's engine.  Structurally identical cold previews racing each
        other at the same version share one translation (and one
        workload-matrix build) in the translator.  The analyst only needs
        to be registered.

        :param analyst: a registered session identity.
        :param query: the query whose mechanisms to price.
        :param accuracy: the ``(alpha, beta)`` requirement to translate.
        :returns: mapping of mechanism name to ``(epsilon_lower,
            epsilon_upper)``.
        """
        with tracing.root_span(
            "service.preview_cost", analyst=analyst, query=query.name
        ):
            with tracing.span("service.admission"):
                handle = self.session(analyst)
            start = time.perf_counter()
            with tracing.span("service.snapshot_pin"):
                snapshot = self._tables[handle.table].snapshot()
            result = handle.engine.preview_cost(query, accuracy, snapshot=snapshot)
            self._note_latency("preview_cost", time.perf_counter() - start)
            return result

    def explore(
        self, analyst: str, query: Query, accuracy: AccuracySpec
    ) -> ExplorationResult:
        """Answer one query for ``analyst`` (Algorithm 1, jointly budget-safe).

        The request is admitted on a snapshot pinned *here*, at entry: the
        mechanism evaluates that snapshot's frozen shards, so the explore is
        wait-free against concurrent :meth:`append_rows` and its answer
        describes exactly the admitted version even if the table grows while
        the mechanism runs.  The mechanism run and the privacy charge are
        individual to the analyst (each answer draws fresh noise and is
        charged to the analyst's account in the budget book); only the
        data-independent derivations underneath are shared, concurrent cold
        translations of one query included.  Requests for
        the *same* analyst are serialized on the session's lock -- an
        analyst is a sequential agent, and the engine's noise generator must
        not be shared by concurrent draws; requests for different analysts
        run fully in parallel.

        :param analyst: a registered session identity.
        :param query: the query to answer.
        :param accuracy: the ``(alpha, beta)`` requirement.
        :returns: the :class:`~repro.core.engine.ExplorationResult` (denied
            when no mechanism fits the remaining budget).
        """
        with tracing.root_span("service.explore", analyst=analyst, query=query.name):
            with tracing.span("service.admission"):
                handle = self.session(analyst)
            start = time.perf_counter()
            deadline = Deadline.after(self._request_deadline)
            with tracing.span("service.snapshot_pin"):
                snapshot = self._tables[handle.table].snapshot()
            fail_point("service.explore.admitted")
            try:
                with handle.run_lock:
                    result = handle.engine.explore(
                        query, accuracy, snapshot=snapshot, deadline=deadline
                    )
            except RequestTimeoutError:
                # The engine's release-on-failure path already returned the
                # reservation; here we only keep score for stats().
                with self._lock:
                    self._timeouts += 1
                raise
            self._note_latency("explore", time.perf_counter() - start)
            return result

    def explore_text(
        self, analyst: str, query_text: str, accuracy: AccuracySpec | None = None
    ) -> ExplorationResult:
        """Parse and answer a declarative-language query for ``analyst``."""
        query, parsed_accuracy = parse_query(query_text)
        spec = accuracy if accuracy is not None else parsed_accuracy
        if spec is None:
            raise ApexError(
                "the query text has no ERROR/CONFIDENCE clause and no accuracy "
                "was supplied"
            )
        return self.explore(analyst, query, spec)

    # -- internals ------------------------------------------------------------------

    def _note_latency(self, kind: str, seconds: float) -> None:
        self._latencies[kind].observe(seconds)
