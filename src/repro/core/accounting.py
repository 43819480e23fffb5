"""Privacy accounting: the budget ledger and the transcript of interaction.

Section 6 of the paper.  The privacy analyzer must guarantee that the whole
(adaptively chosen) sequence of interactions is ``B``-differentially private.
Two ingredients:

* **admission control** uses the *worst-case* loss ``epsilon_u`` of the chosen
  mechanism: a query is only answered when ``B_{i-1} + epsilon_u <= B``
  (otherwise the decision to answer would itself leak information through the
  data-dependent actual loss);
* **charging** uses the *actual* loss ``epsilon_i`` reported by the mechanism
  (``epsilon_i < epsilon_u`` is possible for ICQ-MPM), by sequential
  composition.

:class:`PrivacyLedger` implements both rules and records every interaction in
a :class:`Transcript` whose entries mirror the paper's
``[(q_i, alpha_i, beta_i), (omega_i, epsilon_i)]`` alternating sequence,
including denials.

Concurrency
-----------

The ledger is thread-safe and supports a two-phase *reservation* protocol for
concurrent exploration (:mod:`repro.service`):

1. :meth:`PrivacyLedger.reserve` atomically checks admission against
   ``remaining`` (which excludes everything currently reserved by in-flight
   queries) and sets the worst-case loss ``epsilon_u`` aside;
2. the mechanism runs *outside* any lock;
3. :meth:`PrivacyLedger.charge` commits the actual loss and returns the
   unused ``epsilon_u - epsilon_i`` headroom to the pool, or
   :meth:`PrivacyLedger.release` returns all of it when the run failed.

Because admission is checked against ``B - spent - reserved`` under a single
lock, no interleaving of concurrent explores can jointly overspend ``B`` --
the invariant ``spent + reserved <= B`` holds at every instant, and therefore
every committed transcript is valid in the sense of Definition 6.1.

Durability
----------

The invariant above is only as durable as the process: a crash would forget
the committed spend.  Construct the ledger with a
:class:`~repro.reliability.journal.LedgerJournal` and every commit and
denial is appended to an fsync'd, checksummed write-ahead log **before**
the in-memory state mutates -- and so before the answer can reach an
analyst.  Reservations stay in memory: one that dies with its process
released nothing and costs nothing.  A restarted process replays the
journal's commits exactly (:meth:`PrivacyLedger.adopt_recovery`), so no
crash can make the accounting *under*-count a released answer.  The
contract is spelled out in ``docs/reliability.md`` and exercised by
:mod:`repro.reliability.exerciser`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import ApexError, BudgetExceededError, LedgerInvariantError
from repro.reliability.faults import fail_point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.reliability.journal import JournalRecovery, LedgerJournal

__all__ = ["TranscriptEntry", "Transcript", "PrivacyLedger", "BudgetReservation"]

_TOLERANCE = 1e-12


@dataclass(frozen=True)
class TranscriptEntry:
    """One interaction: the query asked and what came back.

    ``denied`` entries carry ``epsilon_spent == 0`` and ``answer is None``
    (the paper's ``omega_i = bottom``).
    """

    index: int
    query_name: str
    query_kind: str
    accuracy: AccuracySpec
    mechanism: str | None
    epsilon_upper: float
    epsilon_spent: float
    denied: bool
    answer: Any = None
    budget_before: float = 0.0
    budget_after: float = 0.0


class Transcript:
    """The analyst's view of the exploration: an append-only entry list.

    Appends and snapshot reads are individually atomic (a lock protects the
    underlying list), so a transcript owned by a concurrently used ledger can
    be iterated and validated while other threads keep exploring.
    """

    def __init__(self) -> None:
        self._entries: list[TranscriptEntry] = []
        self._lock = threading.Lock()

    def append(self, entry: TranscriptEntry) -> None:
        with self._lock:
            self._entries.append(entry)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[TranscriptEntry]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> TranscriptEntry:
        with self._lock:
            return self._entries[index]

    @property
    def entries(self) -> tuple[TranscriptEntry, ...]:
        """An immutable snapshot of the entries recorded so far."""
        with self._lock:
            return tuple(self._entries)

    def answered(self) -> list[TranscriptEntry]:
        """The entries that were actually answered (``omega_i != bottom``)."""
        return [entry for entry in self.entries if not entry.denied]

    def denied(self) -> list[TranscriptEntry]:
        """The entries that were denied (cost no privacy)."""
        return [entry for entry in self.entries if entry.denied]

    def total_epsilon(self) -> float:
        """Total actual privacy loss of the transcript, by sequential composition."""
        return sum(entry.epsilon_spent for entry in self.entries)

    def is_valid(self, budget: float) -> bool:
        """Check the paper's valid-transcript conditions (Definition 6.1).

        A transcript is valid for budget ``B`` when every answered entry was
        admitted with ``B_{i-1} + epsilon_u <= B``, charged no more than its
        worst case, and the running total never exceeds ``B``.  Theorem 6.2
        reduces the end-to-end privacy guarantee to exactly this check.
        """
        running = 0.0
        for entry in self.entries:
            if entry.denied:
                if entry.epsilon_spent != 0:
                    return False
                continue
            if running + entry.epsilon_upper > budget + _TOLERANCE:
                return False
            if entry.epsilon_spent > entry.epsilon_upper + _TOLERANCE:
                return False
            running += entry.epsilon_spent
            if running > budget + _TOLERANCE:
                return False
        return True

    def summary(self) -> dict[str, Any]:
        """Aggregate statistics for reporting."""
        entries = self.entries
        answered = [e for e in entries if not e.denied]
        return {
            "interactions": len(entries),
            "answered": len(answered),
            "denied": len(entries) - len(answered),
            "epsilon_spent": sum(e.epsilon_spent for e in entries),
            "mechanisms": sorted({e.mechanism for e in answered if e.mechanism}),
        }


@dataclass
class BudgetReservation:
    """Worst-case budget set aside for one in-flight mechanism run.

    Produced by :meth:`PrivacyLedger.reserve` and consumed exactly once by
    either :meth:`PrivacyLedger.charge` (commit) or
    :meth:`PrivacyLedger.release` (abort).  While active, the reserved
    ``epsilon_upper`` is excluded from :attr:`PrivacyLedger.remaining`, which
    is what makes concurrent admission control sound.
    """

    epsilon_upper: float
    active: bool = True


def _recovery_entries(recovery: "JournalRecovery") -> list[TranscriptEntry]:
    """Rebuild the transcript entries of a journal replay, in journal order.

    Each ``commit`` becomes an answered entry charged its exact
    ``eps_spent`` and each ``deny`` a free denial; every other op (such as
    the ``reserve``/``release`` records of older journals) is skipped.
    ``docs/reliability.md`` argues why the result satisfies Definition 6.1.
    """
    entries: list[TranscriptEntry] = []
    running = 0.0
    for record in recovery.records:
        op = record.get("op")
        if op not in ("commit", "deny"):
            continue
        denied = op == "deny"
        eps_spent = 0.0 if denied else float(record.get("eps_spent", 0.0))
        query = str(record.get("query", "unknown"))
        if record.get("analyst"):
            query = f"{record['analyst']}:{query}"
        entries.append(
            TranscriptEntry(
                index=len(entries),
                query_name=query,
                query_kind=str(record.get("kind", "unknown")),
                accuracy=AccuracySpec(
                    alpha=float(record.get("alpha", 1.0)),
                    beta=float(record.get("beta", 5e-4)),
                ),
                mechanism=None if denied else record.get("mechanism"),
                epsilon_upper=(
                    0.0 if denied else float(record.get("eps_upper", eps_spent))
                ),
                epsilon_spent=eps_spent,
                denied=denied,
                answer=None,  # answers are not journaled, only losses
                budget_before=running,
                budget_after=running + eps_spent,
            )
        )
        running += eps_spent
    return entries


class PrivacyLedger:
    """Tracks the owner's budget ``B`` across a sequence of mechanism runs.

    :param budget: the owner-specified total privacy budget ``B``.
    :param journal: an optional
        :class:`~repro.reliability.journal.LedgerJournal`.  When set, every
        commit and denial is durably appended to the write-ahead log before
        :meth:`charge` / :meth:`deny` return, so before an answer can reach
        an analyst; a crashed-and-restarted process (after
        :meth:`adopt_recovery`) can never under-count spend.
    :param journal_label: identity stamped onto journal records (the
        analyst name for session ledgers); purely descriptive.
    """

    def __init__(
        self,
        budget: float,
        *,
        journal: "LedgerJournal | None" = None,
        journal_label: str | None = None,
    ) -> None:
        if budget <= 0:
            raise ApexError(f"the privacy budget must be positive, got {budget}")
        self._budget = float(budget)
        self._spent = 0.0
        self._reserved = 0.0
        self._transcript = Transcript()
        self._lock = threading.RLock()
        self._journal = journal
        self._journal_label = journal_label
        #: Active (unconsumed) reservations, keyed by object identity; the
        #: source of truth for the "no orphaned reservations" invariant.
        self._active_reservations: dict[int, BudgetReservation] = {}

    # -- accessors ----------------------------------------------------------------

    @property
    def budget(self) -> float:
        """The owner-specified total budget ``B``."""
        return self._budget

    @property
    def spent(self) -> float:
        """The privacy loss actually consumed so far (``B_{i-1}``)."""
        return self._spent

    @property
    def reserved(self) -> float:
        """Worst-case loss currently set aside for in-flight queries."""
        return self._reserved

    @property
    def remaining(self) -> float:
        """Budget headroom used for admission control (excludes reservations)."""
        with self._lock:
            return max(self._budget - self._spent - self._reserved, 0.0)

    @property
    def transcript(self) -> Transcript:
        return self._transcript

    @property
    def exhausted(self) -> bool:
        """True when no further positive-epsilon query can possibly be admitted."""
        return self.remaining <= _TOLERANCE

    @property
    def journal(self) -> "LedgerJournal | None":
        """The attached write-ahead journal, if any."""
        return self._journal

    # -- durability ---------------------------------------------------------------

    def adopt_recovery(self, recovery: "JournalRecovery") -> int:
        """Apply a journal replay to this (pristine) ledger.

        Reconstructs the crashed process's transcript -- its commits
        exactly, and its denials -- and charges the total as already-spent
        budget.  Must be called before any new activity; returns the number
        of recovered entries.

        :raises ApexError: when the ledger has already been used, or the
            recovered spend exceeds this ledger's budget (the owner
            restarted with a smaller ``B`` than was already spent -- a
            configuration error that must not be absorbed silently).
        """
        with self._lock:
            if self._spent or self._reserved or len(self._transcript):
                raise ApexError(
                    "adopt_recovery requires a pristine ledger; recover "
                    "before any reserve/charge activity"
                )
            if recovery.spent > self._budget + _TOLERANCE:
                raise ApexError(
                    f"the journal records {recovery.spent:.6g} spent but this "
                    f"ledger's budget is only {self._budget:.6g}; refusing to "
                    "restart with less budget than was already consumed"
                )
            entries = _recovery_entries(recovery)
            for entry in entries:
                self._transcript.append(entry)
            self._spent = recovery.spent
            return len(entries)

    def assert_invariants(self) -> None:
        """Raise :class:`LedgerInvariantError` unless the books balance.

        Checks, atomically: ``spent + reserved <= B``; the reserved total
        equals the sum of active reservations (no orphaned or double-counted
        reservation); and the transcript's committed epsilon equals
        ``spent``.  Cheap (no IO); called by the service validator, the
        reliability benchmarks and the history exerciser after every step.
        """
        with self._lock:
            slack = 1e-9 + _TOLERANCE * (len(self._transcript) + 1)
            if self._spent + self._reserved > self._budget + slack:
                raise LedgerInvariantError(
                    f"spent ({self._spent:.6g}) + reserved ({self._reserved:.6g}) "
                    f"exceeds the budget {self._budget:.6g}"
                )
            if self._reserved < -slack:
                raise LedgerInvariantError(
                    f"reserved is negative: {self._reserved:.6g}"
                )
            active_total = sum(
                r.epsilon_upper for r in self._active_reservations.values()
            )
            if abs(active_total - self._reserved) > slack:
                raise LedgerInvariantError(
                    f"reserved ({self._reserved:.6g}) disagrees with the "
                    f"{len(self._active_reservations)} active reservations "
                    f"({active_total:.6g}) -- an orphaned or double-counted "
                    "reservation"
                )
            committed = self._transcript.total_epsilon()
            if abs(committed - self._spent) > slack:
                raise LedgerInvariantError(
                    f"transcript epsilon ({committed:.6g}) disagrees with "
                    f"spent ({self._spent:.6g})"
                )

    # -- admission and charging ------------------------------------------------------

    def can_afford(self, epsilon_upper: float) -> bool:
        """Whether a mechanism with the given worst-case loss may be run."""
        if epsilon_upper <= 0:
            raise ApexError("epsilon_upper must be positive")
        return epsilon_upper <= self.remaining + _TOLERANCE

    def reserve(self, epsilon_upper: float) -> BudgetReservation | None:
        """Atomically admit and set aside ``epsilon_upper``; ``None`` on refusal.

        This is phase one of the two-phase charge used by concurrent
        exploration: the check against :attr:`remaining` and the reservation
        happen under one lock, so two in-flight queries can never both be
        admitted against the same headroom.  Nothing is journaled: a
        reservation lost in a crash released no answer.
        """
        if epsilon_upper <= 0:
            raise ApexError("epsilon_upper must be positive")
        with self._lock:
            if epsilon_upper > self.remaining + _TOLERANCE:
                return None
            self._reserved += epsilon_upper
            reservation = BudgetReservation(epsilon_upper=float(epsilon_upper))
            self._active_reservations[id(reservation)] = reservation
            return reservation

    def release(self, reservation: BudgetReservation) -> None:
        """Return an unused reservation to the pool (mechanism did not run)."""
        with self._lock:
            if not reservation.active:
                return
            reservation.active = False
            self._active_reservations.pop(id(reservation), None)
            self._reserved = max(self._reserved - reservation.epsilon_upper, 0.0)

    def charge(
        self,
        *,
        query_name: str,
        query_kind: str,
        accuracy: AccuracySpec,
        mechanism: str,
        epsilon_upper: float,
        epsilon_spent: float,
        answer: Any,
        reservation: BudgetReservation | None = None,
    ) -> TranscriptEntry:
        """Record an answered query and deduct its actual privacy loss.

        Without a ``reservation`` the admission check and the charge happen
        atomically here (the single-threaded fast path).  With one, the
        admission already happened in :meth:`reserve`; the reservation is
        consumed and only the actual loss is kept as spent.
        """
        with self._lock:
            # Validate everything BEFORE consuming the reservation, so that a
            # raise leaves the reservation active and the caller can release
            # it (otherwise the reserved headroom would leak forever).
            if epsilon_spent < 0 or epsilon_spent > epsilon_upper + _TOLERANCE:
                raise ApexError(
                    f"actual loss {epsilon_spent} must lie in [0, {epsilon_upper}]"
                )
            if reservation is not None:
                if not reservation.active:
                    raise ApexError("reservation was already committed or released")
                if epsilon_upper > reservation.epsilon_upper + _TOLERANCE:
                    raise ApexError(
                        f"cannot charge epsilon_upper={epsilon_upper} against a "
                        f"reservation of {reservation.epsilon_upper}"
                    )
            elif not self.can_afford(epsilon_upper):
                raise BudgetExceededError(
                    f"admitting {mechanism} (worst case {epsilon_upper:.6g}) would "
                    f"exceed the remaining budget {self.remaining:.6g}",
                    required=epsilon_upper,
                    remaining=self.remaining,
                )
            # Write-ahead: the commit is durable before spent/transcript
            # mutate and before the caller can release the answer.  A crash
            # before the append charges nothing (no answer left the
            # process); a crash after it recovers the exact loss.
            fail_point("ledger.charge.before_journal")
            if self._journal is not None:
                fields: dict[str, Any] = {
                    "eps_upper": float(epsilon_upper),
                    "eps_spent": float(epsilon_spent),
                    "query": query_name,
                    "kind": query_kind,
                    "mechanism": mechanism,
                    "alpha": float(accuracy.alpha),
                    "beta": float(accuracy.beta),
                }
                if self._journal_label is not None:
                    fields["analyst"] = self._journal_label
                self._journal.append("commit", **fields)
                fail_point("ledger.charge.after_journal")
            if reservation is not None:
                reservation.active = False
                self._active_reservations.pop(id(reservation), None)
                self._reserved = max(self._reserved - reservation.epsilon_upper, 0.0)
            before = self._spent
            self._spent += epsilon_spent
            entry = TranscriptEntry(
                index=len(self._transcript),
                query_name=query_name,
                query_kind=query_kind,
                accuracy=accuracy,
                mechanism=mechanism,
                epsilon_upper=epsilon_upper,
                epsilon_spent=epsilon_spent,
                denied=False,
                answer=answer,
                budget_before=before,
                budget_after=self._spent,
            )
            self._transcript.append(entry)
            return entry

    def deny(
        self,
        *,
        query_name: str,
        query_kind: str,
        accuracy: AccuracySpec,
    ) -> TranscriptEntry:
        """Record a denied query (costs no privacy)."""
        with self._lock:
            if self._journal is not None:
                fields: dict[str, Any] = {
                    "query": query_name,
                    "kind": query_kind,
                    "alpha": float(accuracy.alpha),
                    "beta": float(accuracy.beta),
                }
                if self._journal_label is not None:
                    fields["analyst"] = self._journal_label
                self._journal.append("deny", **fields)
            entry = TranscriptEntry(
                index=len(self._transcript),
                query_name=query_name,
                query_kind=query_kind,
                accuracy=accuracy,
                mechanism=None,
                epsilon_upper=0.0,
                epsilon_spent=0.0,
                denied=True,
                answer=None,
                budget_before=self._spent,
                budget_after=self._spent,
            )
            self._transcript.append(entry)
            return entry
