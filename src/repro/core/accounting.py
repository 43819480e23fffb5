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
including denials.  It is the one budget book: a multi-analyst service keeps
every analyst's account (a cap on its share of ``B``) in the same ledger,
under the same lock, and writes one transcript for all of them.

Concurrency
-----------

The ledger is thread-safe and supports a two-phase *reservation* protocol for
concurrent exploration (:mod:`repro.service`):

1. :meth:`PrivacyLedger.reserve` atomically checks admission against
   ``remaining`` (which excludes everything currently reserved by in-flight
   queries) and sets the worst-case loss ``epsilon_u`` aside;
2. the mechanism runs *outside* any lock;
3. :meth:`PrivacyLedger.charge` commits the actual loss and returns the
   unused ``epsilon_u - epsilon_i`` headroom to the book, or
   :meth:`PrivacyLedger.release` returns all of it when the run failed.

Because admission is checked against ``B - spent - reserved`` (and the
analyst's cap net of its own spend and reservations) under a single lock,
no interleaving of concurrent explores can jointly overspend ``B`` --
the invariant ``spent + reserved <= B`` holds at every instant, and therefore
every committed transcript is valid in the sense of Definition 6.1.

Durability
----------

The invariant above is only as durable as the process: a crash would forget
the committed spend.  Construct the ledger with a
:class:`~repro.reliability.journal.LedgerJournal` and every commit and
denial is appended to an fsync'd, checksummed write-ahead log **before**
the in-memory state mutates -- and so before the answer can reach an
analyst.  The append runs outside the book lock: the reservation holds the
commit's headroom meanwhile.  Reservations stay in memory: one that dies
with its process released nothing and costs nothing.  A restarted process
replays the journal's commits exactly, each analyst's to its account
(:meth:`PrivacyLedger.adopt_recovery`), so no crash can make the
accounting *under*-count a released answer.  The contract is spelled out
in ``docs/reliability.md`` and exercised by
:mod:`repro.reliability.exerciser`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import ApexError, BudgetExceededError, LedgerInvariantError
from repro.reliability.faults import fail_point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.reliability.journal import JournalRecovery, LedgerJournal

__all__ = [
    "Account",
    "BudgetReservation",
    "PrivacyLedger",
    "Transcript",
    "TranscriptEntry",
]

_TOLERANCE = 1e-12


@dataclass(frozen=True)
class TranscriptEntry:
    """One interaction: the query asked and what came back.

    ``denied`` entries carry ``epsilon_spent == 0`` and ``answer is None``
    (the paper's ``omega_i = bottom``).  ``analyst`` is the account charged,
    ``None`` for an unlabelled ledger.
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
    analyst: str | None = None


class Transcript:
    """The analyst's view of the exploration: an append-only entry list.

    Appends and snapshot reads are individually atomic (a lock protects the
    underlying list), so a transcript owned by a concurrently used ledger can
    be iterated and validated while other threads keep exploring.
    """

    def __init__(self, entries: Iterable[TranscriptEntry] = ()) -> None:
        self._entries: list[TranscriptEntry] = list(entries)
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
    ``epsilon_upper`` is excluded from the headroom of the whole book and of
    the ``analyst``'s account, which is what makes concurrent admission
    control sound.
    """

    epsilon_upper: float
    analyst: str | None = None
    active: bool = True


@dataclass
class Account:
    """One analyst's cap and running totals inside a :class:`PrivacyLedger`."""

    cap: float
    spent: float = 0.0
    reserved: float = 0.0


class PrivacyLedger:
    """The budget book: the owner's ``B`` and every analyst's account in it.

    One lock guards all of the book's state: the total spent and reserved,
    each named analyst's :class:`Account` (its cap, spent and reserved), the
    active reservations, and the one transcript, in commit order across
    every analyst.  Theorem 6.2 is stated over exactly that transcript.
    Every operation takes an optional ``analyst``: a named one must also fit
    that analyst's cap, and its transcript entries are labelled
    ``analyst:query``.  The standalone engine uses the book unlabelled, as a
    single account whose cap is ``B``; the service hands each analyst a
    :class:`~repro.service.budget.SessionLedger` handle on its account.

    :param budget: the owner-specified total privacy budget ``B``.
    :param journal: an optional
        :class:`~repro.reliability.journal.LedgerJournal`.  When set, every
        commit and denial is durably appended to the write-ahead log before
        :meth:`charge` / :meth:`deny` return, so before an answer can reach
        an analyst; a crashed-and-restarted process (after
        :meth:`adopt_recovery`) can never under-count spend.  The append
        runs with no book lock held (``docs/reliability.md``).
    """

    def __init__(self, budget: float, *, journal: "LedgerJournal | None" = None) -> None:
        if budget <= 0:
            raise ApexError(f"the privacy budget must be positive, got {budget}")
        self._budget = float(budget)
        self._spent = 0.0
        self._reserved = 0.0
        self._transcript = Transcript()
        self._lock = threading.Lock()
        self._journal = journal
        self._accounts: dict[str, Account] = {}
        #: Active (unconsumed) reservations, keyed by object identity; the
        #: source of truth for the "no orphaned reservations" invariant.
        self._active_reservations: dict[int, BudgetReservation] = {}
        self._commits = 0

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
        return self.headroom()

    @property
    def transcript(self) -> Transcript:
        """Every analyst's entries, in commit order (Theorem 6.2 input)."""
        return self._transcript

    @property
    def exhausted(self) -> bool:
        """True when no further positive-epsilon query can possibly be admitted."""
        return self.remaining <= _TOLERANCE

    @property
    def journal(self) -> "LedgerJournal | None":
        """The attached write-ahead journal, if any."""
        return self._journal

    def headroom(self, analyst: str | None = None) -> float:
        """Admission headroom of ``B``, and of ``analyst``'s cap when named."""
        with self._lock:
            return self._headroom_locked(analyst)

    def _headroom_locked(self, analyst: str | None) -> float:
        headroom = self._budget - self._spent - self._reserved
        if analyst is not None:
            account = self._accounts[analyst]
            headroom = min(headroom, account.cap - account.spent - account.reserved)
        return max(headroom, 0.0)

    # -- accounts -----------------------------------------------------------------

    def open_account(self, analyst: str, cap: float) -> None:
        """Give ``analyst`` an account capped at ``cap`` (its share of ``B``).

        Reopening an account keeps its spend and sets the new cap.  That is
        how a restarted service keeps a fixed share: :meth:`adopt_recovery`
        restores each analyst's journaled spend, and registering the analyst
        again caps it.  An account already past a smaller new cap is
        admitted nothing.
        """
        if cap <= 0:
            raise ApexError(f"an account cap must be positive, got {cap}")
        with self._lock:
            self._accounts.setdefault(analyst, Account(float(cap))).cap = float(cap)

    def account(self, analyst: str) -> Account:
        """A copy of ``analyst``'s account, read under the book lock."""
        with self._lock:
            return replace(self._accounts[analyst])

    def transcript_of(self, analyst: str) -> Transcript:
        """A snapshot of ``analyst``'s entries in the merged transcript."""
        return Transcript(e for e in self._transcript if e.analyst == analyst)

    # -- durability ---------------------------------------------------------------

    def adopt_recovery(self, recovery: "JournalRecovery") -> int:
        """Apply a journal replay to this (pristine) ledger.

        Rebuilds the crashed process's transcript in journal order: each
        ``commit`` an answered entry at its exact ``eps_spent``, each
        ``deny`` a free denial; any other op is skipped.  Charges the total
        as already-spent budget, and each analyst-labelled commit to that
        analyst's account.  Must be called before any new activity; returns
        the number of recovered entries.  ``docs/reliability.md`` argues why
        the result satisfies Definition 6.1.

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
            for record in recovery.records:
                if record.get("op") not in ("commit", "deny"):
                    continue
                denied = record["op"] == "deny"
                eps_spent = 0.0 if denied else float(record.get("eps_spent", 0.0))
                self._record_locked(
                    str(record.get("query", "unknown")),
                    str(record.get("kind", "unknown")),
                    AccuracySpec(
                        alpha=float(record.get("alpha", 1.0)),
                        beta=float(record.get("beta", 5e-4)),
                    ),
                    record.get("analyst") or None,
                    denied=denied,
                    mechanism=None if denied else record.get("mechanism"),
                    epsilon_upper=0.0 if denied else float(record.get("eps_upper", eps_spent)),
                    epsilon_spent=eps_spent,
                    answer=None,  # answers are not journaled, only losses
                )
            return len(self._transcript)

    def assert_invariants(self) -> None:
        """Raise :class:`LedgerInvariantError` unless the books balance.

        Checks, atomically: ``spent + reserved <= B``; the reserved totals
        of the book and of each account equal the sums of their active
        reservations (no orphaned or double-counted reservation); and the
        transcript's committed epsilon equals ``spent``, in total and per
        account.  A per-account cap is not checked: a recovered account may
        already be past a smaller new cap.  Cheap (no IO); called by the
        service validator, the reliability benchmarks and the history
        exerciser after every step.
        """
        with self._lock:
            slack = 1e-9 + _TOLERANCE * (len(self._transcript) + 1)
            if self._spent + self._reserved > self._budget + slack:
                raise LedgerInvariantError(
                    f"spent ({self._spent:.6g}) + reserved ({self._reserved:.6g}) "
                    f"exceeds the budget {self._budget:.6g}"
                )
            # [reserved, held by active reservations, spent, committed in the
            # transcript] of the book (keyed None) and of each account.
            books: dict[str | None, list[float]] = {
                None: [self._reserved, 0.0, self._spent, 0.0]
            }
            for name, account in self._accounts.items():
                books[name] = [account.reserved, 0.0, account.spent, 0.0]
            for reservation in self._active_reservations.values():
                for name in {None, reservation.analyst}:
                    books.setdefault(name, [0.0] * 4)[1] += reservation.epsilon_upper
            for entry in self._transcript:
                for name in {None, entry.analyst}:
                    books.setdefault(name, [0.0] * 4)[3] += entry.epsilon_spent
            for name, (reserved, held, spent, committed) in books.items():
                owner = "the book" if name is None else f"analyst {name!r}"
                if abs(held - reserved) > slack:
                    raise LedgerInvariantError(
                        f"reserved ({reserved:.6g}) of {owner} disagrees with "
                        f"its active reservations ({held:.6g}) -- an orphaned "
                        "or double-counted reservation"
                    )
                if abs(committed - spent) > slack:
                    raise LedgerInvariantError(
                        f"transcript epsilon ({committed:.6g}) disagrees with "
                        f"the spent ({spent:.6g}) of {owner}"
                    )

    def stats(self) -> dict[str, Any]:
        """A consistent snapshot of the book's counters, under one lock hold.

        Every commit is a batch of one, so ``commit_batch_sizes`` is ``[1]``
        once anything has committed (``benchmarks/e2e`` reads its max).
        """
        with self._lock:
            return {
                "budget": self._budget,
                "spent": self._spent,
                "reserved": self._reserved,
                "remaining": self._headroom_locked(None),
                "commits": self._commits,
                "commit_batch_sizes": [1] if self._commits else [],
            }

    # -- admission and charging ------------------------------------------------------

    def can_afford(self, epsilon_upper: float) -> bool:
        """Whether a mechanism with the given worst-case loss may be run."""
        if epsilon_upper <= 0:
            raise ApexError("epsilon_upper must be positive")
        return epsilon_upper <= self.remaining + _TOLERANCE

    def reserve(
        self, epsilon_upper: float, analyst: str | None = None
    ) -> BudgetReservation | None:
        """Atomically admit and set aside ``epsilon_upper``; ``None`` on refusal.

        This is phase one of the two-phase charge used by concurrent
        exploration: the check against the headroom of ``B`` (and of
        ``analyst``'s cap) and the reservation happen under one lock, so two
        in-flight queries can never both be admitted against the same
        headroom.  Nothing is journaled: a reservation lost in a crash
        released no answer.
        """
        if epsilon_upper <= 0:
            raise ApexError("epsilon_upper must be positive")
        with self._lock:
            if epsilon_upper > self._headroom_locked(analyst) + _TOLERANCE:
                return None
            reservation = BudgetReservation(float(epsilon_upper), analyst)
            self._reserved += epsilon_upper
            if analyst is not None:
                self._accounts[analyst].reserved += epsilon_upper
            self._active_reservations[id(reservation)] = reservation
            return reservation

    def release(self, reservation: BudgetReservation) -> None:
        """Return an unused reservation to the book (mechanism did not run)."""
        with self._lock:
            if reservation.active:
                reservation.active = False
                self._unreserve_locked(reservation)

    def _unreserve_locked(self, reservation: BudgetReservation) -> None:
        self._active_reservations.pop(id(reservation), None)
        self._reserved = max(self._reserved - reservation.epsilon_upper, 0.0)
        if reservation.analyst is not None:
            account = self._accounts[reservation.analyst]
            account.reserved = max(account.reserved - reservation.epsilon_upper, 0.0)

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
        analyst: str | None = None,
    ) -> TranscriptEntry:
        """Record an answered query and deduct its actual privacy loss.

        With a ``reservation`` (whose analyst the charge goes to) the
        admission already happened in :meth:`reserve`.  Three steps follow:

        1. validate the loss and claim the reservation, under the lock;
        2. append the commit to the journal, with no book lock held;
        3. consume the reservation, keep the actual loss as spent and append
           the transcript entry, under the lock.

        The reservation holds its headroom from (1) to (3), so the journal
        order is itself a Definition 6.1 transcript.  A failure in (1) or (2)
        applies nothing and leaves the reservation active for the caller's
        :meth:`release`.  Without a reservation the charge reserves for
        ``analyst`` first and raises :class:`BudgetExceededError` when that
        is refused.
        """
        if epsilon_spent < 0 or epsilon_spent > epsilon_upper + _TOLERANCE:
            raise ApexError(
                f"actual loss {epsilon_spent} must lie in [0, {epsilon_upper}]"
            )
        if reservation is None:
            held = self.reserve(epsilon_upper, analyst)
            if held is None:
                remaining = self.headroom(analyst)
                raise BudgetExceededError(
                    f"admitting {mechanism} (worst case {epsilon_upper:.6g}) would "
                    f"exceed the remaining budget {remaining:.6g}",
                    required=epsilon_upper,
                    remaining=remaining,
                )
            try:
                return self.charge(
                    query_name=query_name,
                    query_kind=query_kind,
                    accuracy=accuracy,
                    mechanism=mechanism,
                    epsilon_upper=epsilon_upper,
                    epsilon_spent=epsilon_spent,
                    answer=answer,
                    reservation=held,
                )
            except BaseException:
                self.release(held)
                raise
        with self._lock:
            if not reservation.active:
                raise ApexError("reservation was already committed or released")
            if epsilon_upper > reservation.epsilon_upper + _TOLERANCE:
                raise ApexError(
                    f"cannot charge epsilon_upper={epsilon_upper} against a "
                    f"reservation of {reservation.epsilon_upper}"
                )
            # Claimed: a racing charge or release of the same reservation
            # now refuses, while its headroom stays held.
            reservation.active = False
        analyst = reservation.analyst
        # Write-ahead: the commit is durable before spent/transcript mutate
        # and before the caller can release the answer.  A crash before the
        # append charges nothing (no answer left the process); a crash after
        # it recovers the exact loss.
        try:
            fail_point("ledger.charge.before_journal")
            if self._journal is not None:
                self._journal.append(
                    "commit",
                    eps_upper=float(epsilon_upper),
                    eps_spent=float(epsilon_spent),
                    mechanism=mechanism,
                    **_record_fields(query_name, query_kind, accuracy, analyst),
                )
                fail_point("ledger.charge.after_journal")
        except BaseException:
            with self._lock:
                reservation.active = True
            raise
        with self._lock:
            self._unreserve_locked(reservation)
            self._commits += 1
            return self._record_locked(
                query_name,
                query_kind,
                accuracy,
                analyst,
                denied=False,
                mechanism=mechanism,
                epsilon_upper=epsilon_upper,
                epsilon_spent=epsilon_spent,
                answer=answer,
            )

    def deny(
        self,
        *,
        query_name: str,
        query_kind: str,
        accuracy: AccuracySpec,
        analyst: str | None = None,
    ) -> TranscriptEntry:
        """Record a denied query (costs no privacy)."""
        if self._journal is not None:
            self._journal.append(
                "deny", **_record_fields(query_name, query_kind, accuracy, analyst)
            )
        with self._lock:
            return self._record_locked(
                query_name,
                query_kind,
                accuracy,
                analyst,
                denied=True,
                mechanism=None,
                epsilon_upper=0.0,
                epsilon_spent=0.0,
                answer=None,
            )

    def _record_locked(
        self,
        query_name: str,
        query_kind: str,
        accuracy: AccuracySpec,
        analyst: str | None,
        *,
        denied: bool,
        mechanism: str | None,
        epsilon_upper: float,
        epsilon_spent: float,
        answer: Any,
    ) -> TranscriptEntry:
        """Spend ``epsilon_spent`` and append its transcript entry (lock held)."""
        before = self._spent
        self._spent += epsilon_spent
        if analyst is not None:
            if analyst not in self._accounts:  # recovered before it re-registers
                self._accounts[analyst] = Account(self._budget)
            self._accounts[analyst].spent += epsilon_spent
        entry = TranscriptEntry(
            index=len(self._transcript),
            query_name=query_name if analyst is None else f"{analyst}:{query_name}",
            query_kind=query_kind,
            accuracy=accuracy,
            mechanism=mechanism,
            epsilon_upper=epsilon_upper,
            epsilon_spent=epsilon_spent,
            denied=denied,
            answer=answer,
            budget_before=before,
            budget_after=self._spent,
            analyst=analyst,
        )
        self._transcript.append(entry)
        return entry


def _record_fields(
    query_name: str, query_kind: str, accuracy: AccuracySpec, analyst: str | None
) -> dict[str, Any]:
    """The journal fields of every record; ``analyst`` only when labelled."""
    fields: dict[str, Any] = {
        "query": query_name,
        "kind": query_kind,
        "alpha": float(accuracy.alpha),
        "beta": float(accuracy.beta),
    }
    if analyst is not None:
        fields["analyst"] = analyst
    return fields
