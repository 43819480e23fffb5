"""Shared budget pool and per-analyst ledger minting policies.

A production APEx deployment serves many analysts over one sensitive table,
but the privacy guarantee is stated for the *owner's* total budget ``B``: no
matter how the analysts interleave, the composed privacy loss of everything
the service ever answers must stay within ``B``.  Two layers enforce that:

* :class:`SharedBudgetPool` -- the single source of truth for ``B``.  Every
  admission decision reserves worst-case loss from the pool under one lock
  (the pool-wide invariant ``spent + reserved <= B`` holds at every instant),
  and every commit appends the resulting
  :class:`~repro.core.accounting.TranscriptEntry` to a *merged transcript* in
  commit order, which is what the Theorem 6.2 validity check runs over.
* :class:`SessionLedger` -- the :class:`~repro.core.accounting.PrivacyLedger`
  handed to each analyst's engine.  It enforces the analyst's own share *and*
  the pool jointly: a reservation must clear both, atomically.

Two minting policies (:class:`BudgetPolicy`) are provided:

* ``FIXED_SHARE`` -- each of ``max_analysts`` analysts gets an equal
  ``B / max_analysts`` share.  Starvation-free: one greedy analyst can never
  consume another's share.
* ``FIRST_COME`` -- every analyst may draw on the full pool; admission is
  first come, first served.  Maximises utilisation at the price of fairness.

Either way the pool is authoritative, so the safety property (total charged
epsilon ``<= B``) never depends on the policy arithmetic.
"""

from __future__ import annotations

import enum
import threading
from typing import TYPE_CHECKING, Any

from repro.core.accounting import (
    BudgetReservation,
    PrivacyLedger,
    Transcript,
    TranscriptEntry,
    _recovery_entries,
)
from repro.core.exceptions import ApexError, LedgerInvariantError
from repro.reliability.faults import fail_point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.reliability.journal import JournalRecovery, LedgerJournal

__all__ = ["BudgetPolicy", "SharedBudgetPool", "SessionLedger"]

_TOLERANCE = 1e-12


class BudgetPolicy(enum.Enum):
    """How :class:`repro.service.ExplorationService` splits ``B`` across analysts.

    :attr:`FIXED_SHARE` mints each analyst an equal ``B / max_analysts``
    share; :attr:`FIRST_COME` lets every analyst draw on the whole pool.
    """

    FIXED_SHARE = "fixed-share"
    FIRST_COME = "first-come"


class SharedBudgetPool:
    """The owner's total budget ``B``, shared by every analyst session.

    All mutation happens under one internal lock, maintaining the invariant
    ``spent + reserved <= budget``.  The pool also owns the *merged
    transcript*: every entry committed (or denial recorded) by any
    :class:`SessionLedger` is appended here in commit order with a fresh
    global index, so ``pool.merged_transcript.is_valid(pool.budget)`` is the
    paper's Theorem 6.2 check over the whole multi-analyst interaction.

    :param budget: the owner-specified total budget ``B``.
    """

    def __init__(self, budget: float) -> None:
        if budget <= 0:
            raise ApexError(f"the shared budget must be positive, got {budget}")
        self._budget = float(budget)
        self._spent = 0.0
        self._reserved = 0.0
        self._lock = threading.RLock()
        self._merged = Transcript()
        self._commits = 0

    # -- accessors ----------------------------------------------------------------

    @property
    def budget(self) -> float:
        """The owner's total budget ``B``."""
        return self._budget

    @property
    def spent(self) -> float:
        """Actual privacy loss committed across every analyst."""
        with self._lock:
            return self._spent

    @property
    def reserved(self) -> float:
        """Worst-case loss currently reserved by in-flight queries."""
        with self._lock:
            return self._reserved

    @property
    def remaining(self) -> float:
        """Headroom available for new admissions (excludes reservations)."""
        with self._lock:
            return max(self._budget - self._spent - self._reserved, 0.0)

    @property
    def merged_transcript(self) -> Transcript:
        """Cross-analyst transcript in commit order (Theorem 6.2 input).

        Like every accessor on the pool, the read happens under the pool
        lock; the returned :class:`~repro.core.accounting.Transcript` is
        itself internally locked, so iterating it while other analysts keep
        committing is safe.
        """
        with self._lock:
            return self._merged

    # -- reservation protocol -----------------------------------------------------

    def try_reserve(self, epsilon_upper: float) -> bool:
        """Atomically set ``epsilon_upper`` aside; ``False`` when it cannot fit."""
        if epsilon_upper <= 0:
            raise ApexError("epsilon_upper must be positive")
        with self._lock:
            if epsilon_upper > self._budget - self._spent - self._reserved + _TOLERANCE:
                return False
            self._reserved += epsilon_upper
            return True

    def release(self, epsilon_upper: float) -> None:
        """Return an unused reservation to the pool.

        Releasing more than is currently reserved raises
        :class:`~repro.core.exceptions.ApexError`: an over-release means a
        reservation was returned twice (or never taken), and silently
        clamping at zero would let the accounting bug masquerade as spare
        headroom.
        """
        with self._lock:
            self._consume_reserved_locked(epsilon_upper, "release")

    def commit(
        self, epsilon_upper: float, entry: TranscriptEntry, analyst: str
    ) -> TranscriptEntry:
        """Convert a reservation into actual spend and record the entry.

        The spend and the merged-transcript append happen under one lock
        acquisition, so the merged transcript's order *is* the commit order
        and its running epsilon prefix sums equal the pool's ``spent`` at
        each commit -- the two facts the Theorem 6.2 validity argument needs.
        Committing more than is reserved raises, like :meth:`release`.
        """
        # Simulated crash/IO fault: a session's share-level commit record is
        # already in the journal, so recovery replays this commit exactly;
        # the pool is still untouched and no caller has been acked.
        fail_point("pool.commit")
        with self._lock:
            self._consume_reserved_locked(epsilon_upper, "commit")
            before = self._spent
            self._spent += entry.epsilon_spent
            self._commits += 1
            return self._record_locked(entry, analyst, before)

    def _consume_reserved_locked(self, epsilon_upper: float, action: str) -> None:
        """Subtract a reservation, refusing to go below zero (lock held)."""
        if epsilon_upper > self._reserved + _TOLERANCE:
            raise ApexError(
                f"cannot {action} {epsilon_upper:.6g}: only {self._reserved:.6g} "
                "is reserved -- a reservation was double-released or never taken"
            )
        self._reserved = max(self._reserved - epsilon_upper, 0.0)

    def record_denial(self, entry: TranscriptEntry, analyst: str) -> TranscriptEntry:
        """Append a denial to the merged transcript (no budget movement)."""
        with self._lock:
            return self._record_locked(entry, analyst, self._spent)

    def _record_locked(
        self, entry: TranscriptEntry, analyst: str, budget_before: float
    ) -> TranscriptEntry:
        """Append ``entry`` under the pool lock with a fresh global index.

        The analyst's identity is prefixed onto the query name so the merged
        transcript stays self-describing; the per-analyst entry is not
        modified.
        """
        merged = TranscriptEntry(
            index=len(self._merged),
            query_name=f"{analyst}:{entry.query_name}",
            query_kind=entry.query_kind,
            accuracy=entry.accuracy,
            mechanism=entry.mechanism,
            epsilon_upper=entry.epsilon_upper,
            epsilon_spent=entry.epsilon_spent,
            denied=entry.denied,
            answer=entry.answer,
            budget_before=budget_before,
            budget_after=self._spent,
        )
        self._merged.append(merged)
        return merged

    def stats(self) -> dict[str, Any]:
        """A consistent snapshot of the pool counters, under one lock hold.

        Every commit is a batch of one, so ``commit_batch_sizes`` is ``[1]``
        once anything has committed (``benchmarks/e2e`` reads its max).
        """
        with self._lock:
            return {
                "budget": self._budget,
                "spent": self._spent,
                "reserved": self._reserved,
                "remaining": max(self._budget - self._spent - self._reserved, 0.0),
                "commits": self._commits,
                "commit_batch_sizes": [1] if self._commits else [],
            }

    # -- durability ---------------------------------------------------------------

    def adopt_recovery(self, recovery: "JournalRecovery") -> int:
        """Seed the pool from a journal replay (crash recovery on startup).

        Reconstructs the crashed service's merged transcript -- every
        journaled commit at its exact loss, plus the denials -- and charges
        the total against the pool, so the restarted service's admission
        control starts from everything an analyst may have seen.
        Must run before any session activity; returns the number of
        recovered entries.  See
        :meth:`repro.core.accounting.PrivacyLedger.adopt_recovery` for the
        error contract (non-pristine pool, recovered spend above ``B``).
        """
        with self._lock:
            if self._spent or self._reserved or len(self._merged):
                raise ApexError(
                    "adopt_recovery requires a pristine pool; recover before "
                    "any session activity"
                )
            if recovery.spent > self._budget + _TOLERANCE:
                raise ApexError(
                    f"the journal records {recovery.spent:.6g} spent but the "
                    f"pool budget is only {self._budget:.6g}; refusing to "
                    "restart with less budget than was already consumed"
                )
            entries = _recovery_entries(recovery)
            for entry in entries:
                self._merged.append(entry)
            self._spent = recovery.spent
            return len(entries)

    def assert_invariants(self) -> None:
        """Raise :class:`LedgerInvariantError` unless the pool books balance.

        Checks ``spent + reserved <= B`` and that the merged transcript's
        committed epsilon equals the pool's ``spent`` (every commit appends
        its entry under the same lock acquisition, so any disagreement is
        an accounting bug).
        """
        with self._lock:
            slack = 1e-9 + _TOLERANCE * (len(self._merged) + 1)
            if self._spent + self._reserved > self._budget + slack:
                raise LedgerInvariantError(
                    f"pool spent ({self._spent:.6g}) + reserved "
                    f"({self._reserved:.6g}) exceeds the budget {self._budget:.6g}"
                )
            if self._reserved < -slack:
                raise LedgerInvariantError(
                    f"pool reserved is negative: {self._reserved:.6g}"
                )
            committed = self._merged.total_epsilon()
            if abs(committed - self._spent) > slack:
                raise LedgerInvariantError(
                    f"merged transcript epsilon ({committed:.6g}) disagrees "
                    f"with pool spent ({self._spent:.6g})"
                )


class SessionLedger(PrivacyLedger):
    """A per-analyst ledger that draws on a :class:`SharedBudgetPool`.

    The ledger keeps the analyst's own transcript and share accounting (the
    inherited :class:`~repro.core.accounting.PrivacyLedger` state, with
    ``budget`` set to the analyst's share cap) and mirrors every reservation,
    commit, release and denial into the pool.  A reservation succeeds only
    when it fits *both* the analyst's share and the pool; the two checks are
    performed share-first with rollback, so no interleaving can overdraw
    either.

    :param pool: the shared pool this ledger draws on.
    :param share: the analyst's own cap (``B/N`` for fixed-share policies,
        the full ``B`` for first-come).
    :param analyst: identity used to label merged-transcript entries.
    :param journal: the service's shared
        :class:`~repro.reliability.journal.LedgerJournal`, when the service
        is journaled.  All session ledgers append to the one journal (each
        record labelled with the analyst); recovery is applied pool-wide by
        :meth:`SharedBudgetPool.adopt_recovery`, never per session.
    """

    def __init__(
        self,
        pool: SharedBudgetPool,
        share: float,
        analyst: str,
        *,
        journal: "LedgerJournal | None" = None,
    ) -> None:
        super().__init__(share, journal=journal, journal_label=str(analyst))
        self._pool = pool
        self._analyst = str(analyst)

    @property
    def pool(self) -> SharedBudgetPool:
        return self._pool

    @property
    def analyst(self) -> str:
        return self._analyst

    @property
    def remaining(self) -> float:
        """Headroom: the tighter of the analyst's share and the pool."""
        return min(super().remaining, self._pool.remaining)

    def reserve(self, epsilon_upper: float) -> BudgetReservation | None:
        """Reserve from the analyst's share, then from the pool (with rollback)."""
        reservation = super().reserve(epsilon_upper)
        if reservation is None:
            return None
        try:
            pool_admitted = self._pool.try_reserve(epsilon_upper)
        except BaseException:
            # Pool admission itself failed (e.g. an armed failpoint or a
            # poisoned pool): the share-level reservation must not outlive
            # this call, or the analyst's headroom leaks (found by APX001).
            super().release(reservation)
            raise
        if not pool_admitted:
            super().release(reservation)
            return None
        return reservation

    def release(self, reservation: BudgetReservation) -> None:
        """Release both the share-level and the pool-level reservation."""
        if not reservation.active:
            return
        super().release(reservation)
        try:
            self._pool.release(reservation.epsilon_upper)
        except ApexError as exc:
            # The share-level release went through but the pool's did not:
            # the two books now disagree, which is an accounting bug, never
            # analyst misuse -- surface it as the invariant violation it is
            # instead of leaking reserved pool headroom silently.
            raise LedgerInvariantError(
                f"pool release failed after the share release for analyst "
                f"{self._analyst!r}: {exc}"
            ) from exc

    def charge(self, **kwargs) -> TranscriptEntry:
        """Commit an answered query to the analyst's transcript and the pool.

        Requires a reservation (concurrent service use always has one): the
        unreserved fast path of the base ledger would bypass the pool's
        admission control.  ``super().charge`` validates the loss *before*
        consuming the reservation, so a rejected charge (mechanism reported
        an out-of-range loss) leaves the reservation active at both levels
        and the caller's ``release`` returns the headroom to both books.
        """
        reservation = kwargs.get("reservation")
        if reservation is None:
            raise ApexError(
                "SessionLedger.charge requires a reservation; use "
                "PrivacyLedger directly for single-threaded accounting"
            )
        epsilon_upper = float(reservation.epsilon_upper)
        entry = super().charge(**kwargs)
        try:
            self._pool.commit(epsilon_upper, entry, self._analyst)
        except ApexError as exc:
            # The analyst's share-level charge committed but the pool's
            # mirror did not (its reservation was double-consumed or never
            # mirrored).  The share transcript cannot be un-appended, so the
            # books are inconsistent: raise the loudest possible error
            # rather than letting it masquerade as a failed request.
            raise LedgerInvariantError(
                f"pool commit failed after the share-level charge for "
                f"analyst {self._analyst!r}: {exc}"
            ) from exc
        return entry

    def deny(self, **kwargs) -> TranscriptEntry:
        """Record a denial in the analyst's transcript and the merged one."""
        entry = super().deny(**kwargs)
        self._pool.record_denial(entry, self._analyst)
        return entry
