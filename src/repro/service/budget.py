"""Per-analyst ledger handles and the policies that size their shares.

A production APEx deployment serves many analysts over one sensitive table,
but the privacy guarantee is stated for the *owner's* total budget ``B``: no
matter how the analysts interleave, the composed privacy loss of everything
the service ever answers must stay within ``B``.  The service keeps one
budget book, a :class:`~repro.core.accounting.PrivacyLedger` over ``B`` that
holds every analyst's account under one lock and writes the one merged
transcript the Theorem 6.2 check runs over.  Each analyst's engine gets a
:class:`SessionLedger`: a handle on the analyst's account that owns no
state.  A reservation must clear the analyst's share *and* ``B``, in one
check under the book's lock.

Two minting policies (:class:`BudgetPolicy`) are provided:

* ``FIXED_SHARE`` -- each of ``max_analysts`` analysts gets an equal
  ``B / max_analysts`` share.  Starvation-free: one greedy analyst can never
  consume another's share.
* ``FIRST_COME`` -- every analyst may draw on the full pool; admission is
  first come, first served.  Maximises utilisation at the price of fairness.

Either way every admission is checked against ``B`` too, so the safety
property (total charged epsilon ``<= B``) never depends on the policy
arithmetic.
"""

from __future__ import annotations

import enum

from repro.core.accounting import (
    BudgetReservation,
    PrivacyLedger,
    Transcript,
    TranscriptEntry,
)

__all__ = ["BudgetPolicy", "SessionLedger"]

_TOLERANCE = 1e-12


class BudgetPolicy(enum.Enum):
    """How :class:`repro.service.ExplorationService` splits ``B`` across analysts.

    :attr:`FIXED_SHARE` mints each analyst an equal ``B / max_analysts``
    share; :attr:`FIRST_COME` lets every analyst draw on the whole pool.
    """

    FIXED_SHARE = "fixed-share"
    FIRST_COME = "first-come"


class SessionLedger:
    """One analyst's handle ``(book, analyst)`` on the service's budget book.

    It owns no budget state.  Every call goes to the
    :class:`~repro.core.accounting.PrivacyLedger` with the analyst's label,
    so the engine sees the ledger interface it expects while the book keeps
    the analyst's cap, spend and reservations beside everyone else's.

    :param book: the service's budget book.
    :param share: the analyst's cap (``B/N`` for fixed-share policies, the
        full ``B`` for first-come).  Opening the account again, as a
        restarted service does, keeps its recovered spend.
    :param analyst: the account's label, stamped on transcript entries and
        journal records.
    """

    def __init__(self, book: PrivacyLedger, share: float, analyst: str) -> None:
        self._book = book
        self._analyst = str(analyst)
        book.open_account(self._analyst, share)

    @property
    def analyst(self) -> str:
        return self._analyst

    @property
    def budget(self) -> float:
        """The analyst's cap."""
        return self._book.account(self._analyst).cap

    @property
    def spent(self) -> float:
        return self._book.account(self._analyst).spent

    @property
    def reserved(self) -> float:
        return self._book.account(self._analyst).reserved

    @property
    def remaining(self) -> float:
        """Headroom: the tighter of the analyst's share and ``B``."""
        return self._book.headroom(self._analyst)

    @property
    def exhausted(self) -> bool:
        return self.remaining <= _TOLERANCE

    @property
    def transcript(self) -> Transcript:
        """A snapshot of the analyst's entries in the merged transcript."""
        return self._book.transcript_of(self._analyst)

    def reserve(self, epsilon_upper: float) -> BudgetReservation | None:
        return self._book.reserve(epsilon_upper, self._analyst)

    def release(self, reservation: BudgetReservation) -> None:
        self._book.release(reservation)

    def charge(self, **kwargs) -> TranscriptEntry:
        return self._book.charge(analyst=self._analyst, **kwargs)

    def deny(self, **kwargs) -> TranscriptEntry:
        return self._book.deny(analyst=self._analyst, **kwargs)
