"""Tests for the privacy ledger and transcript."""

import pytest

from repro.core.accounting import PrivacyLedger, Transcript, TranscriptEntry
from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import ApexError, BudgetExceededError


ACC = AccuracySpec(alpha=10)


def _charge(ledger, upper, spent, name="q", reservation=None):
    return ledger.charge(
        query_name=name,
        query_kind="WCQ",
        accuracy=ACC,
        mechanism="LM",
        epsilon_upper=upper,
        epsilon_spent=spent,
        answer=[1, 2, 3],
        reservation=reservation,
    )


class TestLedger:
    def test_initial_state(self):
        ledger = PrivacyLedger(1.0)
        assert ledger.budget == 1.0
        assert ledger.spent == 0.0
        assert ledger.remaining == 1.0
        assert not ledger.exhausted

    def test_invalid_budget(self):
        with pytest.raises(ApexError):
            PrivacyLedger(0)

    def test_charge_updates_spent(self):
        ledger = PrivacyLedger(1.0)
        _charge(ledger, 0.3, 0.3)
        assert ledger.spent == pytest.approx(0.3)
        assert ledger.remaining == pytest.approx(0.7)

    def test_charge_actual_less_than_upper(self):
        """Data-dependent mechanisms charge the actual loss, not the bound."""
        ledger = PrivacyLedger(1.0)
        _charge(ledger, 0.5, 0.1)
        assert ledger.spent == pytest.approx(0.1)

    def test_admission_uses_worst_case(self):
        ledger = PrivacyLedger(1.0)
        _charge(ledger, 0.5, 0.1)
        assert ledger.can_afford(0.9)
        assert not ledger.can_afford(0.95)

    def test_charge_beyond_budget_raises(self):
        ledger = PrivacyLedger(1.0)
        _charge(ledger, 0.8, 0.8)
        with pytest.raises(BudgetExceededError):
            _charge(ledger, 0.5, 0.5)

    def test_spent_above_upper_rejected(self):
        ledger = PrivacyLedger(1.0)
        with pytest.raises(ApexError):
            _charge(ledger, 0.1, 0.2)

    def test_can_afford_validates(self):
        ledger = PrivacyLedger(1.0)
        with pytest.raises(ApexError):
            ledger.can_afford(0)

    def test_exhausted(self):
        ledger = PrivacyLedger(0.5)
        _charge(ledger, 0.5, 0.5)
        assert ledger.exhausted

    def test_deny_costs_nothing(self):
        ledger = PrivacyLedger(1.0)
        entry = ledger.deny(query_name="q", query_kind="WCQ", accuracy=ACC)
        assert entry.denied
        assert ledger.spent == 0.0

    def test_exact_budget_fit(self):
        ledger = PrivacyLedger(1.0)
        _charge(ledger, 1.0, 1.0)
        assert ledger.remaining == pytest.approx(0.0)


class TestTranscript:
    def test_entries_recorded_in_order(self):
        ledger = PrivacyLedger(2.0)
        _charge(ledger, 0.2, 0.2, name="first")
        ledger.deny(query_name="second", query_kind="ICQ", accuracy=ACC)
        _charge(ledger, 0.3, 0.1, name="third")
        transcript = ledger.transcript
        assert len(transcript) == 3
        assert [entry.query_name for entry in transcript] == ["first", "second", "third"]
        assert transcript[1].denied

    def test_answered_and_denied_views(self):
        ledger = PrivacyLedger(2.0)
        _charge(ledger, 0.2, 0.2)
        ledger.deny(query_name="denied", query_kind="ICQ", accuracy=ACC)
        assert len(ledger.transcript.answered()) == 1
        assert len(ledger.transcript.denied()) == 1

    def test_total_epsilon(self):
        ledger = PrivacyLedger(2.0)
        _charge(ledger, 0.2, 0.2)
        _charge(ledger, 0.5, 0.3)
        assert ledger.transcript.total_epsilon() == pytest.approx(0.5)

    def test_budget_running_totals(self):
        ledger = PrivacyLedger(2.0)
        entry1 = _charge(ledger, 0.2, 0.2)
        entry2 = _charge(ledger, 0.4, 0.4)
        assert entry1.budget_before == 0.0
        assert entry1.budget_after == pytest.approx(0.2)
        assert entry2.budget_before == pytest.approx(0.2)
        assert entry2.budget_after == pytest.approx(0.6)

    def test_validity_check(self):
        ledger = PrivacyLedger(1.0)
        _charge(ledger, 0.4, 0.4)
        _charge(ledger, 0.4, 0.2)
        ledger.deny(query_name="q", query_kind="WCQ", accuracy=ACC)
        assert ledger.transcript.is_valid(1.0)
        assert not ledger.transcript.is_valid(0.5)

    def test_invalid_handcrafted_transcript(self):
        transcript = Transcript()
        transcript.append(
            TranscriptEntry(
                index=0, query_name="q", query_kind="WCQ", accuracy=ACC,
                mechanism="LM", epsilon_upper=0.5, epsilon_spent=0.9, denied=False,
            )
        )
        assert not transcript.is_valid(1.0)

    def test_summary(self):
        ledger = PrivacyLedger(2.0)
        _charge(ledger, 0.2, 0.2)
        ledger.deny(query_name="q", query_kind="WCQ", accuracy=ACC)
        summary = ledger.transcript.summary()
        assert summary["interactions"] == 2
        assert summary["answered"] == 1
        assert summary["denied"] == 1
        assert summary["mechanisms"] == ["LM"]


class TestReserveJournalFailure:
    """A journal failure on a reservation's commit must not leak the admission.

    reserve() does no journal IO, so the first append a reservation meets is
    its ``commit`` inside charge().  When that append fails, charge() raises
    before consuming the reservation and the caller's release returns the
    headroom (the APX001 leak class: a raise between admission and commit
    must never shrink ``remaining`` for good).
    """

    def test_journal_failure_releases_the_reservation(self, tmp_path):
        from repro.core.exceptions import FaultInjected
        from repro.reliability import faults
        from repro.reliability.journal import LedgerJournal

        journal = LedgerJournal(tmp_path / "wal.jsonl")
        ledger = PrivacyLedger(1.0, journal=journal)
        with faults.armed("journal.append.before_write", "error"):
            reservation = ledger.reserve(0.4)  # admission needs no journal IO
            assert reservation is not None
            with pytest.raises(FaultInjected):
                _charge(ledger, 0.4, 0.25, reservation=reservation)
        assert reservation.active  # the failed commit consumed nothing
        ledger.release(reservation)
        assert ledger.reserved == 0.0
        assert ledger.spent == 0.0
        assert ledger.remaining == 1.0
        assert len(ledger.transcript) == 0
        ledger.assert_invariants()
        # The full budget is still admissible afterwards.
        reservation = ledger.reserve(1.0)
        assert reservation is not None
        ledger.release(reservation)
        journal.close()

    def test_recovery_after_failed_reserve_charges_nothing(self, tmp_path):
        from repro.core.exceptions import FaultInjected
        from repro.reliability import faults
        from repro.reliability.journal import LedgerJournal

        path = tmp_path / "wal.jsonl"
        journal = LedgerJournal(path)
        ledger = PrivacyLedger(1.0, journal=journal)
        reservation = ledger.reserve(0.4)
        with faults.armed("journal.append.before_write", "error"):
            with pytest.raises(FaultInjected):
                _charge(ledger, 0.4, 0.25, reservation=reservation)
        ledger.release(reservation)
        journal.close()
        # The commit never reached the journal, so replay charges nothing.
        reopened = LedgerJournal(path)
        assert reopened.recovery.empty
        recovered = PrivacyLedger(1.0, journal=reopened)
        recovered.adopt_recovery(reopened.recovery)
        assert recovered.spent == 0.0
        assert recovered.reserved == 0.0
        reopened.close()
