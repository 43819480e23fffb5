"""Journaled accounting: write-ahead ordering, recovery adoption, invariants.

Includes the exception-path audit regressions: any failure between reserve
and commit -- injected at the engine's, the ledger's and the journal's
failpoints -- must always release the reservation (no orphaned headroom), and
``assert_invariants`` must catch the books drifting.
"""

import pytest

from repro.core.accounting import PrivacyLedger
from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.core.exceptions import ApexError, FaultInjected, LedgerInvariantError
from repro.mechanisms.registry import default_registry
from repro.queries.builders import histogram_workload
from repro.queries.query import WorkloadCountingQuery
from repro.reliability import faults
from repro.reliability.journal import LedgerJournal
from repro.service.budget import SessionLedger
from tests.service.util import small_table

ACC = AccuracySpec(alpha=100.0, beta=5e-4)


def hist_query(name="hist", bins=8):
    return WorkloadCountingQuery(
        histogram_workload("amount", start=0, stop=10_000, bins=bins), name=name
    )


@pytest.fixture()
def journal(tmp_path):
    with LedgerJournal(str(tmp_path / "ledger.wal")) as j:
        yield j


def charge(ledger, reservation, name, upper, spent):
    return ledger.charge(
        query_name=name,
        query_kind="wcq",
        accuracy=ACC,
        mechanism="LM",
        epsilon_upper=upper,
        epsilon_spent=spent,
        answer=None,
        reservation=reservation,
    )


class TestWriteAheadOrdering:
    def test_reserve_then_charge_round_trips(self, tmp_path, journal):
        ledger = PrivacyLedger(1.0, journal=journal)
        reservation = ledger.reserve(0.4)
        assert journal.stats()["appended_records"] == 0
        charge(ledger, reservation, "q1", 0.4, 0.25)
        assert journal.stats()["appended_records"] == 1
        journal.close()
        recovery = LedgerJournal(journal.path).recovery
        assert recovery.spent == 0.25  # the exact commit
        (record,) = recovery.records
        assert record["op"] == "commit" and "rid" not in record

    def test_unresolved_reserve_costs_nothing(self, tmp_path, journal):
        ledger = PrivacyLedger(1.0, journal=journal)
        ledger.reserve(0.4)
        journal.close()  # the process "dies" holding the reservation
        recovery = LedgerJournal(journal.path).recovery
        assert recovery.empty  # no answer left the process: nothing owed
        assert recovery.spent == 0.0

    def test_release_journals_nothing(self, journal):
        ledger = PrivacyLedger(1.0, journal=journal)
        reservation = ledger.reserve(0.4)
        ledger.release(reservation)
        assert journal.stats()["appended_records"] == 0
        journal.close()
        assert LedgerJournal(journal.path).recovery.empty

    def test_failure_after_durable_commit_recovers_the_commit(self, journal):
        ledger = PrivacyLedger(1.0, journal=journal)
        reservation = ledger.reserve(0.4)
        with faults.armed("ledger.charge.after_journal", "error"):
            with pytest.raises(FaultInjected):
                charge(ledger, reservation, "q1", 0.4, 0.25)
        # The books never mutated, so the caller can still release ...
        assert ledger.spent == 0.0
        ledger.release(reservation)
        ledger.assert_invariants()
        journal.close()
        # ... but the commit was already durable: recovery charges the exact
        # loss of an answer nobody saw, which is the safe direction.
        recovery = LedgerJournal(journal.path).recovery
        assert recovery.spent == 0.25
        assert [r["query"] for r in recovery.committed] == ["q1"]

    def test_denials_are_journaled(self, journal):
        ledger = PrivacyLedger(1.0, journal=journal)
        ledger.deny(query_name="q", query_kind="wcq", accuracy=ACC)
        journal.close()
        recovery = LedgerJournal(journal.path).recovery
        assert len(recovery.denials) == 1
        assert recovery.spent == 0.0


class TestAdoptRecovery:
    def test_recovered_spend_seeds_ledger_and_transcript(self, journal):
        first = PrivacyLedger(1.0, journal=journal)
        charge(first, first.reserve(0.3), "q1", 0.3, 0.3)
        first.deny(query_name="q2", query_kind="wcq", accuracy=ACC)
        first.reserve(0.4)  # never answered: dies with the process
        journal.close()

        reopened = LedgerJournal(journal.path)
        ledger = PrivacyLedger(1.0)
        entries = ledger.adopt_recovery(reopened.recovery)
        assert entries == 2
        assert ledger.spent == 0.3
        assert ledger.transcript.is_valid(1.0)
        assert [(e.query_name, e.denied) for e in ledger.transcript] == [
            ("q1", False),
            ("q2", True),
        ]
        ledger.assert_invariants()

    def test_adoption_requires_pristine_ledger(self, journal):
        first = PrivacyLedger(1.0, journal=journal)
        charge(first, first.reserve(0.3), "q1", 0.3, 0.3)
        journal.close()
        recovery = LedgerJournal(journal.path).recovery
        used = PrivacyLedger(1.0)
        used.deny(query_name="q", query_kind="wcq", accuracy=ACC)
        with pytest.raises(ApexError, match="pristine"):
            used.adopt_recovery(recovery)

    def test_recovered_spend_beyond_budget_refused(self, journal):
        first = PrivacyLedger(2.0, journal=journal)
        charge(first, first.reserve(1.5), "q", 1.5, 1.5)
        journal.close()
        recovery = LedgerJournal(journal.path).recovery
        shrunk = PrivacyLedger(1.0)  # owner restarted with a smaller B
        with pytest.raises(ApexError, match="refusing to restart"):
            shrunk.adopt_recovery(recovery)

    def test_pool_adoption(self, journal):
        first = PrivacyLedger(1.0, journal=journal)
        charge(first, first.reserve(0.3), "q1", 0.3, 0.3)
        journal.close()
        pool = PrivacyLedger(1.0)
        pool.adopt_recovery(LedgerJournal(journal.path).recovery)
        assert pool.spent == pytest.approx(0.3)
        assert pool.transcript.is_valid(1.0)
        pool.assert_invariants()

    def test_interleaved_sessions_replay_in_commit_order(self, journal):
        # Alice reserves first but bob commits first.  Alice's reservation is
        # still held in the pool when her commit is appended, so the journal
        # order rebuilds a Definition 6.1-valid transcript (tight at B here).
        pool = PrivacyLedger(1.0, journal=journal)
        alice = SessionLedger(pool, 1.0, "alice")
        bob = SessionLedger(pool, 1.0, "bob")
        held = alice.reserve(0.6)
        charge(bob, bob.reserve(0.4), "qb", 0.4, 0.4)
        charge(alice, held, "qa", 0.6, 0.5)
        journal.close()
        recovery = LedgerJournal(journal.path).recovery
        assert [r["analyst"] for r in recovery.committed] == ["bob", "alice"]
        restarted = PrivacyLedger(1.0)
        assert restarted.adopt_recovery(recovery) == 2
        assert restarted.transcript.is_valid(1.0)
        assert restarted.spent == pytest.approx(0.9)
        restarted.assert_invariants()


class TestInvariants:
    def test_clean_ledger_passes(self):
        ledger = PrivacyLedger(1.0)
        reservation = ledger.reserve(0.4)
        ledger.assert_invariants()
        ledger.release(reservation)
        ledger.assert_invariants()

    def test_orphaned_reservation_detected(self):
        ledger = PrivacyLedger(1.0)
        reservation = ledger.reserve(0.4)
        # Simulate the bug the invariant exists to catch: the reservation
        # object is dropped without release/charge ever deactivating it.
        ledger._active_reservations.pop(id(reservation))
        with pytest.raises(LedgerInvariantError, match="orphaned"):
            ledger.assert_invariants()

    def test_transcript_drift_detected(self):
        ledger = PrivacyLedger(1.0)
        ledger._spent = 0.5  # books say spent, transcript says nothing
        with pytest.raises(LedgerInvariantError, match="transcript"):
            ledger.assert_invariants()


class TestExceptionPathAudit:
    """Any failure between reserve and commit must release the reservation."""

    @pytest.fixture(scope="class")
    def table(self):
        return small_table(800)

    @pytest.mark.parametrize(
        "site",
        [
            "engine.explore.after_reserve",
            "engine.explore.after_run",
            "ledger.charge.before_journal",
            "journal.append.before_write",  # the commit append itself fails
        ],
    )
    def test_injected_failure_releases_reservation(self, table, journal, site):
        ledger = PrivacyLedger(2.0, journal=journal)
        engine = APExEngine(
            table,
            registry=default_registry(mc_samples=150),
            seed=3,
            ledger=ledger,
        )
        with faults.armed(site, "error"):
            with pytest.raises(FaultInjected):
                engine.explore(hist_query(), ACC)
        assert ledger.reserved == 0.0  # nothing orphaned
        assert ledger.spent == 0.0  # nothing charged
        assert journal.stats()["appended_records"] == 0  # nothing journaled
        ledger.assert_invariants()
        # the engine is still usable afterwards
        result = engine.explore(hist_query("hist-after"), ACC)
        assert not result.denied
        assert journal.stats()["appended_records"] == 1
        ledger.assert_invariants()

    def test_session_ledger_pool_refusal_keeps_books_clean(self, journal):
        pool = PrivacyLedger(0.5, journal=journal)
        # Two sessions, each individually allowed 0.5: the pool is the
        # binding constraint for the second reserve.
        first = SessionLedger(pool, 0.5, "alice")
        second = SessionLedger(pool, 0.5, "bob")
        held = first.reserve(0.4)
        assert held is not None
        refused = second.reserve(0.4)  # share OK, pool says no
        assert refused is None
        pool.assert_invariants()
        first.release(held)
        assert pool.reserved == 0.0
        assert journal.stats()["appended_records"] == 0  # admission is in memory
