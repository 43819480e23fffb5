"""The budget book, session ledger handles and the reservation protocol."""

import threading

import pytest

from repro.core.accounting import PrivacyLedger
from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import ApexError, BudgetExceededError
from repro.reliability.journal import LedgerJournal
from repro.service import ExplorationService
from repro.service.budget import BudgetPolicy, SessionLedger
from tests.service.util import run_threads, small_table

ACC = AccuracySpec(alpha=10.0, beta=1e-3)

#: One ULP-exact epsilon unit: keeps every sum exact in binary, so "equals
#: the serial result" means bit-equality, not approximate equality.
UNIT = 2.0**-20


def charge_kwargs(ledger, epsilon_upper, epsilon_spent, name="q"):
    reservation = ledger.reserve(epsilon_upper)
    assert reservation is not None
    return dict(
        query_name=name,
        query_kind="WCQ",
        accuracy=ACC,
        mechanism="LM",
        epsilon_upper=epsilon_upper,
        epsilon_spent=epsilon_spent,
        answer=None,
        reservation=reservation,
    )


class TestPrivacyLedgerReservations:
    def test_reserve_excludes_headroom(self):
        ledger = PrivacyLedger(1.0)
        reservation = ledger.reserve(0.6)
        assert reservation is not None
        assert ledger.remaining == pytest.approx(0.4)
        assert ledger.reserve(0.5) is None

    def test_release_returns_headroom(self):
        ledger = PrivacyLedger(1.0)
        reservation = ledger.reserve(0.6)
        ledger.release(reservation)
        assert ledger.remaining == pytest.approx(1.0)
        # Double release is a no-op.
        ledger.release(reservation)
        assert ledger.remaining == pytest.approx(1.0)

    def test_charge_with_reservation_keeps_only_actual_loss(self):
        ledger = PrivacyLedger(1.0)
        reservation = ledger.reserve(0.6)
        ledger.charge(
            query_name="q",
            query_kind="WCQ",
            accuracy=ACC,
            mechanism="MPM",
            epsilon_upper=0.6,
            epsilon_spent=0.25,
            answer=None,
            reservation=reservation,
        )
        assert ledger.spent == pytest.approx(0.25)
        assert ledger.reserved == pytest.approx(0.0)
        assert ledger.remaining == pytest.approx(0.75)

    def test_committed_reservation_cannot_be_reused(self):
        ledger = PrivacyLedger(1.0)
        reservation = ledger.reserve(0.3)
        kwargs = dict(
            query_name="q",
            query_kind="WCQ",
            accuracy=ACC,
            mechanism="LM",
            epsilon_upper=0.3,
            epsilon_spent=0.3,
            answer=None,
            reservation=reservation,
        )
        ledger.charge(**kwargs)
        with pytest.raises(ApexError):
            ledger.charge(**kwargs)

    def test_rejected_charge_leaves_reservation_releasable(self):
        """A charge with an out-of-range actual loss must not leak headroom."""
        ledger = PrivacyLedger(1.0)
        reservation = ledger.reserve(0.4)
        with pytest.raises(ApexError, match="must lie in"):
            ledger.charge(
                query_name="q",
                query_kind="WCQ",
                accuracy=ACC,
                mechanism="LM",
                epsilon_upper=0.4,
                epsilon_spent=0.5,  # above the worst case: rejected
                answer=None,
                reservation=reservation,
            )
        assert reservation.active  # validation happens before consumption
        ledger.release(reservation)
        assert ledger.remaining == pytest.approx(1.0)
        assert ledger.spent == pytest.approx(0.0)

    def test_unreserved_charge_still_enforces_admission(self):
        ledger = PrivacyLedger(0.5)
        ledger.charge(
            query_name="q",
            query_kind="WCQ",
            accuracy=ACC,
            mechanism="LM",
            epsilon_upper=0.5,
            epsilon_spent=0.5,
            answer=None,
        )
        assert ledger.exhausted


class TestBudgetBook:
    def test_locked_accessors_are_consistent_under_concurrency(self):
        """spent/reserved/remaining read under the pool lock: a racing
        reader can never observe torn accounting (e.g. spent and reserved
        both counting the same epsilon)."""
        pool = PrivacyLedger(1_000.0)
        ledger = SessionLedger(pool, 1_000.0, "racer")
        stop = threading.Event()
        violations = []

        def reader():
            while not stop.is_set():
                stats = pool.stats()
                total = stats["spent"] + stats["reserved"]
                if total > pool.budget + 1e-9:
                    violations.append(total)
                # Property reads must agree with the invariant too.
                if pool.spent + pool.reserved > pool.budget + 1e-9:
                    violations.append((pool.spent, pool.reserved))

        def writer():
            for i in range(300):
                ledger.charge(**charge_kwargs(ledger, 0.01, 0.005, name=f"q{i}"))

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        writer()
        stop.set()
        for t in threads:
            t.join()
        assert violations == []
        assert pool.spent == pytest.approx(300 * 0.005)
        assert pool.reserved == pytest.approx(0.0)

    def test_merged_transcript_commit_order(self):
        pool = PrivacyLedger(2.0)
        alice = SessionLedger(pool, 2.0, "alice")
        bob = SessionLedger(pool, 2.0, "bob")
        alice.charge(**charge_kwargs(alice, 0.5, 0.5, name="qa"))
        bob.charge(**charge_kwargs(bob, 0.25, 0.25, name="qb"))
        bob.deny(query_name="qd", query_kind="WCQ", accuracy=ACC)
        merged = pool.transcript
        assert [e.query_name for e in merged] == ["alice:qa", "bob:qb", "bob:qd"]
        assert merged.is_valid(pool.budget)
        assert merged.total_epsilon() == pytest.approx(0.75)
        assert pool.spent == pytest.approx(0.75)


class TestSessionLedger:
    def test_fixed_share_cap_binds_before_pool(self):
        pool = PrivacyLedger(1.0)
        ledger = SessionLedger(pool, 0.25, "alice")
        assert ledger.reserve(0.3) is None
        reservation = ledger.reserve(0.25)
        assert reservation is not None
        ledger.release(reservation)

    def test_pool_refusal_rolls_back_share_reservation(self):
        pool = PrivacyLedger(0.5)
        greedy = SessionLedger(pool, 0.5, "greedy")
        other = SessionLedger(pool, 0.5, "other")
        greedy.charge(**charge_kwargs(greedy, 0.4, 0.4))
        # other's own share would allow 0.3, but the pool only has 0.1 left.
        assert other.reserve(0.3) is None
        # The failed attempt must not leak a share-level reservation.
        assert other.reserve(0.1) is not None

    def test_rejected_charge_does_not_leak_pool_reservation(self):
        pool = PrivacyLedger(1.0)
        ledger = SessionLedger(pool, 1.0, "alice")
        reservation = ledger.reserve(0.4)
        with pytest.raises(ApexError, match="must lie in"):
            ledger.charge(
                query_name="q",
                query_kind="WCQ",
                accuracy=ACC,
                mechanism="LM",
                epsilon_upper=0.4,
                epsilon_spent=9.9,
                answer=None,
                reservation=reservation,
            )
        # The engine releases on a failed charge; both layers must recover.
        ledger.release(reservation)
        assert pool.reserved == pytest.approx(0.0)
        assert pool.remaining == pytest.approx(1.0)
        assert ledger.remaining == pytest.approx(1.0)

    def test_unreserved_charge_reserves_against_share_and_book(self):
        pool = PrivacyLedger(1.0)
        ledger = SessionLedger(pool, 0.5, "alice")
        kwargs = dict(
            query_name="q",
            query_kind="WCQ",
            accuracy=ACC,
            mechanism="LM",
            epsilon_spent=0.25,
            answer=None,
        )
        with pytest.raises(BudgetExceededError):
            ledger.charge(epsilon_upper=0.75, **kwargs)  # past the share
        ledger.charge(epsilon_upper=0.5, **kwargs)
        assert ledger.spent == pool.spent == 0.25
        assert pool.reserved == 0.0
        assert [e.query_name for e in pool.transcript] == ["alice:q"]
        pool.assert_invariants()

    def test_policy_values(self):
        assert BudgetPolicy("fixed-share") is BudgetPolicy.FIXED_SHARE
        assert BudgetPolicy("first-come") is BudgetPolicy.FIRST_COME


class TestJournalFailure:
    """A failed commit append must leave the reservation for the caller's
    release, and the book untouched."""

    def test_journal_failure_leaves_the_reservation_releasable(self, tmp_path):
        from repro.core.exceptions import FaultInjected
        from repro.reliability import faults

        journal = LedgerJournal(tmp_path / "wal.jsonl")
        pool = PrivacyLedger(2.0, journal=journal)
        ledger = SessionLedger(pool, 1.0, "alice")
        kwargs = charge_kwargs(ledger, 0.5, 0.5)
        with faults.armed("journal.append.before_write", "error"):
            with pytest.raises(FaultInjected):
                ledger.charge(**kwargs)
        # The commit never became durable, so nothing was applied; the
        # caller's release returns the headroom to the share and to B.
        assert pool.spent == 0.0
        assert len(pool.transcript) == 0
        assert kwargs["reservation"].active
        ledger.release(kwargs["reservation"])
        assert ledger.reserved == 0.0
        assert pool.reserved == 0.0
        assert ledger.remaining == 1.0
        pool.assert_invariants()
        journal.close()


def charge_once(ledger, epsilon_upper, epsilon_spent, name):
    """Reserve and charge one query; ``None`` when admission refuses it."""
    reservation = ledger.reserve(epsilon_upper)
    if reservation is None:
        return None
    return ledger.charge(
        query_name=name,
        query_kind="WCQ",
        accuracy=ACC,
        mechanism="LM",
        epsilon_upper=epsilon_upper,
        epsilon_spent=epsilon_spent,
        answer=None,
        reservation=reservation,
    )


def mixed_schedule(analyst_index, n_ops):
    """The per-analyst op mix of the 8x48 stress (exact binary epsilons)."""
    ops = []
    for op_index in range(n_ops):
        upper = (16 + ((analyst_index * 7 + op_index) % 48)) * UNIT
        spent = upper if op_index % 3 else upper / 2  # mixed full/partial loss
        ops.append((upper, spent, f"q{analyst_index}-{op_index}"))
    return ops


class TestConcurrentCommits:
    """Concurrent session commits against one pool match a serial run."""

    def test_8x48_stress_matches_serial_spend_and_stays_valid(self):
        """8 analyst threads x 48 mixed charges against one pool: final
        spend must equal the serial run of the same ops, bit for bit, and
        the merged transcript must pass Theorem 6.2."""
        n_analysts, n_ops = 8, 48
        budget = 10_000 * UNIT * n_analysts  # ample: every op admits

        serial_pool = PrivacyLedger(budget)
        for a in range(n_analysts):
            ledger = SessionLedger(serial_pool, budget, f"a{a}")
            for upper, spent, name in mixed_schedule(a, n_ops):
                assert charge_once(ledger, upper, spent, name) is not None

        pool = PrivacyLedger(budget)
        ledgers = [SessionLedger(pool, budget, f"a{a}") for a in range(n_analysts)]

        def analyst(a):
            for upper, spent, name in mixed_schedule(a, n_ops):
                entry = charge_once(ledgers[a], upper, spent, name)
                assert entry is not None
                # The invariant must hold at every observation point.
                snap = pool.stats()
                assert snap["spent"] + snap["reserved"] <= budget + 1e-9, snap

        run_threads(analyst, range(n_analysts))
        assert pool.spent == serial_pool.spent  # exact: binary-fraction sums
        assert pool.reserved == 0.0
        assert len(pool.transcript) == n_analysts * n_ops
        assert pool.transcript.is_valid(budget)
        pool.assert_invariants()
        stats = pool.stats()
        assert stats["commits"] == n_analysts * n_ops
        assert stats["commit_batch_sizes"] == [1]

    def test_never_jointly_overspends_under_budget_pressure(self):
        """A tight budget admits only some of the concurrent demand; no
        interleaving of commits may push spend past B."""
        budget = 64 * UNIT
        pool = PrivacyLedger(budget)
        ledgers = [SessionLedger(pool, budget, f"a{a}") for a in range(8)]
        answered = []

        def analyst(a):
            for i in range(16):
                entry = charge_once(ledgers[a], 8 * UNIT, 8 * UNIT, f"q{a}-{i}")
                if entry is not None:
                    answered.append(entry)

        run_threads(analyst, range(8))
        assert answered  # the budget admits at least a few
        assert pool.spent <= budget + 1e-12
        assert pool.transcript.is_valid(budget)
        pool.assert_invariants()


def fixed_share_service(budget, journal):
    return ExplorationService(
        small_table(64),
        budget=budget,
        policy=BudgetPolicy.FIXED_SHARE,
        max_analysts=2,
        journal=journal,
    )


class TestFixedShareSurvivesRestart:
    """Recovery charges each journaled commit to its analyst's account, so a
    restart does not hand an analyst a fresh share (regression: every share
    used to restart at 0, letting one analyst eat into another's)."""

    def first_run(self, path, spend):
        with LedgerJournal(path) as journal:
            service = fixed_share_service(4.0, journal)
            ledger = service.register_analyst("a").ledger
            for i, eps in enumerate(spend):
                assert charge_once(ledger, eps, eps, f"q{i}") is not None

    def test_recovered_spend_counts_against_the_share(self, tmp_path):
        path = str(tmp_path / "ledger.wal")
        self.first_run(path, [1.0, 0.5])
        with LedgerJournal(path) as journal:
            service = fixed_share_service(4.0, journal)
            a = service.register_analyst("a").ledger
            b = service.register_analyst("b").ledger
            assert a.spent == 1.5
            assert a.remaining == 0.5
            assert a.reserve(1.0) is None  # past the 2.0 share
            assert charge_once(a, 0.5, 0.5, "q-after") is not None
            assert a.exhausted
            assert b.remaining == 2.0  # b's share is untouched
            assert service.budget_spent == 2.0
            assert [e.query_name for e in a.transcript] == ["a:q0", "a:q1", "a:q-after"]
            service.assert_invariants()

    def test_account_past_a_smaller_cap_is_admitted_nothing(self, tmp_path):
        path = str(tmp_path / "ledger.wal")
        self.first_run(path, [1.5])
        with LedgerJournal(path) as journal:
            service = fixed_share_service(2.0, journal)  # shares shrink to 1.0
            a = service.register_analyst("a").ledger
            b = service.register_analyst("b").ledger
            assert a.spent == 1.5
            assert a.remaining == 0.0
            assert a.reserve(2.0**-20) is None
            assert b.remaining == 0.5  # what is left of B
            assert charge_once(b, 0.5, 0.5, "qb") is not None
            service.assert_invariants()  # an over-cap account is not an error
            assert service.validate()


class BlockingJournal:
    """A journal stub whose ``commit`` for one analyst blocks until released."""

    def __init__(self, analyst):
        self.analyst = analyst
        self.entered = threading.Event()
        self.proceed = threading.Event()
        self.records = []

    def append(self, op, **fields):
        if op == "commit" and fields.get("analyst") == self.analyst:
            self.entered.set()
            assert self.proceed.wait(timeout=30)
        self.records.append((op, fields))
        return len(self.records)


class TestJournalOutsideBookLock:
    def test_other_analysts_proceed_while_a_commit_is_journaled(self):
        journal = BlockingJournal("A")
        book = PrivacyLedger(4.0, journal=journal)
        a = SessionLedger(book, 2.0, "A")
        b = SessionLedger(book, 2.0, "B")
        kwargs = charge_kwargs(a, 1.0, 0.5, name="qa")
        charging = threading.Thread(target=lambda: a.charge(**kwargs))
        charging.start()
        assert journal.entered.wait(timeout=30)
        seen = {}

        def analyst_b():
            reservation = b.reserve(0.5)
            seen["admitted"] = reservation is not None
            b.release(reservation)
            seen["remaining"] = b.remaining
            seen["book_remaining"] = book.remaining

        try:
            probe = threading.Thread(target=analyst_b)
            probe.start()
            probe.join(timeout=5)
            # A's commit is inside the journal append: B must not wait on it.
            assert not probe.is_alive(), "the book lock is held across the journal"
            assert seen == {"admitted": True, "remaining": 2.0, "book_remaining": 3.0}
            # A's reservation still holds its headroom; nothing is applied yet.
            assert book.reserved == 1.0
            assert book.spent == 0.0
        finally:
            journal.proceed.set()
            charging.join(timeout=30)
        assert book.spent == a.spent == 0.5
        assert book.reserved == 0.0
        assert [op for op, _ in journal.records] == ["commit"]
        book.assert_invariants()
