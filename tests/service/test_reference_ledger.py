"""Differential tests of the service's budget book against a reference ledger.

:class:`ReferenceLedger` is Definition 6.1 with per-analyst caps, written as
plainly as possible and run one operation at a time (a HISTEX-style oracle).
The product is driven only through the service's public surface -- the
session ledgers, ``service.pool`` and the merged transcript -- and must
agree with the reference:

* op by op on single-threaded generated multi-analyst histories (every
  admission and refusal, total spend, each analyst's spend and remaining);
* on 8-thread histories, where the merged transcript and the journal's
  replay must both be serializations the reference accepts, with the spend
  the callers were acknowledged and the refusals they saw.

Every epsilon is a multiple of ``UNIT = 2**-20``, so every sum is exact in
binary and "agree" means equality, not approximation.
"""

import random
import sys
import threading

import pytest

from repro.core.accuracy import AccuracySpec
from repro.reliability.journal import LedgerJournal
from repro.service import BudgetPolicy, ExplorationService
from tests.service.util import small_table

ACC = AccuracySpec(alpha=10.0, beta=1e-3)
UNIT = 2.0**-20
TOL = 1e-12


class ReferenceLedger:
    """Definition 6.1 with per-analyst caps, one operation at a time.

    A worst-case loss ``u`` is admitted for analyst ``a`` only when it fits
    both the owner's ``B`` and ``a``'s cap, net of everything spent and
    everything held by admitted, unfinished runs.  A charge keeps only the
    actual loss; a denial costs nothing.
    """

    def __init__(self, budget, caps):
        self.budget = budget
        self.caps = dict(caps)
        self.spent = dict.fromkeys(self.caps, 0.0)
        self.held = {}  # token -> (analyst, eps_upper)
        self.denials = 0

    @property
    def total_spent(self):
        return sum(self.spent.values())

    def remaining(self, analyst):
        held = list(self.held.values())
        book = self.budget - self.total_spent - sum(u for _, u in held)
        own = self.caps[analyst] - self.spent[analyst]
        own -= sum(u for owner, u in held if owner == analyst)
        return max(min(book, own), 0.0)

    def reserve(self, token, analyst, eps_upper):
        if eps_upper > self.remaining(analyst) + TOL:
            return False
        self.held[token] = (analyst, eps_upper)
        return True

    def release(self, token):
        del self.held[token]

    def charge(self, token, eps_spent):
        analyst, eps_upper = self.held.pop(token)
        assert 0.0 <= eps_spent <= eps_upper + TOL
        self.spent[analyst] += eps_spent

    def deny(self, analyst):
        assert analyst in self.caps
        self.denials += 1

    def accepts(self, analyst, eps_upper, eps_spent):
        """Replay one answered transcript entry: admit it, then charge it."""
        token = object()
        if not self.reserve(token, analyst, eps_upper):
            return False
        self.charge(token, eps_spent)
        return True


@pytest.fixture(scope="module")
def table():
    return small_table(64)


def open_service(table, budget, policy, n_analysts, journal=None):
    """A service with ``n_analysts`` sessions; returns it, ledgers and caps."""
    fixed = policy is BudgetPolicy.FIXED_SHARE
    service = ExplorationService(
        table,
        budget=budget,
        policy=policy,
        max_analysts=n_analysts if fixed else None,
        journal=journal,
    )
    names = [f"a{i}" for i in range(n_analysts)]
    ledgers = {name: service.register_analyst(name).ledger for name in names}
    caps = {name: budget / n_analysts if fixed else budget for name in names}
    return service, ledgers, caps


def charge(ledger, reservation, eps_upper, eps_spent, name):
    return ledger.charge(
        query_name=name,
        query_kind="WCQ",
        accuracy=ACC,
        mechanism="LM",
        epsilon_upper=eps_upper,
        epsilon_spent=eps_spent,
        answer=None,
        reservation=reservation,
    )


def deny(ledger, name):
    return ledger.deny(query_name=name, query_kind="WCQ", accuracy=ACC)


def analyst_of(entry):
    return entry.query_name.split(":", 1)[0]


def replay_transcript(reference, entries):
    """Feed transcript entries in order; every answered one must be admitted."""
    for entry in entries:
        if entry.denied:
            assert entry.epsilon_spent == 0.0
            reference.deny(analyst_of(entry))
        else:
            assert reference.accepts(
                analyst_of(entry), entry.epsilon_upper, entry.epsilon_spent
            ), f"the reference refuses {entry}"


def replay_journal(reference, recovery):
    """Feed journal records in order; every commit must be admitted."""
    for record in recovery.records:
        if record["op"] == "deny":
            reference.deny(record["analyst"])
        elif record["op"] == "commit":
            assert reference.accepts(
                record["analyst"], record["eps_upper"], record["eps_spent"]
            ), f"the reference refuses {record}"


POLICIES = [BudgetPolicy.FIXED_SHARE, BudgetPolicy.FIRST_COME]


class TestSingleThreadedHistories:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    @pytest.mark.parametrize("seed", range(12))
    def test_product_matches_reference_op_by_op(self, table, policy, seed):
        rng = random.Random(seed)
        n_analysts = 2 + seed % 3
        budget = 384 * UNIT * n_analysts
        service, ledgers, caps = open_service(table, budget, policy, n_analysts)
        reference = ReferenceLedger(budget, caps)
        live = {}  # token -> product reservation
        admitted = refused = 0
        for step in range(240):
            analyst = rng.choice(sorted(ledgers))
            ledger = ledgers[analyst]
            mine = [t for t, (owner, _) in reference.held.items() if owner == analyst]
            roll = rng.random()
            if mine and roll < 0.4:
                token = rng.choice(mine)
                eps_upper = reference.held[token][1]
                eps_spent = eps_upper / rng.choice([1, 2, 4])
                charge(ledger, live.pop(token), eps_upper, eps_spent, f"q{step}")
                reference.charge(token, eps_spent)
            elif mine and roll < 0.5:
                token = rng.choice(mine)
                ledger.release(live.pop(token))
                reference.release(token)
            elif roll < 0.6:
                deny(ledger, f"q{step}")
                reference.deny(analyst)
            else:
                eps_upper = rng.randint(1, 96) * UNIT
                reservation = ledger.reserve(eps_upper)
                expected = reference.reserve(step, analyst, eps_upper)
                assert (reservation is not None) == expected, (step, analyst)
                if reservation is not None:
                    live[step] = reservation
                    admitted += 1
                else:
                    refused += 1
            assert service.pool.spent == reference.total_spent
            for name, other in ledgers.items():
                assert other.spent == reference.spent[name], (step, name)
                assert other.remaining == reference.remaining(name), (step, name)
        assert admitted and refused  # the history reached exhaustion

        replay = ReferenceLedger(budget, caps)
        replay_transcript(replay, service.merged_transcript())
        assert replay.total_spent == reference.total_spent
        assert replay.denials == reference.denials
        assert service.validate()


class TestConcurrentHistories:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_merged_transcript_and_journal_replay_through_reference(
        self, table, tmp_path, policy
    ):
        n_analysts, n_ops = 8, 40
        budget = 256 * UNIT * n_analysts
        path = str(tmp_path / "ledger.wal")
        journal = LedgerJournal(path)
        service, ledgers, caps = open_service(
            table, budget, policy, n_analysts, journal=journal
        )
        barrier = threading.Barrier(n_analysts)
        acked = {name: [] for name in ledgers}
        refusals = {name: 0 for name in ledgers}
        errors = []

        def run(analyst):
            rng = random.Random(analyst)
            ledger = ledgers[analyst]
            try:
                barrier.wait()
                for op in range(n_ops):
                    eps_upper = rng.randint(1, 64) * UNIT
                    reservation = ledger.reserve(eps_upper)
                    if reservation is None:
                        deny(ledger, f"q{op}")
                        refusals[analyst] += 1
                    elif rng.random() < 0.2:
                        ledger.release(reservation)
                    else:
                        eps_spent = eps_upper / rng.choice([1, 2, 4])
                        charge(ledger, reservation, eps_upper, eps_spent, f"q{op}")
                        acked[analyst].append(eps_spent)
            except Exception as exc:  # pragma: no cover - diagnostic path
                errors.append((analyst, repr(exc)))

        threads = [threading.Thread(target=run, args=(a,)) for a in ledgers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the analysts as finely as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        journal.close()
        assert errors == []

        acked_total = sum(sum(values) for values in acked.values())
        assert sum(refusals.values()) > 0  # the budget binds
        merged = service.merged_transcript()
        reference = ReferenceLedger(budget, caps)
        replay_transcript(reference, merged)
        assert reference.total_spent == service.pool.spent == acked_total
        for name, ledger in ledgers.items():
            assert reference.spent[name] == ledger.spent == sum(acked[name])
        assert len(merged.denied()) == reference.denials == sum(refusals.values())
        assert service.pool.reserved == 0.0

        with LedgerJournal(path) as reopened:
            recovery = reopened.recovery
        assert recovery.spent == service.pool.spent
        recovered = ReferenceLedger(budget, caps)
        replay_journal(recovered, recovery)
        assert recovered.total_spent == acked_total
        assert recovered.denials == sum(refusals.values())
