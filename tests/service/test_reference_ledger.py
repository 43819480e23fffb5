"""Differential tests of the service's budget book against a reference ledger.

The reference is :class:`~repro.reliability.reference.ReferenceLedger`,
the oracle the crash exerciser judges journals with.  The product is driven
only through the service's public surface -- the session ledgers,
``service.pool`` and the merged transcript -- and must agree with it:

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

import pytest

from repro.core.accuracy import AccuracySpec
from repro.reliability.journal import LedgerJournal
from repro.reliability.reference import (
    ReferenceLedger,
    replay_journal,
    replay_transcript,
)
from repro.service import BudgetPolicy, ExplorationService
from tests.service.util import run_threads, small_table

ACC = AccuracySpec(alpha=10.0, beta=1e-3)
UNIT = 2.0**-20


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
        assert replay_transcript(replay, service.merged_transcript()) == []
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
        acked = {name: [] for name in ledgers}
        refusals = {name: 0 for name in ledgers}

        def run(analyst):
            rng = random.Random(analyst)
            ledger = ledgers[analyst]
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

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the analysts as finely as possible
        try:
            run_threads(run, ledgers)
        finally:
            sys.setswitchinterval(interval)
        journal.close()

        acked_total = sum(sum(values) for values in acked.values())
        assert sum(refusals.values()) > 0  # the budget binds
        merged = service.merged_transcript()
        reference = ReferenceLedger(budget, caps)
        assert replay_transcript(reference, merged) == []
        assert reference.total_spent == service.pool.spent == acked_total
        for name, ledger in ledgers.items():
            assert reference.spent[name] == ledger.spent == sum(acked[name])
        assert len(merged.denied()) == reference.denials == sum(refusals.values())
        assert service.pool.reserved == 0.0

        with LedgerJournal(path) as reopened:
            recovery = reopened.recovery
        assert recovery.spent == service.pool.spent
        recovered = ReferenceLedger(budget, caps)
        assert replay_journal(recovered, recovery.records) == []
        assert recovered.total_spent == acked_total
        assert recovered.denials == sum(refusals.values())
