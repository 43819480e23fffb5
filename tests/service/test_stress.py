"""Concurrency stress: joint budget safety and cache integrity under threads.

These are the acceptance tests of the concurrent service layer:

* with a shared budget ``B`` and >= 8 threads issuing interleaved
  ``preview_cost``/``explore``, the total charged epsilon never exceeds ``B``
  and the merged transcript passes the Theorem 6.2 validity check;
* the process-wide memo layers (generic LRU, workload-matrix memo) lose no
  updates and corrupt no counters when hammered concurrently.
"""

import pytest

from repro.core.accounting import PrivacyLedger
from repro.core.accuracy import AccuracySpec
from repro.core.lru import LRUCache
from repro.mechanisms.registry import default_registry
from repro.queries.builders import histogram_workload
from repro.queries.query import WorkloadCountingQuery
from repro.queries.workload import Workload, clear_matrix_cache
from repro.reliability.journal import LedgerJournal
from repro.service import BudgetPolicy, ExplorationService
from tests.service.util import run_threads, small_table

N_THREADS = 8
ACC = AccuracySpec(alpha=100.0, beta=5e-4)


@pytest.fixture(scope="module")
def table():
    return small_table(2_000)


def race_into_denials(table, policy, max_analysts, journal=None):
    """N threads race a budget sized for ~5.5 explores; returns the service.

    Asserts the safety contract: spend within B, nothing left reserved,
    free denials, and a Theorem 6.2-valid merged transcript.
    """
    # Size B so only a fraction of the explores can be admitted: the
    # threads must race each other into denials without overspending.
    scratch = ExplorationService(
        table, budget=1e9, registry=default_registry(mc_samples=200), seed=0
    )
    scratch.register_analyst("probe")
    query = WorkloadCountingQuery(
        histogram_workload("amount", start=0, stop=10_000, bins=8), name="hist"
    )
    unit = min(up for _, up in scratch.preview_cost("probe", query, ACC).values())
    budget = 5.5 * unit

    service = ExplorationService(
        table,
        budget=budget,
        policy=policy,
        max_analysts=max_analysts,
        registry=default_registry(mc_samples=200),
        seed=1,
        journal=journal,
    )
    for i in range(N_THREADS):
        service.register_analyst(f"t{i}")

    def worker(i):
        query_i = WorkloadCountingQuery(
            histogram_workload(
                "amount", start=0, stop=10_000, bins=8 + 2 * (i % 3)
            ),
            name=f"hist-{i}",
        )
        for _ in range(3):
            service.preview_cost(f"t{i}", query_i, ACC)
            service.explore(f"t{i}", query_i, ACC)

    run_threads(worker, range(N_THREADS))

    merged = service.merged_transcript()
    spent = merged.total_epsilon()
    assert spent <= budget + 1e-9
    assert service.budget_spent == pytest.approx(spent)
    assert service.pool.reserved == pytest.approx(0.0)
    # 24 explores were attempted against ~5.5 affordable units: some must
    # have been denied, and every denial costs nothing.
    assert len(merged.denied()) > 0
    assert all(e.epsilon_spent == 0 for e in merged.denied())
    # Theorem 6.2 over the merged, cross-analyst transcript.
    assert merged.is_valid(budget)
    assert service.validate()
    return service


class TestConcurrentBudgetSafety:
    @pytest.mark.parametrize(
        "policy,max_analysts",
        [(BudgetPolicy.FIRST_COME, None), (BudgetPolicy.FIXED_SHARE, N_THREADS)],
    )
    def test_total_epsilon_never_exceeds_budget(self, table, policy, max_analysts):
        race_into_denials(table, policy, max_analysts)

    def test_journaled_race_stays_within_budget_and_recovers_exactly(
        self, table, tmp_path
    ):
        path = str(tmp_path / "ledger.wal")
        with LedgerJournal(path) as journal:
            service = race_into_denials(
                table, BudgetPolicy.FIRST_COME, None, journal=journal
            )
            appended = journal.stats()["appended_records"]
        merged = service.merged_transcript()
        # One journal record per transcript entry: a commit per answer and
        # a deny per denial, nothing for admission.
        assert appended == len(merged)
        with LedgerJournal(path) as reopened:
            recovery = reopened.recovery
        assert recovery.spent == pytest.approx(service.budget_spent)
        # Eight analysts shared one journal; its commit order must still
        # rebuild a Definition 6.1-valid transcript with the same spend.
        pool = PrivacyLedger(service.budget)
        assert pool.adopt_recovery(recovery) == len(merged)
        assert pool.transcript.is_valid(service.budget)
        assert pool.spent == pytest.approx(service.budget_spent)
        pool.assert_invariants()

    def test_concurrent_explores_for_one_analyst_serialize(self, table):
        """Same-analyst requests must not race on the engine's noise RNG."""
        service = ExplorationService(
            table,
            budget=50.0,
            registry=default_registry(mc_samples=200),
            seed=4,
        )
        service.register_analyst("solo")
        query = WorkloadCountingQuery(
            histogram_workload("amount", start=0, stop=10_000, bins=8), name="hist"
        )

        def worker(i):
            result = service.explore("solo", query, ACC)
            assert not result.denied

        run_threads(worker, range(N_THREADS))
        handle = service.session("solo")
        transcript = handle.transcript()
        assert len(transcript) == N_THREADS
        assert transcript.is_valid(handle.ledger.budget)
        assert service.validate()

    def test_per_analyst_transcripts_also_valid(self, table):
        service = ExplorationService(
            table,
            budget=2.0,
            registry=default_registry(mc_samples=200),
            seed=2,
        )
        handles = [service.register_analyst(f"t{i}") for i in range(N_THREADS)]
        query = WorkloadCountingQuery(
            histogram_workload("amount", start=0, stop=10_000, bins=8), name="hist"
        )

        def worker(i):
            service.explore(f"t{i}", query, ACC)

        run_threads(worker, range(N_THREADS))
        for handle in handles:
            assert handle.transcript().is_valid(handle.ledger.budget)


class TestCacheIntegrityUnderThreads:
    def test_lru_no_lost_updates(self):
        cache = LRUCache(max_entries=N_THREADS * 100)
        per_thread = 100

        def worker(i):
            for j in range(per_thread):
                key = (i, j)
                cache.put(key, i * per_thread + j + 1)
                value = cache.get(key)
                # The cache is large enough that nothing is evicted: every
                # thread must read back exactly what it wrote.
                assert value == i * per_thread + j + 1

        run_threads(worker, range(N_THREADS))
        stats = cache.stats()
        assert stats["size"] == N_THREADS * per_thread
        assert stats["hits"] == N_THREADS * per_thread
        assert stats["misses"] == 0

    def test_lru_eviction_race_stays_consistent(self):
        cache = LRUCache(max_entries=16)

        def worker(i):
            for j in range(500):
                cache.put((i, j % 32), j)
                cache.get((i, (j * 7) % 32))

        run_threads(worker, range(N_THREADS))
        stats = cache.stats()
        assert stats["size"] <= 16
        assert stats["hits"] + stats["misses"] == N_THREADS * 500

    def test_concurrent_matrix_memo_single_build(self, table):
        clear_matrix_cache()
        workload = histogram_workload("amount", start=0, stop=10_000, bins=12)
        results = [None] * N_THREADS

        def worker(i):
            # Structurally equal but distinct Workload objects, as they
            # would arrive from independent analysts.
            clone = Workload(list(workload.predicates), list(workload.names))
            results[i] = clone.analyze(table.schema)

        run_threads(worker, range(N_THREADS))
        # All threads got value-identical matrices; after the first build the
        # memo serves everyone (a race may build it a handful of times at
        # most, never corrupt it).
        first = results[0]
        for matrix in results[1:]:
            assert matrix.shape == first.shape
            assert matrix.sensitivity == first.sensitivity
            assert (matrix.matrix == first.matrix).all()
