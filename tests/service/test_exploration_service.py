"""ExplorationService: sessions, policies, shared translation and merged transcripts."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.bench import harness
from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import ApexError
from repro.data.table import Table
from repro.mechanisms.registry import default_registry
from repro.mechanisms.strategy_mechanism import StrategyMechanism, search_stats
from repro.queries.builders import histogram_workload
from repro.queries.query import WorkloadCountingQuery
from repro.queries.workload import clear_matrix_cache
from repro.service import BudgetPolicy, ExplorationService
from tests.service.util import small_table


@pytest.fixture(scope="module")
def table() -> Table:
    return small_table(2_000)


def make_service(table, **kwargs):
    kwargs.setdefault("registry", default_registry(mc_samples=200))
    kwargs.setdefault("seed", 0)
    return ExplorationService(table, budget=kwargs.pop("budget", 5.0), **kwargs)


def hist_query(table, bins=8, name="hist"):
    return WorkloadCountingQuery(
        histogram_workload("amount", start=0, stop=10_000, bins=bins), name=name
    )


ACC = AccuracySpec(alpha=200.0, beta=5e-4)


class TestRegistration:
    def test_autonamed_sessions(self, table):
        service = make_service(table)
        first = service.register_analyst()
        second = service.register_analyst()
        assert first.analyst != second.analyst
        assert service.session(first.analyst) is first

    def test_duplicate_name_rejected(self, table):
        service = make_service(table)
        service.register_analyst("alice")
        with pytest.raises(ApexError, match="already registered"):
            service.register_analyst("alice")

    def test_unknown_table_rejected(self, table):
        service = make_service(table)
        with pytest.raises(ApexError, match="unknown table"):
            service.register_analyst("alice", table="nope")

    def test_unknown_analyst_rejected(self, table):
        service = make_service(table)
        with pytest.raises(ApexError, match="no session"):
            service.explore("ghost", hist_query(table), ACC)

    def test_fixed_share_mints_equal_shares_and_caps_headcount(self, table):
        service = make_service(
            table, budget=4.0, policy=BudgetPolicy.FIXED_SHARE, max_analysts=4
        )
        handles = [service.register_analyst(f"a{i}") for i in range(4)]
        assert all(h.ledger.budget == pytest.approx(1.0) for h in handles)
        with pytest.raises(ApexError, match="full"):
            service.register_analyst("a4")

    def test_fixed_share_requires_max_analysts(self, table):
        with pytest.raises(ApexError, match="max_analysts"):
            make_service(table, policy="fixed-share")


class TestExploration:
    def test_explore_charges_pool_and_merged_transcript(self, table):
        service = make_service(table)
        service.register_analyst("alice")
        service.register_analyst("bob")
        r1 = service.explore("alice", hist_query(table), ACC)
        r2 = service.explore("bob", hist_query(table), ACC)
        assert not r1.denied and not r2.denied
        merged = service.merged_transcript()
        assert len(merged) == 2
        assert {e.query_name for e in merged} == {"alice:hist", "bob:hist"}
        assert service.budget_spent == pytest.approx(
            r1.epsilon_spent + r2.epsilon_spent
        )
        assert service.validate()

    def test_explore_text_and_preview(self, table):
        service = make_service(table)
        service.register_analyst("alice")
        text = (
            "BIN D ON COUNT(*) WHERE W = {"
            "  amount BETWEEN 0 AND 5000, amount BETWEEN 5000 AND 10000"
            "} ERROR 200 CONFIDENCE 0.9995;"
        )
        result = service.explore_text("alice", text)
        assert not result.denied
        costs = service.preview_cost("alice", hist_query(table), ACC)
        assert costs and all(low <= up for low, up in costs.values())

    def test_first_come_exhaustion_denies_latecomer(self, table):
        scratch = make_service(table)
        scratch.register_analyst("probe")
        costs = scratch.preview_cost("probe", hist_query(table), ACC)
        unit = min(up for _, up in costs.values())

        service = make_service(table, budget=1.5 * unit)
        service.register_analyst("greedy")
        service.register_analyst("late")
        first = service.explore("greedy", hist_query(table), ACC)
        assert not first.denied
        second = service.explore("late", hist_query(table), ACC)
        assert second.denied
        merged = service.merged_transcript()
        assert len(merged.denied()) == 1
        assert service.validate()

    def test_fixed_share_protects_other_analysts(self, table):
        scratch = make_service(table)
        scratch.register_analyst("probe")
        costs = scratch.preview_cost("probe", hist_query(table), ACC)
        unit = min(up for _, up in costs.values())

        # Two equal shares; each share fits one query but not two.
        service = make_service(
            table,
            budget=3.0 * unit,
            policy=BudgetPolicy.FIXED_SHARE,
            max_analysts=2,
        )
        service.register_analyst("greedy")
        service.register_analyst("other")
        assert not service.explore("greedy", hist_query(table), ACC).denied
        assert service.explore("greedy", hist_query(table), ACC).denied
        # The other analyst's share is untouched by greedy's attempts.
        assert not service.explore("other", hist_query(table), ACC).denied

    def test_preview_and_explore_roundtrip(self, table):
        """One analyst's whole loop: price a query, answer it, answer the
        same question in the declarative language, and keep the merged
        transcript valid throughout."""
        service = make_service(table, budget=50.0)
        service.register_analyst("alice")
        costs = service.preview_cost("alice", hist_query(table), ACC)
        assert costs and all(lo <= up for lo, up in costs.values())
        result = service.explore("alice", hist_query(table), ACC)
        assert not result.denied
        assert result.epsilon_spent <= max(up for _, up in costs.values()) + 1e-9
        text = (
            "BIN D ON COUNT(*) WHERE W = {"
            "  amount BETWEEN 0 AND 5000, amount BETWEEN 5000 AND 10000"
            "} ERROR 200 CONFIDENCE 0.9995;"
        )
        assert not service.explore_text("alice", text).denied
        assert len(service.merged_transcript()) == 2
        assert service.validate()

    def test_shared_translator_memo_across_analysts(self, table):
        service = make_service(table)
        service.register_analyst("alice")
        service.register_analyst("bob")
        q = hist_query(table, bins=6)
        service.preview_cost("alice", q, ACC)
        before = service.stats()["translations"]["hits"]
        service.preview_cost(
            "bob",
            WorkloadCountingQuery(
                histogram_workload("amount", start=0, stop=10_000, bins=6),
                name="hist",
            ),
            ACC,
        )
        assert service.stats()["translations"]["hits"] > before


class TestPreviewBatching:
    def test_warm_preview_builds_nothing(self, table):
        service = make_service(table)
        service.register_analyst("alice")
        q = hist_query(table, bins=7)
        service.preview_cost("alice", q, ACC)  # cold: builds the translation
        built_after_cold = service.stats()["translations"]["built"]
        hits_after_cold = service.stats()["translations"]["hits"]
        start = time.perf_counter()
        service.preview_cost("alice", q, ACC)  # warm: the exact memo answers
        warm_seconds = time.perf_counter() - start
        stats = service.stats()["translations"]
        assert stats["built"] == built_after_cold
        assert stats["hits"] == hits_after_cold + 1
        assert warm_seconds < 0.05

    def test_concurrent_identical_cold_previews_build_the_matrix_once(self, table):
        # Analysts racing a never-seen preview with structurally equal but
        # distinct query objects: the translator coalesces them onto one
        # flight (late arrivals hit the translation memo), so one matrix
        # build serves every analyst the same answer.
        clear_matrix_cache()
        service = make_service(table)
        n_threads = 8
        for i in range(n_threads):
            service.register_analyst(f"a{i}")
        built_before = service.stats()["workload_matrices"]["built"]
        barrier = threading.Barrier(n_threads)
        previews = [None] * n_threads

        def ask(i):
            query = hist_query(table, bins=11)
            barrier.wait(timeout=10)
            previews[i] = service.preview_cost(f"a{i}", query, ACC)

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        stats = service.stats()
        assert stats["translations"]["built"] == 1
        assert stats["workload_matrices"]["built"] - built_before == 1
        assert previews[0] and all(p == previews[0] for p in previews)

    def test_thousand_sessions_share_one_cold_preview(self, table):
        """2,000 open sessions previewing one never-seen query from a small
        thread pool: one flight builds it, everyone gets the same answer."""
        clear_matrix_cache()
        service = make_service(table, budget=500.0)
        n_sessions = 2_000
        for i in range(n_sessions):
            service.register_analyst(f"a{i}")
        built_before = service.stats()["workload_matrices"]["built"]

        def ask(i):
            return service.preview_cost(f"a{i}", hist_query(table, bins=5), ACC)

        with ThreadPoolExecutor(max_workers=8) as pool:
            previews = list(pool.map(ask, range(n_sessions)))
        assert previews[0] and all(p == previews[0] for p in previews)
        stats = service.stats()
        assert stats["translations"]["built"] == 1
        assert stats["workload_matrices"]["built"] - built_before == 1
        assert service.latency_stats()["preview_cost"]["count"] == n_sessions
        assert service.budget_spent == 0.0  # previews cost no privacy

    def test_explored_query_previews_without_a_flight(self, table):
        """An explore warms the translation memo, so a later preview of the
        same query is an exact hit: nothing is built and nobody waits."""
        service = make_service(table)
        service.register_analyst("alice")
        service.explore("alice", hist_query(table, bins=10), ACC)
        before = service.stats()["translations"]
        costs = service.preview_cost("alice", hist_query(table, bins=10), ACC)
        assert costs
        after = service.stats()["translations"]
        assert after["built"] == before["built"] == 1
        assert after["hits"] == before["hits"] + 1
        assert after["coalesced"] == 0

    def test_failed_preview_propagates_and_a_retry_builds(self, table, monkeypatch):
        clear_matrix_cache()
        service = make_service(table)
        service.register_analyst("alice")
        real_build = WorkloadCountingQuery.build_matrix

        def broken(*args, **kwargs):
            raise RuntimeError("domain analysis failed")

        monkeypatch.setattr(WorkloadCountingQuery, "build_matrix", broken)
        with pytest.raises(RuntimeError, match="domain analysis failed"):
            service.preview_cost("alice", hist_query(table, bins=12), ACC)
        assert service.stats()["translations"]["built"] == 0
        assert service._translator._flights == {}
        # The failed flight retired: a retry leads a fresh one.
        monkeypatch.setattr(WorkloadCountingQuery, "build_matrix", real_build)
        assert service.preview_cost("alice", hist_query(table, bins=12), ACC)
        assert service.stats()["translations"]["built"] == 1

    def test_unknown_analyst_preview_fails_before_translation(self, table):
        service = make_service(table)
        before = service.stats()["translations"]
        with pytest.raises(ApexError, match="no session"):
            service.preview_cost("ghost", hist_query(table), ACC)
        assert service.stats()["translations"] == before
        assert service.latency_stats()["preview_cost"]["count"] == 0

    def test_preview_results_are_independent_copies(self, table):
        service = make_service(table)
        service.register_analyst("alice")
        service.register_analyst("bob")
        q = hist_query(table, bins=9)
        first = service.preview_cost("alice", q, ACC)
        second = service.preview_cost("bob", q, ACC)
        assert first == second
        first.clear()  # one analyst mutating its dict must not affect others
        assert second and service.preview_cost("alice", q, ACC) == second


class TestExploreCoalescing:
    def test_concurrent_cold_explores_share_only_the_translation(
        self, table, monkeypatch
    ):
        """Two analysts explore one never-seen query at once.  The
        data-independent translation runs once (one matrix build, one
        WCQ-SM search); each analyst still draws its own noise, is charged
        its own epsilon and gets its own transcript entry."""
        clear_matrix_cache()
        service = make_service(table)
        for analyst in ("alice", "bob"):
            service.register_analyst(analyst)
        real_translate = StrategyMechanism.translate

        def slow_translate(self, *args, **kwargs):
            time.sleep(0.05)  # keep the flight open while the other arrives
            return real_translate(self, *args, **kwargs)

        monkeypatch.setattr(StrategyMechanism, "translate", slow_translate)
        built_before = service.stats()["workload_matrices"]["built"]
        searches_before = search_stats()["searches"]
        barrier = threading.Barrier(2)
        results = {}

        def ask(analyst):
            query = hist_query(table, bins=13)
            barrier.wait(timeout=10)
            results[analyst] = service.explore(analyst, query, ACC)

        threads = [threading.Thread(target=ask, args=(a,)) for a in ("alice", "bob")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()

        assert service.stats()["workload_matrices"]["built"] - built_before == 1
        assert search_stats()["searches"] - searches_before == 1
        assert service.stats()["translations"]["built"] == 1
        alice, bob = results["alice"], results["bob"]
        assert alice and bob
        # Independent noise: the sessions' generators are seeded apart.
        assert not np.array_equal(alice.noisy_counts, bob.noisy_counts)
        entries = service.merged_transcript().entries
        assert sorted(e.analyst for e in entries) == ["alice", "bob"]
        for entry in entries:
            own = results[entry.analyst]
            assert entry.epsilon_spent == own.epsilon_spent > 0.0
            assert service.session(entry.analyst).ledger.spent == own.epsilon_spent
        assert service.budget_spent == pytest.approx(
            alice.epsilon_spent + bob.epsilon_spent
        )
        assert service.validate()


class TestObservability:
    def test_latency_recorded_once_in_aggregates_not_run_timings(self, table):
        service = make_service(table)
        service.register_analyst("alice")
        harness.RUN_TIMINGS.clear()
        service.preview_cost("alice", hist_query(table), ACC)
        service.explore("alice", hist_query(table), ACC)
        assert not [k for k in harness.RUN_TIMINGS if k.startswith("service.")]
        stats = service.latency_stats()
        assert stats["preview_cost"]["count"] == 1
        assert stats["explore"]["count"] == 1
        assert stats["explore"]["max_seconds"] >= stats["explore"]["mean_seconds"]

    def test_latency_count_covers_the_service_lifetime(self, table):
        service = make_service(table)
        for _ in range(10_050):
            service._note_latency("explore", 0.5)
        stats = service.latency_stats()["explore"]
        assert stats["count"] == 10_050
        assert stats["mean_seconds"] == stats["max_seconds"] == 0.5

    def test_stats_snapshot_shape(self, table):
        service = make_service(table)
        service.register_analyst("alice")
        stats = service.stats()
        assert stats["policy"] == "first-come"
        assert "alice" in stats["sessions"]
        assert set(stats["budget"]) == {
            "budget",
            "spent",
            "reserved",
            "remaining",
            "commits",
            "commit_batch_sizes",
        }
        assert stats["batching"] == {"coalesced": stats["translations"]["coalesced"]}
        assert stats["store"] is None  # no ArtifactStore configured

    def test_single_table_shorthand_and_table_required_when_ambiguous(self, table):
        service = ExplorationService({"a": table, "b": table}, budget=1.0, seed=0)
        with pytest.raises(ApexError, match="pass table="):
            service.register_analyst("alice")
        handle = service.register_analyst("alice", table="b")
        assert handle.table == "b"
