"""The asyncio front: many open sessions, bounded threads, joint budget safety."""

import asyncio

import pytest

from repro.core.accuracy import AccuracySpec
from repro.mechanisms.registry import default_registry
from repro.queries.builders import histogram_workload
from repro.queries.query import WorkloadCountingQuery
from repro.service import AsyncExplorationFront, ExplorationService
from tests.service.util import small_table

ACC = AccuracySpec(alpha=200.0, beta=5e-4)


def make_service(budget=50.0, **kwargs):
    kwargs.setdefault("registry", default_registry(mc_samples=200))
    kwargs.setdefault("seed", 0)
    kwargs.setdefault("batch_window", 0.0)
    return ExplorationService(small_table(2_000), budget=budget, **kwargs)


def hist_query(bins=8, name="hist"):
    return WorkloadCountingQuery(
        histogram_workload("amount", start=0, stop=10_000, bins=bins), name=name
    )


class TestAsyncFront:
    def test_serve_async_builds_front(self):
        service = make_service()
        front = service.serve_async(max_concurrency=4)
        assert isinstance(front, AsyncExplorationFront)
        assert front.max_concurrency == 4
        assert front.service is service
        with pytest.raises(ValueError):
            service.serve_async(max_concurrency=0)

    def test_preview_and_explore_roundtrip(self):
        async def scenario():
            service = make_service()
            async with service.serve_async(max_concurrency=4) as front:
                front.register_analyst("alice")
                costs = await front.preview_cost("alice", hist_query(), ACC)
                assert costs and all(lo <= up for lo, up in costs.values())
                result = await front.explore("alice", hist_query(), ACC)
                assert not result.denied
                text = (
                    "BIN D ON COUNT(*) WHERE W = {"
                    "  amount BETWEEN 0 AND 5000, amount BETWEEN 5000 AND 10000"
                    "} ERROR 200 CONFIDENCE 0.9995;"
                )
                assert not (await front.explore_text("alice", text)).denied
            assert service.validate()

        asyncio.run(scenario())

    def test_thousand_open_sessions_with_backpressure(self):
        """Thousands of coroutine sessions over a tiny thread budget.

        2000 sessions stay open concurrently; only ``max_concurrency``
        requests may run at once, so the admission semaphore must be
        observed queueing (``backpressure_waits``) and the in-flight count
        can never exceed the bound.
        """

        async def scenario():
            service = make_service(budget=500.0)
            q = hist_query(bins=4, name="shared")
            async with service.serve_async(max_concurrency=8) as front:
                handles = [
                    front.register_analyst(f"a{i}") for i in range(2_000)
                ]
                assert len(handles) == 2_000

                async def one_session(i):
                    costs = await front.preview_cost(f"a{i}", q, ACC)
                    assert front.stats()["in_flight"] <= 8
                    return costs

                results = await asyncio.gather(
                    *(one_session(i) for i in range(2_000))
                )
                stats = front.stats()
            assert len(results) == 2_000
            assert all(r == results[0] for r in results)
            assert stats["completed"] == 2_000
            assert stats["in_flight"] == 0
            assert stats["peak_in_flight"] <= 8
            assert stats["backpressure_waits"] > 0
            assert stats["errors"] == 0

        asyncio.run(scenario())

    def test_concurrent_explores_stay_jointly_budget_safe(self):
        """Async fan-in lands in the same two-phase protocol: spend <= B and
        the merged transcript stays a valid Theorem 6.2 ordering."""

        async def scenario():
            service = make_service(budget=6.0)
            q = hist_query(bins=4, name="stress")
            async with service.serve_async(max_concurrency=6) as front:
                for i in range(12):
                    front.register_analyst(f"a{i}")
                results = await asyncio.gather(
                    *(front.explore(f"a{i}", q, ACC) for i in range(12))
                )
            answered = [r for r in results if not r.denied]
            assert answered  # the budget admits at least one
            assert service.budget_spent <= service.budget + 1e-9
            assert service.validate()
            service.assert_invariants()

        asyncio.run(scenario())

    def test_closed_front_refuses_requests(self):
        async def scenario():
            service = make_service()
            front = service.serve_async(max_concurrency=2)
            front.register_analyst("alice")
            assert not (await front.explore("alice", hist_query(), ACC)).denied
            await front.aclose()
            spent = service.budget_spent
            with pytest.raises(RuntimeError):
                await front.explore("alice", hist_query(), ACC)
            assert service.budget_spent == spent
            assert service.validate()

        asyncio.run(scenario())

    def test_errors_propagate_and_are_counted(self):
        async def scenario():
            service = make_service()
            async with service.serve_async(max_concurrency=2) as front:
                with pytest.raises(Exception, match="no session"):
                    await front.explore("ghost", hist_query(), ACC)
                assert front.stats()["errors"] == 1

        asyncio.run(scenario())
