"""Per-request deadlines: cooperative abort that never leaks a reservation."""

import pytest

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import ApexError, RequestTimeoutError
from repro.mechanisms.registry import default_registry
from repro.queries.builders import histogram_workload
from repro.queries.query import WorkloadCountingQuery
from repro.reliability import faults
from repro.reliability.deadline import Deadline
from repro.service import ExplorationService
from tests.service.util import small_table

ACC = AccuracySpec(alpha=100.0, beta=5e-4)


def hist_query(name="hist"):
    return WorkloadCountingQuery(
        histogram_workload("amount", start=0, stop=10_000, bins=8), name=name
    )


class TestDeadline:
    def test_unexpired_check_passes(self):
        Deadline(60.0).check("request")

    def test_expired_check_raises_typed_error(self):
        deadline = Deadline(1e-9)
        with pytest.raises(RequestTimeoutError) as excinfo:
            while True:  # spin until the nanosecond budget is gone
                deadline.check("request")
        assert excinfo.value.deadline == 1e-9
        assert excinfo.value.elapsed > 0

    def test_after_none_means_no_deadline(self):
        assert Deadline.after(None) is None
        assert Deadline.after(5.0).seconds == 5.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ApexError):
            Deadline(0.0)


class TestServiceTimeout:
    @pytest.fixture(scope="class")
    def table(self):
        return small_table(800)

    def make_service(self, table, **kwargs):
        return ExplorationService(
            table,
            budget=kwargs.pop("budget", 2.0),
            registry=default_registry(mc_samples=150),
            seed=0,
            **kwargs,
        )

    def test_slow_explore_aborts_and_releases_reservation(self, table):
        service = self.make_service(table, request_deadline=0.05)
        service.register_analyst("alice")
        handle = service.session("alice")
        # Stall after the mechanism ran but before the charge: the abort
        # must discard the (already computed!) answer without charging.
        with faults.armed("engine.explore.after_run", "sleep:0.2"):
            with pytest.raises(RequestTimeoutError):
                service.explore("alice", hist_query(), ACC)
        assert service.budget_spent == 0.0  # nothing charged
        assert handle.ledger.reserved == 0.0  # nothing leaked
        assert service.pool.reserved == 0.0
        service.assert_invariants()
        assert service.stats()["reliability"]["timeouts"] == 1

    def test_request_within_deadline_succeeds(self, table):
        service = self.make_service(table, request_deadline=60.0)
        service.register_analyst("alice")
        result = service.explore("alice", hist_query(), ACC)
        assert not result.denied
        assert service.stats()["reliability"]["timeouts"] == 0
        service.assert_invariants()

    def test_no_deadline_by_default(self, table):
        service = self.make_service(table)
        service.register_analyst("alice")
        with faults.armed("engine.explore.after_run", "sleep:0.05"):
            result = service.explore("alice", hist_query(), ACC)
        assert not result.denied

    def test_nonpositive_deadline_rejected(self, table):
        with pytest.raises(ApexError, match="request_deadline"):
            self.make_service(table, request_deadline=0.0)

    def test_timed_out_budget_is_reusable(self, table):
        """The headroom a timeout released must admit the next request."""
        service = self.make_service(table, budget=0.6, request_deadline=0.05)
        service.register_analyst("alice")
        with faults.armed("engine.explore.after_run", "sleep:0.2"):
            with pytest.raises(RequestTimeoutError):
                service.explore("alice", hist_query("q1"), ACC)
        # Budget 0.6 admits only ~one explore; it must not be eaten by the
        # timed-out attempt.
        result = service.explore("alice", hist_query("q2"), ACC)
        assert not result.denied
        service.assert_invariants()
