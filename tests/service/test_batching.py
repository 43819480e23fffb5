"""Single-flight request coalescing."""

import sys
import threading
import time

from repro.core.accuracy import AccuracySpec
from repro.mechanisms.registry import default_registry
from repro.queries.builders import histogram_workload
from repro.queries.query import WorkloadCountingQuery
from repro.queries.workload import clear_matrix_cache
from repro.service import ExplorationService
from repro.service.batching import RequestBatcher
from tests.service.util import small_table


class TestRequestBatcher:
    def test_concurrent_identical_requests_compute_once(self):
        batcher = RequestBatcher()
        n_threads = 8
        calls = []
        started = threading.Event()
        release = threading.Event()
        results = [None] * n_threads

        def compute():
            calls.append(threading.get_ident())
            started.set()
            release.wait(timeout=5)
            return "answer"

        def ask(i):
            results[i] = batcher.submit("key", compute)

        leader = threading.Thread(target=ask, args=(0,))
        leader.start()
        assert started.wait(timeout=5)
        followers = [
            threading.Thread(target=ask, args=(i,)) for i in range(1, n_threads)
        ]
        for t in followers:
            t.start()
        time.sleep(0.05)  # let every follower attach to the in-flight computation
        release.set()
        leader.join()
        for t in followers:
            t.join()

        assert len(calls) == 1
        assert results == ["answer"] * n_threads
        stats = batcher.stats()
        assert stats["computed"] == 1
        assert stats["coalesced"] == n_threads - 1

    def test_distinct_keys_do_not_coalesce(self):
        batcher = RequestBatcher()
        assert batcher.submit("a", lambda: 1) == 1
        assert batcher.submit("b", lambda: 2) == 2
        assert batcher.stats()["computed"] == 2
        assert batcher.stats()["coalesced"] == 0

    def test_sequential_requests_recompute(self):
        """The batcher is not a cache: flights end when the leader finishes."""
        batcher = RequestBatcher()
        values = iter([10, 20])
        assert batcher.submit("k", lambda: next(values)) == 10
        assert batcher.submit("k", lambda: next(values)) == 20

    def test_leader_failure_propagates_to_followers(self):
        batcher = RequestBatcher()
        n_followers = 3
        started = threading.Event()
        release = threading.Event()
        errors = []

        def compute():
            started.set()
            release.wait(timeout=5)
            raise ValueError("boom")

        def ask():
            try:
                batcher.submit("key", compute)
            except ValueError as exc:
                errors.append(exc)

        leader = threading.Thread(target=ask)
        leader.start()
        assert started.wait(timeout=5)
        followers = [threading.Thread(target=ask) for _ in range(n_followers)]
        for t in followers:
            t.start()
        time.sleep(0.05)  # let every follower attach to the flight
        release.set()
        leader.join()
        for t in followers:
            t.join()

        assert [str(e) for e in errors] == ["boom"] * (n_followers + 1)
        stats = batcher.stats()
        assert stats["failed"] == 1
        # A failed flight is not a computation.
        assert stats["computed"] == 0
        # The flight has retired: a retry computes fresh.
        assert batcher.submit("key", lambda: "ok") == "ok"

    def test_followers_raise_distinct_exception_copies(self):
        """Concurrent re-raises must not fight over one shared traceback."""
        batcher = RequestBatcher()
        n_followers = 3
        started = threading.Event()
        release = threading.Event()
        errors = []
        errors_lock = threading.Lock()

        def compute():
            started.set()
            release.wait(timeout=5)
            raise ValueError("boom")

        def ask():
            try:
                batcher.submit("key", compute)
            except ValueError as exc:
                with errors_lock:
                    errors.append(exc)

        leader = threading.Thread(target=ask)
        leader.start()
        assert started.wait(timeout=5)
        followers = [threading.Thread(target=ask) for _ in range(n_followers)]
        for t in followers:
            t.start()
        time.sleep(0.05)
        release.set()
        leader.join()
        for t in followers:
            t.join()

        assert len(errors) == n_followers + 1
        # Every raised object is distinct; followers chain to the leader's
        # original, whose traceback stays that of the leader's raise.
        assert len({id(e) for e in errors}) == n_followers + 1
        originals = [e for e in errors if e.__cause__ is None]
        assert len(originals) == 1
        original = originals[0]
        for copy_exc in errors:
            if copy_exc is original:
                continue
            assert copy_exc.__cause__ is original
            assert str(copy_exc) == "boom"

    def test_follower_returns_the_leaders_result_not_its_own(self):
        batcher = RequestBatcher()
        started = threading.Event()
        release = threading.Event()

        def slow():
            started.set()
            release.wait(timeout=5)
            return "slow"

        out = []
        leader = threading.Thread(target=lambda: out.append(batcher.submit("k", slow)))
        leader.start()
        assert started.wait(timeout=5)
        follower = threading.Thread(
            target=lambda: out.append(batcher.submit("k", lambda: "fast"))
        )
        follower.start()
        time.sleep(0.02)  # let the follower attach to the flight
        release.set()
        leader.join()
        follower.join()
        assert out == ["slow", "slow"]

    def test_leader_never_sleeps_before_computing(self):
        """A lone caller's latency is its compute time: nothing waits for
        duplicates, before the compute or after it."""
        batcher = RequestBatcher()
        start = time.perf_counter()
        for _ in range(100):
            assert batcher.submit("k", lambda: "warm") == "warm"
        assert time.perf_counter() - start < 1.0
        assert batcher.stats()["computed"] == 100

    def test_distinct_keys_run_concurrently(self):
        """One key's flight never holds up another key's leader."""
        batcher = RequestBatcher()
        both_inside = threading.Barrier(2, timeout=5)
        out = {}

        def lead(key):
            def compute():
                both_inside.wait()  # breaks unless both leaders overlap
                return key.upper()

            out[key] = batcher.submit(key, compute)

        threads = [threading.Thread(target=lead, args=(k,)) for k in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert out == {"a": "A", "b": "B"}
        assert batcher.stats() == {"computed": 2, "coalesced": 0, "failed": 0}

    def test_compute_may_submit_another_key(self):
        """The batcher's lock is not held while a leader computes, so a
        computation can itself go through the batcher for a sub-result."""
        batcher = RequestBatcher()

        def outer():
            return batcher.submit("inner", lambda: 20) + 1

        assert batcher.submit("outer", outer) == 21
        assert batcher.stats()["computed"] == 2

    def test_exception_that_resists_copying_reaches_followers_as_is(self):
        """When ``copy.copy`` cannot clone the leader's exception, followers
        re-raise the original object instead of losing the error."""

        class Uncopyable(RuntimeError):
            def __copy__(self):
                raise TypeError("no copies")

        batcher = RequestBatcher()
        started = threading.Event()
        release = threading.Event()
        original = Uncopyable("stuck")
        errors = []

        def compute():
            started.set()
            release.wait(timeout=5)
            raise original

        def ask():
            try:
                batcher.submit("key", compute)
            except Uncopyable as exc:
                errors.append(exc)

        attached = threading.Event()

        class SignallingEvent(threading.Event):
            def wait(self, timeout=None):
                attached.set()  # a follower is about to block on the flight
                return super().wait(timeout)

        leader = threading.Thread(target=ask)
        leader.start()
        assert started.wait(timeout=5)
        batcher._flights["key"].done = SignallingEvent()
        follower = threading.Thread(target=ask)
        follower.start()
        assert attached.wait(timeout=5)
        release.set()
        leader.join()
        follower.join()
        assert errors == [original, original]
        assert all(e is original for e in errors)
        stats = batcher.stats()
        assert stats["failed"] == 1
        assert stats["coalesced"] == 1

    def test_stats_count_each_flight_outcome(self):
        batcher = RequestBatcher()
        assert batcher.stats() == {"computed": 0, "coalesced": 0, "failed": 0}
        batcher.submit("a", lambda: 1)
        batcher.submit("b", lambda: 2)
        try:
            batcher.submit("c", lambda: 1 / 0)
        except ZeroDivisionError:
            pass
        batcher.submit("d", lambda: 4, lambda: True)  # warm: counts nowhere
        assert batcher.stats() == {"computed": 2, "coalesced": 0, "failed": 1}
        assert batcher._flights == {}  # every flight retired


class TestWarmPeek:
    """``submit``'s ``warm`` peek, taken under the batcher's lock when no
    flight exists, is what keeps a straggler off a second flight once the
    leader has published to the memo and retired."""

    def test_straggler_after_a_retired_flight_starts_no_flight(self):
        batcher = RequestBatcher()
        memo = {}
        calls = []

        def compute():
            calls.append(1)
            memo["k"] = "answer"
            return memo["k"]

        def warm():
            return "k" in memo

        assert not warm()  # the straggler peeks the memo cold...
        assert batcher.submit("k", compute, warm) == "answer"  # leader retires
        # ...and submits only now: the memo answers, no second flight.
        assert batcher.submit("k", compute, warm) == "answer"
        assert len(calls) == 2
        stats = batcher.stats()
        assert stats["computed"] == 1
        assert stats["coalesced"] == 0

    def test_duplicate_of_an_in_flight_key_attaches_without_peeking(self):
        batcher = RequestBatcher()
        started = threading.Event()
        release = threading.Event()
        peeks = []

        def slow():
            started.set()
            release.wait(timeout=5)
            return "slow"

        def warm():
            peeks.append(threading.current_thread().name)
            return False

        out = []
        leader = threading.Thread(
            target=lambda: out.append(batcher.submit("k", slow, warm)), name="leader"
        )
        leader.start()
        assert started.wait(timeout=5)
        follower = threading.Thread(
            target=lambda: out.append(batcher.submit("k", lambda: "fast", warm)),
            name="follower",
        )
        follower.start()
        time.sleep(0.02)  # let the follower attach to the flight
        release.set()
        leader.join()
        follower.join()
        assert out == ["slow", "slow"]
        assert peeks == ["leader"]
        assert batcher.stats()["coalesced"] == 1

    def test_warm_hit_computes_directly_without_a_flight(self):
        batcher = RequestBatcher()
        seen = []

        def compute():
            seen.append(dict(batcher._flights))
            return "memo"

        assert batcher.submit("k", compute, lambda: True) == "memo"
        assert seen == [{}]  # no flight was opened for the warm caller
        assert batcher.stats() == {"computed": 0, "coalesced": 0, "failed": 0}

    def test_cold_peek_leads_a_counted_flight(self):
        batcher = RequestBatcher()
        seen = []

        def compute():
            seen.append(list(batcher._flights))
            return "built"

        assert batcher.submit("k", compute, lambda: False) == "built"
        assert seen == [["k"]]
        assert batcher.stats() == {"computed": 1, "coalesced": 0, "failed": 0}

    def test_peek_runs_under_the_batcher_lock(self):
        """The peek and the flight lookup are one atomic step: a leader
        retiring under the same lock cannot slip in between them."""
        batcher = RequestBatcher()
        held = []

        def warm():
            held.append(batcher._lock.locked())
            return False

        batcher.submit("k", lambda: None, warm)
        assert held == [True]
        assert not batcher._lock.locked()

    def test_peek_that_raises_leaves_no_flight_behind(self):
        batcher = RequestBatcher()

        def broken_peek():
            raise LookupError("memo unavailable")

        try:
            batcher.submit("k", lambda: "never", broken_peek)
        except LookupError:
            pass
        else:  # pragma: no cover - the peek's error must surface
            raise AssertionError("the peek's error was swallowed")
        assert batcher._flights == {}
        assert not batcher._lock.locked()
        assert batcher.submit("k", lambda: "fresh") == "fresh"
        assert batcher.stats() == {"computed": 1, "coalesced": 0, "failed": 0}

    def test_failure_on_the_warm_path_is_not_a_failed_flight(self):
        batcher = RequestBatcher()

        def compute():
            raise ValueError("memo entry unusable")

        try:
            batcher.submit("k", compute, lambda: True)
        except ValueError:
            pass
        else:  # pragma: no cover - the compute's error must surface
            raise AssertionError("the compute's error was swallowed")
        assert batcher.stats() == {"computed": 0, "coalesced": 0, "failed": 0}
        assert batcher._flights == {}


class TestCheckThenSubmitRace:
    def test_straggler_that_saw_the_memo_cold_starts_no_second_flight(
        self, monkeypatch
    ):
        """Force the losing interleaving: the straggler reaches the batcher
        while the memo is still cold, the leader's preview then publishes to
        the memo and its flight retires, and only then does the straggler
        submit.  It must be answered from the memo, not lead a second
        flight."""
        service = ExplorationService(
            small_table(500),
            budget=1.0,
            registry=default_registry(mc_samples=100),
            seed=0,
        )
        service.register_analyst("leader")
        service.register_analyst("straggler")
        accuracy = AccuracySpec(alpha=200.0, beta=5e-4)

        def query():
            return WorkloadCountingQuery(
                histogram_workload("amount", start=0, stop=10_000, bins=13),
                name="hist",
            )

        real_submit = RequestBatcher.submit
        arrived = threading.Event()
        leader_done = threading.Event()

        def submit(self, *args, **kwargs):
            if threading.current_thread().name == "straggler":
                arrived.set()
                assert leader_done.wait(timeout=30)
            return real_submit(self, *args, **kwargs)

        monkeypatch.setattr(RequestBatcher, "submit", submit)
        previews = {}
        thread = threading.Thread(
            target=lambda: previews.update(
                straggler=service.preview_cost("straggler", query(), accuracy)
            ),
            name="straggler",
        )
        thread.start()
        assert arrived.wait(timeout=30)
        previews["leader"] = service.preview_cost("leader", query(), accuracy)
        leader_done.set()
        thread.join(timeout=30)
        assert not thread.is_alive()

        stats = service.stats()["batching"]
        assert stats["computed"] == 1
        assert stats["coalesced"] == 0
        assert previews["straggler"] == previews["leader"]

    def test_cold_preview_race_under_a_fine_switch_interval(self):
        """Eight analysts race one never-seen preview, 100 times over, with
        the interpreter switching threads every 10 microseconds: each round
        runs exactly one flight and builds the matrix once."""
        table = small_table(2_000)
        accuracy = AccuracySpec(alpha=200.0, beta=5e-4)
        n_threads = 8
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(100):
                clear_matrix_cache()
                service = ExplorationService(
                    table,
                    budget=5.0,
                    registry=default_registry(mc_samples=200),
                    seed=0,
                )
                for i in range(n_threads):
                    service.register_analyst(f"a{i}")
                built_before = service.stats()["workload_matrices"]["built"]
                barrier = threading.Barrier(n_threads)
                previews = [None] * n_threads

                def ask(i, service=service, barrier=barrier, previews=previews):
                    query = WorkloadCountingQuery(
                        histogram_workload("amount", start=0, stop=10_000, bins=11),
                        name="hist",
                    )
                    barrier.wait(timeout=10)
                    previews[i] = service.preview_cost(f"a{i}", query, accuracy)

                threads = [
                    threading.Thread(target=ask, args=(i,)) for i in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                stats = service.stats()
                assert stats["batching"]["computed"] == 1
                assert stats["batching"]["failed"] == 0
                assert stats["workload_matrices"]["built"] - built_before == 1
                assert previews[0] and all(p == previews[0] for p in previews)
        finally:
            sys.setswitchinterval(previous)
