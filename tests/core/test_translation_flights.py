"""Single flight in the translator: concurrent cold duplicates share one build.

When the memo misses, ``AccuracyTranslator.translations`` registers a
flight under the memo key (the query's ``translation_key`` plus accuracy
and registry generation).  Followers wait on the leader's latch and start
over from the memo probe; the leader re-probes the memo once, computes,
publishes and retires the flight.  These tests pin:

* a burst of identical cold requests builds one list and one matrix, and so
  does a burst over equal predicates under other names and ICQ thresholds;
* distinct keys never wait on each other;
* a failing leader shares no exception: each follower computes (and fails)
  on its own, and no flight is left behind;
* a straggler whose probe missed just before a flight retired takes the
  memo hit instead of building again;
* a lone leader leaves no registry entry and counts no extra miss;
* warm requests (another query over a memoised matrix included) and
  unkeyed requests never touch the flight registry;
* every way out of a flight (success, ``TranslationError``, a failing
  matrix build, a ``BaseException``) retires it;
* coalescing shares the translation only: each caller gets its own list
  and applies its own admission filter;
* the disk tier under a burst is loaded or written once.

The module runs under the lock-order watchdog: latches nest outside the
flight registry's lock, which is a leaf.
"""

import sys
import threading
import time

import pytest

from repro.analysis.runtime import LockOrderWatchdog
from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import TranslationError
from repro.core.lru import LRUCache
from repro.core.translator import AccuracyTranslator, MechanismChoice
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.registry import MechanismRegistry
from repro.queries.predicates import Comparison
from repro.queries.query import IcebergCountingQuery, QueryKind, WorkloadCountingQuery
from repro.queries.workload import Workload, clear_matrix_cache, matrix_cache_stats
from repro.store import ArtifactStore
from tests.store.test_schema_keys import make_schema

SCHEMA = make_schema()
ACCURACY = AccuracySpec(alpha=20.0, beta=1e-3)
THREADS = 8


@pytest.fixture(autouse=True, scope="module")
def lock_order_watchdog():
    watchdog = LockOrderWatchdog(mode="record")
    watchdog.install()
    yield watchdog
    watchdog.uninstall()
    inversions = [v for v in watchdog.violations if v.kind == "inversion"]
    if inversions:
        pytest.fail(
            "lock-order inversions observed during the flight tests:\n"
            + "\n".join(v.render() for v in inversions)
        )


@pytest.fixture(autouse=True)
def _fresh_matrix_memo():
    clear_matrix_cache()
    yield


class SlowLaplace(LaplaceMechanism):
    """WCQ-LM whose translation first runs ``before()``; records each call."""

    def __init__(self, before=lambda: None, name="WCQ-LM", kind=QueryKind.WCQ):
        super().__init__(name=name, kinds=frozenset({kind}))
        self.before = before
        self.calls = []

    def translate(self, query, accuracy, schema=None):
        self.calls.append(threading.get_ident())
        self.before()
        return super().translate(query, accuracy, schema)


def make_query(*cuts):
    return WorkloadCountingQuery(
        Workload([Comparison("score", ">", cut) for cut in cuts or (10.0, 50.0)])
    )


def translate(translator, query, accuracy=ACCURACY):
    return translator.translations(query, accuracy, SCHEMA)


def results(translations):
    return [result for _, result in translations]


def memo_key(translator, query, accuracy=ACCURACY):
    """The memo's (and the flights') key, at the registry's generation."""
    return (
        query.translation_key(SCHEMA),
        accuracy.alpha,
        accuracy.beta,
        translator.registry.generation,
    )


class RecordingFlights(dict):
    """A flight registry that logs each registration as ``(key, led)``.

    ``led`` is true when the caller's own latch was registered (it leads)
    and false when it found another caller's flight (it follows).
    """

    def __init__(self):
        super().__init__()
        self.joins = []

    def setdefault(self, key, latch):
        flight = super().setdefault(key, latch)
        self.joins.append((key, flight is latch))
        return flight


def recording(translator):
    translator._flights = RecordingFlights()
    return translator._flights


def wait_until(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.001)


def burst(n_threads, work):
    """Run ``work(i)`` on ``n_threads`` threads released by one barrier.

    Returns each thread's result or raised exception, by index.
    """
    start = threading.Barrier(n_threads)
    outcomes = [None] * n_threads

    def body(i):
        start.wait(timeout=30)
        try:
            outcomes[i] = work(i)
        except Exception as exc:
            outcomes[i] = exc

    threads = [threading.Thread(target=body, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    return outcomes


class TestFlights:
    def test_identical_cold_burst_builds_once(self):
        mechanism = SlowLaplace(lambda: time.sleep(0.05))
        translator = AccuracyTranslator(MechanismRegistry([mechanism]))
        built_before = matrix_cache_stats()["built"]

        outcomes = burst(THREADS, lambda i: translate(translator, make_query()))

        assert all(isinstance(out, list) and out for out in outcomes)
        assert all(out == outcomes[0] for out in outcomes)
        stats = translator.cache_stats
        assert stats["built"] == 1
        assert len(mechanism.calls) == 1
        assert matrix_cache_stats()["built"] - built_before == 1
        # Every other caller is answered by the memo, after waiting
        # on the flight or (arriving late) straight away.
        assert stats["hits"] == THREADS - 1
        assert 1 <= stats["coalesced"] <= THREADS - 1
        assert translator._flights == {}

    def test_distinct_keys_run_concurrently(self):
        both_inside = threading.Barrier(2, timeout=10)
        mechanism = SlowLaplace(both_inside.wait)  # breaks unless both overlap
        translator = AccuracyTranslator(MechanismRegistry([mechanism]))

        outcomes = burst(2, lambda i: translate(translator, make_query(10.0 + i)))

        assert all(isinstance(out, list) and out for out in outcomes)
        stats = translator.cache_stats
        assert (stats["built"], stats["coalesced"]) == (2, 0)

    def test_failing_leader_makes_each_follower_fail_on_its_own(self):
        def fail():
            time.sleep(0.1)  # long enough for the burst to join the flight
            raise RuntimeError("translation failed")

        mechanism = SlowLaplace(fail)
        translator = AccuracyTranslator(MechanismRegistry([mechanism]))

        outcomes = burst(THREADS, lambda i: translate(translator, make_query()))

        assert all(isinstance(out, RuntimeError) for out in outcomes)
        # No exception crosses threads: every caller raised its own.
        assert len({id(out) for out in outcomes}) == THREADS
        assert len(mechanism.calls) == len(set(mechanism.calls)) == THREADS
        stats = translator.cache_stats
        assert stats["built"] == 0
        assert stats["coalesced"] >= 1
        assert translator._flights == {}

    def test_lone_leader_leaves_no_registry_entry(self, lock_order_watchdog):
        inside = []
        mechanism = SlowLaplace(lambda: inside.append(list(translator._flights)))
        translator = AccuracyTranslator(MechanismRegistry([mechanism]))
        query = make_query()

        assert translate(translator, query)

        key = memo_key(translator, query)
        assert inside == [[key]]
        assert translator._flights == {}
        stats = translator.cache_stats
        # The leader's re-probe of the memo counts no second miss.
        assert (stats["misses"], stats["built"], stats["coalesced"]) == (1, 1, 0)
        # The registry lock is a leaf: nothing is acquired while it is held.
        registry_site = translator._flights_lock.site
        assert not [edge for edge in lock_order_watchdog._edges if edge[0] == registry_site]

    def test_distinct_accuracies_do_not_coalesce(self):
        both_inside = threading.Barrier(2, timeout=10)
        mechanism = SlowLaplace(both_inside.wait)  # breaks unless both overlap
        translator = AccuracyTranslator(MechanismRegistry([mechanism]))
        query = make_query()
        accuracies = [ACCURACY, AccuracySpec(alpha=30.0, beta=1e-3)]

        outcomes = burst(2, lambda i: translate(translator, query, accuracies[i]))

        assert all(isinstance(out, list) and out for out in outcomes)
        assert outcomes[0] != outcomes[1]
        stats = translator.cache_stats
        assert (stats["built"], stats["coalesced"]) == (2, 0)
        assert translator._flights == {}

    def test_burst_over_two_keys_builds_each_once(self):
        mechanism = SlowLaplace(lambda: time.sleep(0.05))
        translator = AccuracyTranslator(MechanismRegistry([mechanism]))

        outcomes = burst(THREADS, lambda i: translate(translator, make_query(10.0 + i % 2)))

        assert all(out == outcomes[i % 2] for i, out in enumerate(outcomes))
        stats = translator.cache_stats
        assert stats["built"] == len(mechanism.calls) == 2
        assert stats["hits"] == THREADS - 2
        assert translator._flights == {}

    def test_cold_burst_over_one_matrix_builds_one_list_and_one_matrix(self):
        """Equal predicates under other names and ICQ thresholds share one
        memo key, so they share one flight."""
        mechanism = SlowLaplace(lambda: time.sleep(0.05), name="ICQ-LM", kind=QueryKind.ICQ)
        translator = AccuracyTranslator(MechanismRegistry([mechanism]))
        predicates = make_query().workload.predicates
        queries = [
            IcebergCountingQuery(
                Workload(predicates, [f"bin{i}.{j}" for j in range(len(predicates))]),
                float(i),
                name=f"q{i}",
            )
            for i in range(THREADS)
        ]
        assert len({query.cache_key(SCHEMA) for query in queries}) == THREADS
        built_before = matrix_cache_stats()["built"]

        outcomes = burst(THREADS, lambda i: translate(translator, queries[i]))

        assert all(isinstance(out, list) and out for out in outcomes)
        assert len({id(out) for out in outcomes}) == THREADS
        expected = list(outcomes[1])
        outcomes[0].clear()  # a caller mutating its list touches nobody else's
        assert all(out == expected for out in outcomes[1:])
        stats = translator.cache_stats
        assert stats["built"] == len(mechanism.calls) == 1
        assert stats["hits"] == THREADS - 1
        assert 1 <= stats["coalesced"] <= THREADS - 1
        assert matrix_cache_stats()["built"] - built_before == 1
        assert translator._flights == {}

    def test_every_caller_gets_its_own_list(self):
        mechanism = SlowLaplace(lambda: time.sleep(0.05))
        translator = AccuracyTranslator(MechanismRegistry([mechanism]))

        outcomes = burst(THREADS, lambda i: translate(translator, make_query()))

        assert len({id(out) for out in outcomes}) == THREADS
        expected = list(outcomes[1])
        outcomes[0].clear()  # a caller mutating its list touches nobody else's
        assert all(out == expected for out in outcomes[1:])
        assert translate(translator, make_query()) == expected

    def test_translation_may_translate_another_key_inside_its_flight(self):
        """A leader holds its latch while it computes, but not the registry
        lock: a mechanism may itself translate another key."""
        seen = []

        def nested():
            if not seen:
                seen.append(None)
                inner.append(translate(translator, make_query(99.0)))
            else:
                seen.append(set(translator._flights))

        inner = []
        translator = AccuracyTranslator(MechanismRegistry([SlowLaplace(nested)]))
        outer_query = make_query()

        assert translate(translator, outer_query)

        assert inner and inner[0]
        assert seen[1] == {
            memo_key(translator, outer_query),
            memo_key(translator, make_query(99.0)),
        }
        stats = translator.cache_stats
        assert (stats["built"], stats["coalesced"]) == (2, 0)
        assert translator._flights == {}

    def test_flights_are_per_translator(self):
        both_inside = threading.Barrier(2, timeout=10)
        translators = [
            AccuracyTranslator(MechanismRegistry([SlowLaplace(both_inside.wait)]))
            for _ in range(2)
        ]

        outcomes = burst(2, lambda i: translate(translators[i], make_query()))

        # Each translator pairs the results with its own mechanism.
        assert results(outcomes[0]) == results(outcomes[1]) and outcomes[0]
        for translator in translators:
            stats = translator.cache_stats
            assert (stats["built"], stats["coalesced"]) == (1, 0)
            assert translator._flights == {}

    def test_coalesced_choices_filter_admission_per_caller(self):
        """Followers share the leader's translation list, not its decision:
        each applies its own remaining budget to it."""
        epsilon = AccuracyTranslator(MechanismRegistry([SlowLaplace()])).choose(
            make_query(), ACCURACY, SCHEMA
        ).epsilon_upper
        translator = AccuracyTranslator(
            MechanismRegistry([SlowLaplace(lambda: time.sleep(0.05))])
        )
        budgets = [10 * epsilon, epsilon / 2] * (THREADS // 2)

        outcomes = burst(
            THREADS,
            lambda i: translator.choose(
                make_query(), ACCURACY, SCHEMA, budget_remaining=budgets[i]
            ),
        )

        for budget, outcome in zip(budgets, outcomes):
            if budget > epsilon:
                assert isinstance(outcome, MechanismChoice)
                assert outcome.epsilon_upper == epsilon
            else:
                assert outcome is None
        assert translator.cache_stats["built"] == 1


class TestFollowers:
    def test_duplicate_of_an_in_flight_key_waits_and_builds_nothing(self):
        entered, release = threading.Event(), threading.Event()
        mechanism = SlowLaplace(lambda: (entered.set(), release.wait(30)))
        translator = AccuracyTranslator(MechanismRegistry([mechanism]))
        flights = recording(translator)
        query = make_query()
        out = {}

        leader = threading.Thread(target=lambda: out.update(leader=translate(translator, query)))
        leader.start()
        assert entered.wait(timeout=30)
        follower = threading.Thread(
            target=lambda: out.update(follower=translate(translator, make_query()))
        )
        follower.start()
        wait_until(lambda: len(flights.joins) == 2)
        assert follower.is_alive()  # parked on the leader's latch
        release.set()
        for thread in (leader, follower):
            thread.join(timeout=30)
            assert not thread.is_alive()

        key = memo_key(translator, query)
        assert flights.joins == [(key, True), (key, False)]
        assert out["follower"] == out["leader"]
        assert len(mechanism.calls) == 1
        stats = translator.cache_stats
        assert (stats["built"], stats["coalesced"], stats["hits"]) == (1, 1, 1)
        assert flights == {}

    def test_coalesced_counts_each_caller_that_waited(self):
        translator = AccuracyTranslator(
            MechanismRegistry([SlowLaplace(lambda: time.sleep(0.05))])
        )
        flights = recording(translator)

        burst(THREADS, lambda i: translate(translator, make_query()))

        followers = sum(1 for _, led in flights.joins if not led)
        assert translator.cache_stats["coalesced"] == followers >= 1
        assert translator.cache_stats["built"] == 1

    def test_follower_of_a_failed_flight_leads_its_own(self):
        """The leader's error stays in its thread; the follower starts over,
        leads a fresh flight, and succeeds when the failure was the leader's
        alone."""
        entered, release = threading.Event(), threading.Event()
        attempts = []

        def fail_first():
            attempts.append(threading.get_ident())
            if len(attempts) == 1:
                entered.set()
                release.wait(30)
                raise RuntimeError("transient")

        mechanism = SlowLaplace(fail_first)
        translator = AccuracyTranslator(MechanismRegistry([mechanism]))
        flights = recording(translator)
        query = make_query()
        built_before = matrix_cache_stats()["built"]
        out = {}

        def run(role):
            try:
                out[role] = translate(translator, make_query())
            except RuntimeError as exc:
                out[role] = exc

        leader = threading.Thread(target=run, args=("leader",))
        leader.start()
        assert entered.wait(timeout=30)
        follower = threading.Thread(target=run, args=("follower",))
        follower.start()
        wait_until(lambda: len(flights.joins) == 2)
        release.set()
        for thread in (leader, follower):
            thread.join(timeout=30)
            assert not thread.is_alive()

        assert isinstance(out["leader"], RuntimeError)
        assert isinstance(out["follower"], list) and out["follower"]
        key = memo_key(translator, query)
        assert flights.joins == [(key, True), (key, False), (key, True)]
        stats = translator.cache_stats
        assert (stats["built"], stats["coalesced"]) == (1, 1)
        assert matrix_cache_stats()["built"] - built_before == 1
        assert flights == {}


class TestNoFlight:
    def test_warm_hit_registers_no_flight(self):
        translator = AccuracyTranslator(MechanismRegistry([SlowLaplace()]))
        first = translate(translator, make_query())
        flights = recording(translator)

        assert translate(translator, make_query()) == first

        assert flights.joins == []
        assert translator.cache_stats["hits"] == 1

    def test_another_threshold_over_the_matrix_registers_no_flight(self):
        mechanism = SlowLaplace(name="ICQ-LM", kind=QueryKind.ICQ)
        translator = AccuracyTranslator(MechanismRegistry([mechanism]))
        workload = make_query().workload
        translate(translator, IcebergCountingQuery(workload, 5.0))
        flights = recording(translator)

        # Another threshold shares the matrix, so it shares the memo key.
        assert translate(translator, IcebergCountingQuery(workload, 50.0))

        assert flights.joins == []
        stats = translator.cache_stats
        assert (stats["hits"], stats["built"]) == (1, 1)

    def test_unkeyed_request_registers_no_flight(self):
        class Unkeyed(WorkloadCountingQuery):
            def translation_key(self, schema=None):
                return None

        mechanism = SlowLaplace(lambda: time.sleep(0.01))
        translator = AccuracyTranslator(MechanismRegistry([mechanism]))
        flights = recording(translator)

        outcomes = burst(4, lambda i: translate(translator, Unkeyed(make_query().workload)))

        assert all(isinstance(out, list) and out for out in outcomes)
        assert flights.joins == []
        stats = translator.cache_stats
        assert stats["coalesced"] == 0
        assert stats["size"] == 0  # nothing enters the memo

    def test_untranslatable_request_leaves_no_flight_and_memoises_nothing(self):
        def refuse():
            raise TranslationError("accuracy too loose")

        mechanism = SlowLaplace(refuse)
        translator = AccuracyTranslator(MechanismRegistry([mechanism]))

        for attempt in (1, 2):
            with pytest.raises(TranslationError, match="no mechanism could translate"):
                translate(translator, make_query())
            assert translator._flights == {}
            assert len(mechanism.calls) == attempt  # a retry computes again
        stats = translator.cache_stats
        assert (stats["built"], stats["size"]) == (0, 0)

    def test_failing_matrix_build_leaves_no_flight(self):
        class Broken(WorkloadCountingQuery):
            def workload_matrix(self, schema=None):
                raise RuntimeError("domain analysis failed")

        translator = AccuracyTranslator(MechanismRegistry([SlowLaplace()]))
        workload = make_query().workload

        with pytest.raises(RuntimeError, match="domain analysis failed"):
            translate(translator, Broken(workload))
        assert translator._flights == {}
        # The same memo key leads a fresh flight and builds.
        assert translate(translator, WorkloadCountingQuery(workload))
        assert translator.cache_stats["built"] == 1
        assert translator._flights == {}

    def test_base_exception_in_the_leader_retires_the_flight(self):
        class Abort(BaseException):
            pass

        def abort():
            raise Abort()

        mechanism = SlowLaplace(abort)
        translator = AccuracyTranslator(MechanismRegistry([mechanism]))

        with pytest.raises(Abort):
            translate(translator, make_query())
        assert translator._flights == {}
        mechanism.before = lambda: None
        assert translate(translator, make_query())
        assert translator.cache_stats["built"] == 1

    def test_sequential_requests_after_clear_cache_lead_fresh_flights(self):
        mechanism = SlowLaplace()
        translator = AccuracyTranslator(MechanismRegistry([mechanism]))
        flights = recording(translator)
        query = make_query()

        first = translate(translator, query)
        translator.clear_cache()
        assert translate(translator, query) == first

        assert flights.joins == [(memo_key(translator, query), True)] * 2
        assert len(mechanism.calls) == 2
        assert translator.cache_stats["coalesced"] == 0
        assert flights == {}


class TestFlightsWithStore:
    def test_cold_burst_writes_the_store_once(self, tmp_path):
        translator = AccuracyTranslator(
            MechanismRegistry([SlowLaplace(lambda: time.sleep(0.05))]),
            store=ArtifactStore(str(tmp_path)),
        )

        outcomes = burst(THREADS, lambda i: translate(translator, make_query()))

        assert all(out == outcomes[0] for out in outcomes)
        stats = translator.cache_stats
        assert (stats["built"], stats["disk_hits"], stats["disk_writes"]) == (1, 0, 1)

    def test_burst_over_a_warm_store_loads_once_and_builds_no_matrix(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        warm = translate(
            AccuracyTranslator(MechanismRegistry([SlowLaplace()]), store=store), make_query()
        )
        clear_matrix_cache()
        built_before = matrix_cache_stats()["built"]

        def slow_load(kind, digest, load=store.load):
            time.sleep(0.05)  # keep the flight open while the burst arrives
            return load(kind, digest)

        store.load = slow_load
        translator = AccuracyTranslator(MechanismRegistry([SlowLaplace()]), store=store)

        outcomes = burst(THREADS, lambda i: translate(translator, make_query()))

        assert all(results(out) == results(warm) for out in outcomes)
        stats = translator.cache_stats
        assert (stats["built"], stats["disk_hits"], stats["disk_writes"]) == (0, 1, 0)
        assert stats["hits"] == THREADS - 1
        assert matrix_cache_stats()["built"] == built_before


class TestStraggler:
    @pytest.fixture(autouse=True)
    def _fine_switch_interval(self):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(previous)

    def test_straggler_after_a_retiring_flight_builds_nothing(self):
        """Force the losing interleaving: the straggler misses the memo, the
        leader then builds, publishes and retires, and only then does the
        straggler register.  Its re-probe takes the memo hit."""
        translator = AccuracyTranslator(MechanismRegistry([SlowLaplace()]))
        probed, leader_done = threading.Event(), threading.Event()

        class LateProbe(LRUCache):
            def get(self, key):
                cached = super().get(key)
                if threading.current_thread().name == "straggler" and not probed.is_set():
                    probed.set()
                    assert leader_done.wait(timeout=30)
                return cached  # the probe ran before the leader's publish

        translator._translation_cache = LateProbe(translator.CACHE_MAX_ENTRIES)
        built_before = matrix_cache_stats()["built"]
        out = {}
        thread = threading.Thread(
            target=lambda: out.update(straggler=translate(translator, make_query())),
            name="straggler",
        )
        thread.start()
        assert probed.wait(timeout=30)
        out["leader"] = translate(translator, make_query())
        leader_done.set()
        thread.join(timeout=30)
        assert not thread.is_alive()

        assert out["straggler"] == out["leader"]
        stats = translator.cache_stats
        assert (stats["misses"], stats["hits"]) == (2, 1)
        assert (stats["built"], stats["coalesced"]) == (1, 0)
        assert matrix_cache_stats()["built"] - built_before == 1
        assert translator._flights == {}

    def test_cold_race_builds_once_every_round(self):
        for round_ in range(50):
            clear_matrix_cache()
            mechanism = SlowLaplace()
            translator = AccuracyTranslator(MechanismRegistry([mechanism]))
            outcomes = burst(4, lambda i: translate(translator, make_query()))
            assert all(out == outcomes[0] for out in outcomes), round_
            assert len(mechanism.calls) == 1, round_
            assert matrix_cache_stats()["built"] == 1, round_
            assert translator._flights == {}
