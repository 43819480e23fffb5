"""The memo tier counters lose no update under threads.

``matrix_cache_stats()``, ``search_stats()`` and a shared translator's
``cache_stats`` are read by the warm-start gates ("zero builds, zero
searches") and by the end-to-end benchmark, and executor and service
threads bump them concurrently.  Eight threads each do
a known number of memo misses here, with aggressive preemption, and the
totals must come out exact.
"""

import sys
import threading

import pytest

from repro.core.accuracy import AccuracySpec
from repro.core.translator import AccuracyTranslator
from repro.data.schema import Attribute, NumericDomain, Schema
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.registry import MechanismRegistry
from repro.mechanisms.strategy_mechanism import (
    StrategyMechanism,
    reset_search_stats,
    search_stats,
)
from repro.queries.predicates import Comparison
from repro.queries.query import QueryKind, WorkloadCountingQuery
from repro.queries.workload import Workload, clear_matrix_cache, matrix_cache_stats

THREADS = 8
PER_THREAD = 40


@pytest.fixture(autouse=True)
def aggressive_preemption():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


def run_threads(work) -> None:
    start = threading.Barrier(THREADS)

    def body(tid):
        start.wait(timeout=30)
        work(tid)

    threads = [threading.Thread(target=body, args=(t,)) for t in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)


def test_matrix_built_counter_is_exact():
    # Exact analyses: every structural workload of one (L, sensitivity)
    # shares a single matrix, so only exact matrices are built per workload.
    schema = Schema([Attribute("x", NumericDomain(0, 1000))])
    clear_matrix_cache()

    def work(tid):
        for i in range(PER_THREAD):
            matrix = Workload([Comparison("x", ">", float(tid * PER_THREAD + i))]).analyze(
                schema
            )
            assert matrix.exact

    run_threads(work)
    stats = matrix_cache_stats()
    assert stats["built"] == THREADS * PER_THREAD
    assert {"built", "revalidated"} <= set(stats)
    clear_matrix_cache()
    assert matrix_cache_stats()["built"] == 0


def test_search_counter_is_exact():
    reset_search_stats()
    query = WorkloadCountingQuery(
        Workload([Comparison("x", ">", 0.0), Comparison("x", ">", 1.0)])
    )

    # ``searches`` counts R Z products, one per (seed, sample count,
    # reconstruction): a sample count per translation makes every one a
    # product of its own.
    def work(tid):
        for i in range(PER_THREAD):
            mechanism = StrategyMechanism(mc_samples=16 + tid * PER_THREAD + i)
            mechanism.translate(query, AccuracySpec(alpha=1.0 + i, beta=0.05))

    run_threads(work)
    expected = {"searches": THREADS * PER_THREAD, "disk_hits": 0, "disk_writes": 0}
    assert search_stats() == expected
    reset_search_stats()
    assert search_stats()["searches"] == 0


def test_translator_built_counter_is_exact():
    translator = AccuracyTranslator(
        MechanismRegistry([LaplaceMechanism(name="WCQ-LM", kinds=frozenset({QueryKind.WCQ}))])
    )

    def work(tid):
        for i in range(PER_THREAD):
            # Every query has the same structural matrix, so a distinct
            # alpha per call keeps each one a memo miss.
            call = tid * PER_THREAD + i
            query = WorkloadCountingQuery(Workload([Comparison("x", ">", float(call))]))
            translator.translations(query, AccuracySpec(alpha=10.0 + call, beta=0.05))

    run_threads(work)
    stats = translator.cache_stats
    assert stats["built"] == THREADS * PER_THREAD
    tiers = ("built", "disk_hits", "disk_writes", "coalesced")
    assert all(type(stats[key]) is int for key in tiers)
    translator.clear_cache()
    assert translator.cache_stats["built"] == 0
