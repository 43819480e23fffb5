"""Concurrent WCQ-SM translations share one immutable strategy per size.

Analyst threads translate distinct workloads of one partition count through
one mechanism, with aggressive preemption.  The mechanism must build that
size's strategy exactly once -- every workload's memoised reconstruction
pairs with the same object -- and every epsilon must equal the one a
sequential run on a fresh mechanism gives.
"""

import sys
import threading

import pytest

from repro.core.accuracy import AccuracySpec
from repro.data.schema import Attribute, NumericDomain, Schema
from repro.mechanisms.strategy_mechanism import StrategyMechanism
from repro.queries.builders import (
    cumulative_histogram_workload,
    histogram_workload,
    prefix_workload,
)
from repro.queries.query import WorkloadCountingQuery

SCHEMA = Schema([Attribute("x", NumericDomain(0, 1000))])
SIZE = 12
N_SAMPLES = 500
ACCURACY = AccuracySpec(alpha=40.0, beta=0.05)

QUERIES = [
    WorkloadCountingQuery(workload)
    for offset in (0.0, 7.0, 31.0)
    for workload in (
        prefix_workload("x", [offset + 60.0 * i for i in range(1, SIZE + 1)]),
        histogram_workload("x", start=offset, stop=offset + 900, bins=SIZE),
        cumulative_histogram_workload("x", start=offset, stop=offset + 900, bins=SIZE),
    )
]


@pytest.fixture(autouse=True)
def aggressive_preemption():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


def test_threads_share_one_strategy_and_match_a_sequential_run():
    matrices = [query.workload_matrix(SCHEMA) for query in QUERIES]
    assert {matrix.n_partitions for matrix in matrices} == {SIZE}
    assert len({matrix.cache_token for matrix in matrices}) == len(QUERIES)

    sequential = StrategyMechanism(mc_samples=N_SAMPLES)
    expected = [
        sequential.translate(query, ACCURACY, SCHEMA).epsilon_upper for query in QUERIES
    ]

    shared = StrategyMechanism(mc_samples=N_SAMPLES)
    start = threading.Barrier(len(QUERIES))
    epsilons: dict[int, float] = {}

    def body(index):
        start.wait(timeout=30)
        epsilons[index] = shared.translate(QUERIES[index], ACCURACY, SCHEMA).epsilon_upper

    threads = [threading.Thread(target=body, args=(i,)) for i in range(len(QUERIES))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)

    assert [epsilons[i] for i in range(len(QUERIES))] == expected
    assert shared._sized.stats()["inserts"] == 1
    strategies = {id(shared._strategies.get(m.cache_token)[0]) for m in matrices}
    assert len(strategies) == 1
