"""Concurrent WCQ-SM translations share one immutable strategy per size.

Analyst threads translate distinct workloads of one partition count through
one mechanism, with aggressive preemption.  The mechanism must build that
size's strategy exactly once -- every workload's memoised reconstruction
pairs with the same object -- and every epsilon must equal the one a
sequential run on a fresh mechanism gives.

WCQ-SM and ICQ-SM threads also translate workloads with equal
reconstructions at once: they read one process-wide maxima memo, which
must end up holding one entry per distinct reconstruction, and every
epsilon must still be a sequential run's.
"""

import sys
import threading

import pytest

from repro.core.accuracy import AccuracySpec
from repro.data.schema import Attribute, NumericDomain, Schema
from repro.mechanisms.strategy_mechanism import (
    _MAXIMA,
    IcebergStrategyMechanism,
    StrategyMechanism,
    reset_search_stats,
)
from repro.queries.builders import (
    cumulative_histogram_workload,
    histogram_workload,
    prefix_workload,
)
from repro.queries.query import IcebergCountingQuery, QueryKind, WorkloadCountingQuery

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


#: Cumulative WCQs and prefix ICQs of one size have equal matrices, and so
#: equal reconstructions; histograms have another.  Two distinct values.
MIXED = [
    query
    for offset in (0.0, 7.0, 31.0)
    for query in (
        WorkloadCountingQuery(
            cumulative_histogram_workload("x", start=offset, stop=offset + 900, bins=SIZE)
        ),
        IcebergCountingQuery(
            prefix_workload("x", [offset + 60.0 * i for i in range(1, SIZE + 1)]),
            threshold=offset + 50,
        ),
        WorkloadCountingQuery(
            histogram_workload("x", start=offset, stop=offset + 900, bins=SIZE)
        ),
    )
]


def run_threads(body, count: int) -> None:
    start = threading.Barrier(count)

    def run(index):
        start.wait(timeout=30)
        body(index)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)


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
    epsilons: dict[int, float] = {}

    def body(index):
        epsilons[index] = shared.translate(QUERIES[index], ACCURACY, SCHEMA).epsilon_upper

    run_threads(body, len(QUERIES))

    assert [epsilons[i] for i in range(len(QUERIES))] == expected
    assert shared._sized.stats()["inserts"] == 1
    strategies = {id(shared._strategies.get(m.cache_token)[0]) for m in matrices}
    assert len(strategies) == 1


def test_wcq_and_icq_threads_share_one_product_per_reconstruction():
    def mechanisms():
        return {
            QueryKind.WCQ: StrategyMechanism(mc_samples=N_SAMPLES),
            QueryKind.ICQ: IcebergStrategyMechanism(mc_samples=N_SAMPLES),
        }

    def translate(by_kind, query):
        return by_kind[query.kind].translate(query, ACCURACY, SCHEMA).epsilon_upper

    sequential = mechanisms()
    expected = [translate(sequential, query) for query in MIXED]
    reconstructions = {
        sequential[query.kind]._strategy(query.workload_matrix(SCHEMA))[1].tobytes()
        for query in MIXED
    }
    assert len(reconstructions) == 2

    reset_search_stats()
    shared = mechanisms()
    epsilons: dict[int, float] = {}

    def body(index):
        epsilons[index] = translate(shared, MIXED[index])

    run_threads(body, len(MIXED))
    assert [epsilons[i] for i in range(len(MIXED))] == expected
    assert len(_MAXIMA) == len(reconstructions)
    reset_search_stats()
