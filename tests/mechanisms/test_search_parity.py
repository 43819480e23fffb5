"""WCQ-SM/ICQ-SM epsilon equals the frozen from-scratch search, in bytes.

The production search slices a shared draw, shares one strategy per
partition count, takes ``|R Z|`` in place and partitions for its order
statistic.  :func:`repro.mechanisms.reference.strategy_search_epsilon` draws
afresh, builds its own strategy and sorts.  Over workload shapes and sizes,
hierarchical, identity and identity-fallback strategies, both sample counts
and failure probabilities whose accepted failure count ``k`` is zero and
positive, the two must agree to the last bit (``float.hex``).

The per-sample maxima behind that order statistic are shared process-wide by
reconstruction value, so the second property translates each drawn ``W``
through WCQ-SM and ICQ-SM, under a second query whose predicates differ but
whose matrix is equal, at two accuracies: every epsilon must still be the
oracle's, and the ``R Z`` products counted by ``search_stats`` must grow by
exactly one per distinct reconstruction.
"""

import functools

from hypothesis import given, settings, strategies as st

from repro.core.accuracy import AccuracySpec
from repro.data.schema import Attribute, NumericDomain, Schema
from repro.mechanisms.reference import strategy_search_epsilon
from repro.mechanisms.strategies import hierarchical_strategy, identity_strategy
from repro.mechanisms.strategy_mechanism import (
    IcebergStrategyMechanism,
    StrategyMechanism,
    _accepted_failures,
    reset_search_stats,
    search_stats,
)
from repro.queries.builders import (
    cumulative_histogram_workload,
    histogram_workload,
    prefix_workload,
)
from repro.queries.query import IcebergCountingQuery, QueryKind, WorkloadCountingQuery
from tests.mechanisms.util import total_only_strategy

SCHEMA = Schema([Attribute("x", NumericDomain(0, 1000))])
SAMPLE_COUNTS = (500, 10_000)
BETAS = (5e-4, 0.05, 0.2)


def h4_strategy(n_partitions: int):
    return hierarchical_strategy(n_partitions, branching=4)


FACTORIES = (hierarchical_strategy, h4_strategy, identity_strategy, total_only_strategy)


def workload(shape: str, size: int, stop: float = 1000.0):
    if shape == "prefix":
        return prefix_workload("x", [stop * i / (size + 1) for i in range(1, size + 1)])
    if shape == "histogram":
        return histogram_workload("x", start=0, stop=stop, bins=size)
    return cumulative_histogram_workload("x", start=0, stop=stop, bins=size)


@functools.cache
def mechanism(kind: QueryKind, factory, n_samples: int) -> StrategyMechanism:
    """One mechanism per configuration, shared across examples, so its
    per-size strategy memo serves workloads of other shapes too."""
    cls = StrategyMechanism if kind is QueryKind.WCQ else IcebergStrategyMechanism
    return cls(factory, mc_samples=n_samples)


def test_the_grid_covers_zero_and_positive_failure_counts():
    for n_samples in SAMPLE_COUNTS:
        counts = [_accepted_failures(n_samples, beta) for beta in BETAS]
        assert counts[0] == 0
        assert all(count > 0 for count in counts[1:])


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from(["prefix", "histogram", "cumulative"]),
    size=st.integers(1, 40),
    factory=st.sampled_from(FACTORIES),
    n_samples=st.sampled_from(SAMPLE_COUNTS),
    beta=st.sampled_from(BETAS),
    alpha=st.sampled_from([5.0, 50.0, 500.0]),
    kind=st.sampled_from([QueryKind.WCQ, QueryKind.ICQ]),
)
def test_epsilon_matches_the_frozen_search(
    shape, size, factory, n_samples, beta, alpha, kind
):
    searcher = mechanism(kind, factory, n_samples)
    query = (
        WorkloadCountingQuery(workload(shape, size))
        if kind is QueryKind.WCQ
        else IcebergCountingQuery(workload(shape, size), threshold=100)
    )
    epsilon = searcher.translate(query, AccuracySpec(alpha=alpha, beta=beta), SCHEMA)
    search_beta = beta if kind is QueryKind.WCQ else min(2.0 * beta, 0.999)
    expected = strategy_search_epsilon(
        factory,
        query.workload_matrix(SCHEMA).matrix,
        alpha,
        search_beta,
        n_samples=n_samples,
        seed=searcher._seed,
    )
    assert epsilon.epsilon_upper.hex() == expected.hex()


def query_of(kind: QueryKind, shape: str, size: int, stop: float):
    if kind is QueryKind.WCQ:
        return WorkloadCountingQuery(workload(shape, size, stop))
    return IcebergCountingQuery(workload(shape, size, stop), threshold=stop / 10)


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from(["prefix", "histogram", "cumulative"]),
    size=st.integers(1, 40),
    factory=st.sampled_from(FACTORIES),
    n_samples=st.sampled_from(SAMPLE_COUNTS),
    positive_beta=st.sampled_from(BETAS[1:]),
    alpha=st.sampled_from([5.0, 50.0, 500.0]),
)
def test_equal_reconstructions_share_one_product_and_keep_the_bytes(
    shape, size, factory, n_samples, positive_beta, alpha
):
    reset_search_stats()
    accuracies = [AccuracySpec(alpha=alpha, beta=beta) for beta in (BETAS[0], positive_beta)]
    assert _accepted_failures(n_samples, BETAS[0]) == 0
    assert _accepted_failures(n_samples, positive_beta) > 0
    expected = {}
    reconstructions = set()
    for kind in (QueryKind.WCQ, QueryKind.ICQ):
        cls = StrategyMechanism if kind is QueryKind.WCQ else IcebergStrategyMechanism
        searcher = cls(factory, mc_samples=n_samples)
        first, second = (query_of(kind, shape, size, stop) for stop in (1000.0, 700.0))
        assert first.cache_key(SCHEMA) != second.cache_key(SCHEMA)
        matrix = first.workload_matrix(SCHEMA).matrix
        assert (second.workload_matrix(SCHEMA).matrix == matrix).all()
        for query in (first, second):
            for accuracy in accuracies:
                search_beta = (
                    accuracy.beta if kind is QueryKind.WCQ else min(2.0 * accuracy.beta, 0.999)
                )
                if search_beta not in expected:
                    expected[search_beta] = strategy_search_epsilon(
                        factory, matrix, alpha, search_beta,
                        n_samples=n_samples, seed=searcher._seed,
                    )
                epsilon = searcher.translate(query, accuracy, SCHEMA).epsilon_upper
                assert epsilon.hex() == expected[search_beta].hex()
            _, reconstruction = searcher._strategy(query.workload_matrix(SCHEMA))
            reconstructions.add((reconstruction.shape, reconstruction.tobytes()))
    assert search_stats()["searches"] == len(reconstructions)
