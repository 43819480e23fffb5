"""WCQ-SM/ICQ-SM epsilon equals the frozen from-scratch search, in bytes.

The production search slices a shared draw, shares one strategy per
partition count, takes ``|R Z|`` in place and partitions for its order
statistic.  :func:`repro.mechanisms.reference.strategy_search_epsilon` draws
afresh, builds its own strategy and sorts.  Over workload shapes and sizes,
hierarchical, identity and identity-fallback strategies, both sample counts
and failure probabilities whose accepted failure count ``k`` is zero and
positive, the two must agree to the last bit (``float.hex``).
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


def workload(shape: str, size: int):
    if shape == "prefix":
        return prefix_workload("x", [1000.0 * i / (size + 1) for i in range(1, size + 1)])
    if shape == "histogram":
        return histogram_workload("x", start=0, stop=1000, bins=size)
    return cumulative_histogram_workload("x", start=0, stop=1000, bins=size)


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
