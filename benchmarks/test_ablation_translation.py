"""Ablations of the accuracy-to-privacy translation design choices.

DESIGN.md calls out three knobs worth ablating:

* the Monte-Carlo sample size of the strategy mechanism's ``translate``
  (tightness of the found epsilon vs translation time),
* the strategy matrix itself (identity vs hierarchical H2 vs branching 4),
* the number of pokes ``m`` of the multi-poking mechanism.
"""

import time

import numpy as np
from repro.bench.reporting import report

from repro.core.accuracy import AccuracySpec
from repro.mechanisms.multi_poking import MultiPokingMechanism
from repro.mechanisms.strategies import hierarchical_strategy, identity_strategy
from repro.mechanisms.strategy_mechanism import StrategyMechanism
from repro.queries.builders import cumulative_histogram_workload, histogram_workload
from repro.queries.query import IcebergCountingQuery, WorkloadCountingQuery


def test_ablation_mc_samples(benchmark, query_config):
    """More MC samples buy a slightly tighter (never looser by much) epsilon."""
    table = query_config.build_benchmark().adult
    query = WorkloadCountingQuery(
        cumulative_histogram_workload("capital_gain", start=0, stop=5000, bins=100),
        name="ablation-mc",
    )
    accuracy = AccuracySpec(alpha=0.08 * len(table))

    def sweep():
        rows = []
        for samples in (200, 1_000, 5_000, 10_000):
            mechanism = StrategyMechanism(mc_samples=samples)
            start = time.perf_counter()
            translation = mechanism.translate(query, accuracy, table.schema)
            rows.append(
                {
                    "mc_samples": samples,
                    "epsilon": translation.epsilon_upper,
                    "translate_seconds": time.perf_counter() - start,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("Ablation: MC sample size", rows, ["mc_samples"], "epsilon")
    epsilons = {row["mc_samples"]: row["epsilon"] for row in rows}
    # all sample sizes land in the same ballpark (each epsilon is an order
    # statistic of the same failure-probability quantile, only estimated
    # from more or fewer Monte-Carlo samples)
    assert max(epsilons.values()) < 2.0 * min(epsilons.values())
    # and the largest sample size is not dramatically looser than the smallest
    assert epsilons[10_000] < epsilons[200] * 1.5


def test_ablation_strategy_matrix(benchmark, query_config):
    """H2 dominates the identity strategy on prefix workloads, not on histograms."""
    table = query_config.build_benchmark().adult
    accuracy = AccuracySpec(alpha=0.08 * len(table))
    prefix_query = WorkloadCountingQuery(
        cumulative_histogram_workload("capital_gain", start=0, stop=5000, bins=100),
        name="ablation-prefix",
    )
    histogram_query = WorkloadCountingQuery(
        histogram_workload("capital_gain", start=0, stop=5000, bins=100),
        name="ablation-hist",
    )

    def sweep():
        from repro.mechanisms.laplace import LaplaceMechanism

        rows = []
        factories = {
            "identity": identity_strategy,
            "H2": hierarchical_strategy,
            "H4": lambda n: hierarchical_strategy(n, branching=4),
        }
        for query_name, query in (("prefix", prefix_query), ("histogram", histogram_query)):
            baseline = LaplaceMechanism().translate(query, accuracy, table.schema)
            rows.append(
                {"strategy": "laplace-baseline", "workload": query_name,
                 "epsilon": baseline.epsilon_upper}
            )
            for name, factory in factories.items():
                mechanism = StrategyMechanism(factory, mc_samples=1_000, name=f"SM-{name}-{query_name}")
                translation = mechanism.translate(query, accuracy, table.schema)
                rows.append(
                    {"strategy": name, "workload": query_name, "epsilon": translation.epsilon_upper}
                )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("Ablation: strategy matrix", rows, ["workload", "strategy"], "epsilon")
    cost = {(r["workload"], r["strategy"]): r["epsilon"] for r in rows}
    # every strategy slashes the prefix-workload cost relative to plain Laplace
    for name in ("identity", "H2", "H4"):
        assert cost[("prefix", name)] < 0.2 * cost[("prefix", "laplace-baseline")]
    # for the max-error (L-infinity) objective the identity and hierarchical
    # strategies are comparable on this workload size; neither collapses
    assert cost[("prefix", "H2")] < 2.0 * cost[("prefix", "identity")]
    assert cost[("prefix", "identity")] < 2.0 * cost[("prefix", "H2")]
    # on a disjoint histogram the identity strategy is already near-optimal
    assert cost[("histogram", "identity")] <= cost[("histogram", "H2")] * 1.2


def test_ablation_poke_count(benchmark, query_config):
    """More pokes lower the best case but raise the worst case of ICQ-MPM."""
    table = query_config.build_benchmark().adult
    accuracy = AccuracySpec(alpha=0.08 * len(table))
    easy_query = IcebergCountingQuery(
        histogram_workload("capital_gain", start=0, stop=5000, bins=100),
        threshold=2.0 * len(table),
        name="ablation-easy-icq",
    )

    def sweep():
        rows = []
        rng = np.random.default_rng(0)
        for pokes in (1, 2, 5, 10, 20):
            mechanism = MultiPokingMechanism(n_pokes=pokes)
            translation = mechanism.translate(easy_query, accuracy, table.schema)
            actual = np.median(
                [mechanism.run(easy_query, accuracy, table, rng).epsilon_spent for _ in range(3)]
            )
            rows.append(
                {
                    "pokes": pokes,
                    "epsilon_upper": translation.epsilon_upper,
                    "epsilon_lower": translation.epsilon_lower,
                    "actual_epsilon": float(actual),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("Ablation: number of pokes", rows, ["pokes"], "actual_epsilon")
    by_pokes = {r["pokes"]: r for r in rows}
    # the worst case grows with m, the best case shrinks
    assert by_pokes[20]["epsilon_upper"] > by_pokes[1]["epsilon_upper"]
    assert by_pokes[20]["epsilon_lower"] < by_pokes[1]["epsilon_lower"]
    # for this easy threshold the actual cost tracks the best case
    assert by_pokes[10]["actual_epsilon"] < by_pokes[1]["actual_epsilon"]
