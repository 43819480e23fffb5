"""Experiment runners for every table and figure of the paper's evaluation.

Each ``run_*`` function regenerates the data series behind one table or
figure of the paper (Section 7: query benchmark, Section 8: entity-resolution
case study) and returns a list of flat record dicts that
:mod:`repro.bench.reporting` can render.  The functions take a configuration
object so the pytest benchmarks can run scaled-down versions (fewer repeats,
smaller synthetic NYTaxi) while `EXPERIMENTS.md` documents the full-size
settings.

Empirical error definitions follow Section 7.1:

* WCQ: ``max_i |noisy_i - true_i| / |D|``;
* ICQ / TCQ: the scaled maximum distance of *mislabelled* predicates from the
  threshold (``c`` for ICQ, the true k-th largest count for TCQ), 0 when the
  answer makes no mistake.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, MutableMapping, Sequence

import numpy as np

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import TranslationError
from repro.core.engine import APExEngine
from repro.core.translator import AccuracyTranslator, SelectionMode
from repro.bench.queries import BenchmarkQuery, QueryBenchmark, build_benchmark
from repro.data.citations import generate_citation_pairs, pairs_to_table
from repro.data.table import Table
from repro.er.cleaner import CleanerModel
from repro.er.metrics import f1_sets
from repro.er.predicates import SimilarityCache
from repro.er.strategies import (
    BlockingStrategyICQ,
    BlockingStrategyWCQ,
    MatchingStrategyICQ,
    MatchingStrategyWCQ,
)
from repro.mechanisms.base import Mechanism
from repro.mechanisms.registry import MechanismRegistry, default_registry
from repro.obs.registry import Histogram
from repro.queries.builders import (
    cumulative_histogram_workload,
    histogram_workload,
    marginal_workload,
    point_workload,
)
from repro.queries.query import (
    IcebergCountingQuery,
    Query,
    QueryKind,
    TopKCountingQuery,
    WorkloadCountingQuery,
)

__all__ = [
    "ExperimentConfig",
    "ERExperimentConfig",
    "run_figure2",
    "run_figure3",
    "run_table2",
    "run_figure4a",
    "run_figure4b",
    "run_figure4c",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "empirical_error",
    "last_run_timings",
    "clear_run_timings",
    "run_timing_stats",
]

#: The alpha sweep used throughout Section 7 (fractions of |D|).
PAPER_ALPHA_FRACTIONS = (0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64)
#: The paper's default failure probability.
PAPER_BETA = 5e-4

class RunTimings(MutableMapping[str, float]):
    """Thread-safe wall-clock record of timed runs, with full distributions.

    Drop-in compatible with the plain dict this used to be
    (``RUN_TIMINGS[name] = seconds``; iteration/lookup sees the most recent
    sample per key), but every assignment additionally feeds a per-key
    :class:`repro.obs.registry.Histogram`, so concurrent writers never lose
    a sample and the full distribution stays answerable.  :meth:`stats`
    exposes count/mean/min/max/p50/p95 per key; :func:`last_run_timings`
    keeps its historical last-sample shape.
    """

    def __init__(self) -> None:
        # One lock guards both maps; each per-key histogram has its own lock.
        self._lock = threading.Lock()
        self._last: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def __setitem__(self, name: str, seconds: float) -> None:
        with self._lock:
            self._last[name] = seconds
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
        histogram.observe(seconds)

    def __getitem__(self, name: str) -> float:
        with self._lock:
            return self._last[name]

    def __delitem__(self, name: str) -> None:
        with self._lock:
            del self._last[name]
            self._histograms.pop(name, None)

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._last))

    def __len__(self) -> int:
        with self._lock:
            return len(self._last)

    def clear(self) -> None:
        with self._lock:
            self._last.clear()
            self._histograms.clear()

    def stats(self) -> dict[str, dict[str, float]]:
        """Per-key aggregates over *every* sample since the last clear."""
        with self._lock:
            histograms = dict(self._histograms)
        return {
            name: histogram.snapshot()
            for name, histogram in sorted(histograms.items())
        }


#: Wall-clock seconds of the timed runs recorded so far: the most recent
#: invocation of each ``run_*`` experiment (``"figure2"``, ``"table2"``, ...).
#: Mapping reads see the last sample per key; ``RUN_TIMINGS.stats()`` /
#: :func:`run_timing_stats` aggregate the full per-key distributions.
RUN_TIMINGS = RunTimings()


def _timed(name: str) -> Callable:
    """Record each run's wall-clock time under ``name`` in :data:`RUN_TIMINGS`."""

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            RUN_TIMINGS[name] = time.perf_counter() - start
            return result

        return wrapper

    return decorate


def last_run_timings() -> dict[str, float]:
    """A copy of the per-experiment wall-clock timings recorded so far."""
    return dict(RUN_TIMINGS)


def clear_run_timings() -> None:
    RUN_TIMINGS.clear()


def run_timing_stats() -> dict[str, dict[str, float]]:
    """Aggregates (count/mean/min/max/p50/p95) of every timed run per key."""
    return RUN_TIMINGS.stats()


@dataclass
class ExperimentConfig:
    """Knobs shared by the query-benchmark experiments (Figures 2-4, Table 2)."""

    adult_rows: int = 32_561
    nytaxi_rows: int = 200_000
    alpha_fractions: Sequence[float] = PAPER_ALPHA_FRACTIONS
    beta: float = PAPER_BETA
    n_runs: int = 10
    mc_samples: int = 2_000
    n_pokes: int = 10
    seed: int = 0
    queries: Sequence[str] | None = None
    benchmark: QueryBenchmark | None = field(default=None, repr=False)

    def build_benchmark(self) -> QueryBenchmark:
        if self.benchmark is None:
            self.benchmark = build_benchmark(
                adult_rows=self.adult_rows,
                nytaxi_rows=self.nytaxi_rows,
                seed=self.seed,
            )
        return self.benchmark

    def registry(self) -> MechanismRegistry:
        return default_registry(mc_samples=self.mc_samples, n_pokes=self.n_pokes)

    def selected(self, benchmark: QueryBenchmark) -> list[BenchmarkQuery]:
        if self.queries is None:
            return list(benchmark)
        return [benchmark[name] for name in self.queries]


@dataclass
class ERExperimentConfig:
    """Knobs for the entity-resolution case study (Figures 5-7)."""

    n_pairs: int = 4_000
    alpha_fraction: float = 0.08
    alpha_fractions: Sequence[float] = (0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64)
    beta: float = PAPER_BETA
    budgets: Sequence[float] = (0.1, 0.2, 0.5, 1.0, 1.5, 2.0)
    fixed_budget: float = 1.0
    n_runs: int = 10
    strategies: Sequence[str] = ("BS1", "BS2", "MS1", "MS2")
    seed: int = 0
    mc_samples: int = 1_000
    table: Table | None = field(default=None, repr=False)
    cache: SimilarityCache | None = field(default=None, repr=False)

    def build_table(self) -> tuple[Table, SimilarityCache]:
        if self.table is None:
            pairs = generate_citation_pairs(self.n_pairs, seed=self.seed)
            self.table = pairs_to_table(pairs)
            self.cache = SimilarityCache(self.table)
        assert self.cache is not None
        return self.table, self.cache


_STRATEGY_CLASSES = {
    "BS1": BlockingStrategyWCQ,
    "BS2": BlockingStrategyICQ,
    "MS1": MatchingStrategyWCQ,
    "MS2": MatchingStrategyICQ,
}


# ---------------------------------------------------------------------------
# Empirical error (Section 7.1 metrics)
# ---------------------------------------------------------------------------


def empirical_error(
    query: Query, table: Table, answer: np.ndarray | list[str]
) -> float:
    """The paper's empirical error of one noisy answer, scaled by |D|."""
    scale = max(len(table), 1)
    true_counts = query.true_counts(table)
    names = list(query.bin_names())
    if query.kind is QueryKind.WCQ:
        noisy = np.asarray(answer, dtype=float)
        return float(np.max(np.abs(noisy - true_counts))) / scale
    reported = set(answer)  # type: ignore[arg-type]
    if query.kind is QueryKind.ICQ:
        assert isinstance(query, IcebergCountingQuery)
        threshold = query.threshold
    else:
        assert isinstance(query, TopKCountingQuery)
        threshold = query.kth_largest_count(table)
        true_top = set(query.true_answer(table))
    worst = 0.0
    for index, name in enumerate(names):
        count = true_counts[index]
        if query.kind is QueryKind.ICQ:
            wrongly_included = name in reported and count <= threshold
            wrongly_excluded = name not in reported and count > threshold
        else:
            wrongly_included = name in reported and name not in true_top
            wrongly_excluded = name not in reported and name in true_top
        if wrongly_included or wrongly_excluded:
            worst = max(worst, abs(count - threshold))
    return worst / scale


# ---------------------------------------------------------------------------
# Figure 2 / Figure 3: privacy cost vs empirical error (optimal mechanism)
# ---------------------------------------------------------------------------


@_timed("figure2")
def run_figure2(config: ExperimentConfig | None = None) -> list[dict[str, object]]:
    """Privacy cost and empirical error for the 12 queries across the alpha sweep."""
    config = config or ExperimentConfig()
    benchmark = config.build_benchmark()
    registry = config.registry()
    translator = AccuracyTranslator(registry, SelectionMode.OPTIMISTIC)
    rng = np.random.default_rng(config.seed)
    records: list[dict[str, object]] = []
    for entry in config.selected(benchmark):
        table = benchmark.table_for(entry)
        for fraction in config.alpha_fractions:
            accuracy = AccuracySpec(alpha=fraction * len(table), beta=config.beta)
            choice = translator.choose(entry.query, accuracy, table.schema)
            assert choice is not None
            for run in range(config.n_runs):
                result = choice.mechanism.run(entry.query, accuracy, table, rng=rng)
                records.append(
                    {
                        "figure": "2",
                        "query": entry.name,
                        "dataset": entry.dataset,
                        "kind": entry.kind,
                        "alpha_fraction": fraction,
                        "alpha": accuracy.alpha,
                        "run": run,
                        "mechanism": choice.mechanism.name,
                        "epsilon_upper": choice.translation.epsilon_upper,
                        "epsilon": result.epsilon_spent,
                        "empirical_error": empirical_error(
                            entry.query, table, result.value
                        ),
                    }
                )
    return records


@_timed("figure3")
def run_figure3(
    config: ExperimentConfig | None = None,
    queries: Sequence[str] = ("QI4", "QT1"),
) -> list[dict[str, object]]:
    """F1 between the reported and true bin-identifier sets (QI4, QT1)."""
    config = config or ExperimentConfig()
    benchmark = config.build_benchmark()
    registry = config.registry()
    translator = AccuracyTranslator(registry, SelectionMode.OPTIMISTIC)
    rng = np.random.default_rng(config.seed)
    records: list[dict[str, object]] = []
    for entry in (benchmark[name] for name in queries):
        table = benchmark.table_for(entry)
        truth = entry.query.true_answer(table)
        for fraction in config.alpha_fractions:
            accuracy = AccuracySpec(alpha=fraction * len(table), beta=config.beta)
            choice = translator.choose(entry.query, accuracy, table.schema)
            assert choice is not None
            for run in range(config.n_runs):
                result = choice.mechanism.run(entry.query, accuracy, table, rng=rng)
                records.append(
                    {
                        "figure": "3",
                        "query": entry.name,
                        "alpha_fraction": fraction,
                        "run": run,
                        "mechanism": choice.mechanism.name,
                        "epsilon": result.epsilon_spent,
                        "f1": f1_sets(list(result.value), list(truth)),
                    }
                )
    return records


# ---------------------------------------------------------------------------
# Table 2: privacy cost of every applicable mechanism per query
# ---------------------------------------------------------------------------


@_timed("table2")
def run_table2(
    config: ExperimentConfig | None = None,
    alpha_fractions: Sequence[float] = (0.02, 0.08),
) -> list[dict[str, object]]:
    """Median actual privacy cost of *all* applicable mechanisms per query."""
    config = config or ExperimentConfig()
    benchmark = config.build_benchmark()
    registry = config.registry()
    rng = np.random.default_rng(config.seed)
    records: list[dict[str, object]] = []
    for entry in config.selected(benchmark):
        table = benchmark.table_for(entry)
        for fraction in alpha_fractions:
            accuracy = AccuracySpec(alpha=fraction * len(table), beta=config.beta)
            for mechanism in registry.for_query(entry.query):
                costs = _mechanism_costs(
                    mechanism, entry.query, accuracy, table, config.n_runs, rng
                )
                if not costs:
                    continue
                records.append(
                    {
                        "table": "2",
                        "query": entry.name,
                        "dataset": entry.dataset,
                        "alpha_fraction": fraction,
                        "mechanism": mechanism.name,
                        "epsilon_median": float(np.median(costs)),
                        "epsilon_min": float(np.min(costs)),
                        "epsilon_max": float(np.max(costs)),
                        "n_runs": len(costs),
                    }
                )
    return records


def _mechanism_costs(
    mechanism: Mechanism,
    query: Query,
    accuracy: AccuracySpec,
    table: Table,
    n_runs: int,
    rng: np.random.Generator,
) -> list[float]:
    try:
        translation = mechanism.translate(query, accuracy, table.schema)
    except TranslationError:
        # The accuracy is out of this mechanism's range: no row, as in the
        # paper's tables.  Anything else (a schema mismatch) is a bug.
        return []
    if not translation.is_data_dependent:
        return [translation.epsilon_upper]
    costs = []
    for _ in range(n_runs):
        result = mechanism.run(query, accuracy, table, rng=rng)
        costs.append(result.epsilon_spent)
    return costs


# ---------------------------------------------------------------------------
# Figure 4: sensitivity of the privacy cost to query parameters
# ---------------------------------------------------------------------------


@_timed("figure4a")
def run_figure4a(
    config: ExperimentConfig | None = None,
    workload_sizes: Sequence[int] = (100, 200, 300, 400, 500),
    alpha_fraction: float = 0.08,
) -> list[dict[str, object]]:
    """Privacy cost vs workload size L for WCQ-LM and WCQ-SM (QW1/QW2 templates)."""
    config = config or ExperimentConfig()
    benchmark = config.build_benchmark()
    registry = config.registry()
    table = benchmark.adult
    accuracy = AccuracySpec(alpha=alpha_fraction * len(table), beta=config.beta)
    records: list[dict[str, object]] = []
    for size in workload_sizes:
        templates = {
            "QW1": WorkloadCountingQuery(
                histogram_workload("capital_gain", start=0, stop=5000, bins=size),
                name=f"QW1-L{size}",
            ),
            "QW2": WorkloadCountingQuery(
                cumulative_histogram_workload(
                    "capital_gain", start=0, stop=5000, bins=size
                ),
                name=f"QW2-L{size}",
            ),
        }
        for template_name, query in templates.items():
            for mechanism_name in ("WCQ-LM", "WCQ-SM"):
                mechanism = registry.get(mechanism_name)
                translation = mechanism.translate(query, accuracy, table.schema)
                records.append(
                    {
                        "figure": "4a",
                        "template": template_name,
                        "workload_size": size,
                        "mechanism": mechanism_name,
                        "epsilon": translation.epsilon_upper,
                    }
                )
    return records


@_timed("figure4b")
def run_figure4b(
    config: ExperimentConfig | None = None,
    ks: Sequence[int] = (10, 20, 30, 40, 50),
    alpha_fraction: float = 0.08,
) -> list[dict[str, object]]:
    """Privacy cost vs k for TCQ-LM and TCQ-LTM (QT3/QT4 templates)."""
    config = config or ExperimentConfig()
    benchmark = config.build_benchmark()
    registry = config.registry()
    table = benchmark.nytaxi
    accuracy = AccuracySpec(alpha=alpha_fraction * len(table), beta=config.beta)
    records: list[dict[str, object]] = []
    qt3_workload = benchmark["QT3"].query.workload
    qt4_entry = benchmark["QT4"]
    for k in ks:
        templates = {
            "QT3": TopKCountingQuery(qt3_workload, k=k, name=f"QT3-k{k}"),
            "QT4": TopKCountingQuery(
                qt4_entry.query.workload,
                k=k,
                name=f"QT4-k{k}",
                sensitivity=qt4_entry.query.sensitivity(table.schema),
            ),
        }
        for template_name, query in templates.items():
            for mechanism_name in ("TCQ-LM", "TCQ-LTM"):
                mechanism = registry.get(mechanism_name)
                translation = mechanism.translate(query, accuracy, table.schema)
                records.append(
                    {
                        "figure": "4b",
                        "template": template_name,
                        "k": k,
                        "mechanism": mechanism_name,
                        "epsilon": translation.epsilon_upper,
                    }
                )
    return records


@_timed("figure4c")
def run_figure4c(
    config: ExperimentConfig | None = None,
    threshold_fractions: Sequence[float] = (
        0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
    ),
    alpha_fraction: float = 0.08,
) -> list[dict[str, object]]:
    """Actual privacy cost vs ICQ threshold c for the three ICQ mechanisms (QI2)."""
    config = config or ExperimentConfig()
    benchmark = config.build_benchmark()
    registry = config.registry()
    table = benchmark.adult
    accuracy = AccuracySpec(alpha=alpha_fraction * len(table), beta=config.beta)
    rng = np.random.default_rng(config.seed)
    base_workload = marginal_workload(
        histogram_workload("capital_gain", start=0, stop=5000, bins=50),
        point_workload("sex", ["M", "F"]),
    )
    records: list[dict[str, object]] = []
    for fraction in threshold_fractions:
        query = IcebergCountingQuery(
            base_workload,
            threshold=fraction * len(table),
            name=f"QI2-c{fraction}",
        )
        for mechanism_name in ("ICQ-LM", "ICQ-SM", "ICQ-MPM"):
            mechanism = registry.get(mechanism_name)
            costs = _mechanism_costs(
                mechanism, query, accuracy, table, config.n_runs, rng
            )
            if not costs:
                continue
            records.append(
                {
                    "figure": "4c",
                    "threshold_fraction": fraction,
                    "mechanism": mechanism_name,
                    "epsilon_median": float(np.median(costs)),
                }
            )
    return records


# ---------------------------------------------------------------------------
# Figures 5-7: entity-resolution case study
# ---------------------------------------------------------------------------


def _run_er_once(
    strategy_name: str,
    table: Table,
    cache: SimilarityCache,
    budget: float,
    accuracy: AccuracySpec,
    cleaner_model: CleanerModel,
    run_seed: int,
    mc_samples: int,
) -> dict[str, object]:
    engine = APExEngine(
        table,
        budget=budget,
        seed=run_seed,
        registry=default_registry(mc_samples=mc_samples),
    )
    strategy_class = _STRATEGY_CLASSES[strategy_name]
    cleaner = cleaner_model.sample()
    strategy = strategy_class(table, cleaner, accuracy, cache=cache, rng=run_seed)
    outcome = strategy.run(engine)
    return {
        "strategy": strategy_name,
        "task": outcome.task,
        "budget": budget,
        "alpha": accuracy.alpha,
        "alpha_fraction": accuracy.alpha / max(len(table), 1),
        "recall": outcome.recall,
        "precision": outcome.precision,
        "f1": outcome.f1,
        "quality": outcome.quality,
        "blocking_cost": outcome.blocking_cost,
        "queries_answered": outcome.queries_answered,
        "epsilon_spent": outcome.epsilon_spent,
        "formula_size": len(outcome.formula),
    }


@_timed("figure5")
def run_figure5(config: ERExperimentConfig | None = None) -> list[dict[str, object]]:
    """ER task quality vs privacy budget B at fixed alpha (Figure 5)."""
    config = config or ERExperimentConfig()
    table, cache = config.build_table()
    accuracy = AccuracySpec(
        alpha=config.alpha_fraction * len(table), beta=config.beta
    )
    cleaner_model = CleanerModel(seed=config.seed)
    records: list[dict[str, object]] = []
    for strategy_name in config.strategies:
        for budget in config.budgets:
            for run in range(config.n_runs):
                record = _run_er_once(
                    strategy_name,
                    table,
                    cache,
                    budget,
                    accuracy,
                    cleaner_model,
                    run_seed=config.seed * 10_000 + run,
                    mc_samples=config.mc_samples,
                )
                record.update({"figure": "5", "run": run, "n_pairs": len(table)})
                records.append(record)
    return records


@_timed("figure6")
def run_figure6(config: ERExperimentConfig | None = None) -> list[dict[str, object]]:
    """ER task quality vs accuracy requirement alpha at fixed budget (Figure 6)."""
    config = config or ERExperimentConfig()
    table, cache = config.build_table()
    cleaner_model = CleanerModel(seed=config.seed)
    records: list[dict[str, object]] = []
    for strategy_name in config.strategies:
        for fraction in config.alpha_fractions:
            accuracy = AccuracySpec(alpha=fraction * len(table), beta=config.beta)
            for run in range(config.n_runs):
                record = _run_er_once(
                    strategy_name,
                    table,
                    cache,
                    config.fixed_budget,
                    accuracy,
                    cleaner_model,
                    run_seed=config.seed * 10_000 + run,
                    mc_samples=config.mc_samples,
                )
                record.update({"figure": "6", "run": run, "n_pairs": len(table)})
                records.append(record)
    return records


@_timed("figure7")
def run_figure7(config: ERExperimentConfig | None = None) -> list[dict[str, object]]:
    """Figure 7: the blocking strategies on the smaller |D| = 1000 sample.

    Runs both the budget sweep (as Figure 5) and the alpha sweep (as Figure 6)
    restricted to BS1/BS2.
    """
    config = config or ERExperimentConfig(
        n_pairs=1_000, strategies=("BS1", "BS2")
    )
    budget_records = run_figure5(config)
    alpha_records = run_figure6(config)
    for record in budget_records:
        record["figure"] = "7-budget"
    for record in alpha_records:
        record["figure"] = "7-alpha"
    return budget_records + alpha_records
