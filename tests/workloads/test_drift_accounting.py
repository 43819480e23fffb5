"""Token-tier accounting under ``mixed`` drift.

One query referencing *both* categorical attributes streams through a
``mixed`` run with an artifact store attached.  The tier counters must match
the per-period drift schedule exactly:

* ``built`` = 1 (cold) + one per scheduled fingerprint change;
* ``token`` = every other period -- including the numeric-widening
  periods, whose data-only drift must be invisible to the fingerprints;
* ``disk_hits`` = 0 in-process (fingerprints only ever grow, so no disk key
  recurs within one run) while ``disk_writes`` tracks ``built``.
"""

from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.mechanisms.registry import default_registry
from repro.mechanisms.strategy_mechanism import reset_search_stats
from repro.queries.predicates import Comparison
from repro.queries.query import WorkloadCountingQuery
from repro.queries.workload import Workload, clear_matrix_cache
from repro.store import ArtifactStore
from repro.workloads import GeneratorConfig, MicrosimulationGenerator
from repro.workloads.population import OCCUPATION_CODES, REGION_CODES


def make_query() -> WorkloadCountingQuery:
    predicates = [Comparison("region", "==", code) for code in REGION_CODES[:8]]
    predicates += [
        Comparison("occupation", "==", code) for code in OCCUPATION_CODES[:8]
    ]
    return WorkloadCountingQuery(Workload(predicates), name="panel-mix")


def test_mixed_drift_counters_match_the_schedule(tmp_path):
    clear_matrix_cache()
    reset_search_stats()
    config = GeneratorConfig(
        seed=17,
        initial_rows=500,
        periods=6,
        rows_per_period=120,
        drift="mixed",
        drift_every=2,
    )
    schedule = config.drift_schedule()
    widening = config.widening_schedule()
    assert any(schedule) and any(widening)

    generator = MicrosimulationGenerator(config)
    table = generator.build_table()
    store = ArtifactStore(str(tmp_path))
    engine = APExEngine(
        table,
        budget=config.budget,
        registry=default_registry(mc_samples=100),
        seed=3,
        store=store,
    )
    accuracy = AccuracySpec(alpha=0.2 * config.total_rows(), beta=1e-3)
    engine.preview_cost(make_query(), accuracy)

    expected_built = 1
    expected_token = 0
    for batch in generator.batches():
        table.append_rows(list(batch.rows))
        engine.preview_cost(make_query(), accuracy)
        if schedule[batch.period - 1]:
            expected_built += 1
        else:
            expected_token += 1
        stats = engine.cache_stats()["translations"]
        assert stats["built"] == expected_built, f"period {batch.period}"
        assert stats["token"] == expected_token, f"period {batch.period}"
        assert stats["disk_hits"] == 0
        assert stats["disk_writes"] == expected_built

    # The whole-run totals, spelled out: every scheduled change rebuilt,
    # every preserve/widening period revalidated, nothing else.
    stats = engine.cache_stats()["translations"]
    assert stats["built"] == 1 + sum(schedule)
    assert stats["token"] == config.periods - sum(schedule)


def test_widening_periods_revalidate_even_for_income_queries(tmp_path):
    # The widening drift touches the *income* data itself; an income query
    # must still revalidate because numeric fingerprints carry no observed
    # values.
    from repro.queries.predicates import Between
    from repro.workloads.population import INCOME_CAP

    clear_matrix_cache()
    reset_search_stats()
    config = GeneratorConfig(
        seed=17,
        initial_rows=400,
        periods=4,
        rows_per_period=100,
        drift="mixed",
        drift_every=2,
    )
    generator = MicrosimulationGenerator(config)
    table = generator.build_table()
    engine = APExEngine(
        table,
        budget=config.budget,
        registry=default_registry(mc_samples=100),
        seed=3,
        store=ArtifactStore(str(tmp_path)),
    )
    accuracy = AccuracySpec(alpha=0.2 * config.total_rows(), beta=1e-3)
    step = INCOME_CAP / 4
    query = lambda: WorkloadCountingQuery(  # noqa: E731
        Workload([Between("income", i * step, (i + 1) * step) for i in range(4)]),
        name="income-wcq",
    )
    engine.preview_cost(query(), accuracy)
    widened_periods = 0
    for batch in generator.batches():
        table.append_rows(list(batch.rows))
        engine.preview_cost(query(), accuracy)
        widened_periods += int(batch.widened)
    assert widened_periods > 0
    stats = engine.cache_stats()["translations"]
    assert stats["built"] == 1
    assert stats["token"] == config.periods
